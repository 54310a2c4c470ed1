package webmlgo

// Work counters: the exact work one request of a benchmark workload's
// shape costs, in process, over the stack bench/stack.go boots. The rows
// in testdata/work_counters.txt are the claim a change makes: any change
// in either direction fails the test, and -update rewrites the file, so
// the diff shows what moved.

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

var updateWorkCounters = flag.Bool("update", false, "rewrite testdata/work_counters.txt from this build")

const workCountersFile = "testdata/work_counters.txt"

// workCounterTolerance is the relative slack an allocation row allows for
// runtime scheduling (pools emptied by a collection, goroutine stacks);
// every other row is exact.
const workCounterTolerance = 0.005

// workRow is one workload shape's per-request work.
type workRow struct {
	name                   string
	requests               int
	allocs                 float64
	framesSent, framesRecv float64
	served                 float64
	edgeMisses             float64
}

func (r workRow) String() string {
	return fmt.Sprintf("%s\trequests=%d\tallocs=%.1f\tframes_sent=%.4f\tframes_recv=%.4f\tserved=%.4f\tedge_misses=%.4f",
		r.name, r.requests, r.allocs, r.framesSent, r.framesRecv, r.served, r.edgeMisses)
}

func parseWorkRow(line string) (workRow, error) {
	fields := strings.Split(line, "\t")
	r := workRow{name: fields[0]}
	vals := map[string]*float64{"allocs": &r.allocs, "frames_sent": &r.framesSent,
		"frames_recv": &r.framesRecv, "served": &r.served, "edge_misses": &r.edgeMisses}
	for _, f := range fields[1:] {
		k, v, _ := strings.Cut(f, "=")
		if k == "requests" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return r, err
			}
			r.requests = n
			continue
		}
		p, ok := vals[k]
		if !ok {
			return r, fmt.Errorf("unknown counter %q", k)
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return r, err
		}
		*p = x
	}
	return r, nil
}

// shapeWork drives one workload shape over the benchmark's stack:
// Acer-Euro on a durable database, its business tier deployed in a
// container over loopback, and a web App with a bean cache, an edge,
// admission and a 5 s request budget. A session_ request carries a
// session cookie the server issued; anon_hot and write_mix send none, so
// the edge serves them.
//
// session_hot and anon_hot warm every hot URL, then count a seeded Zipf
// list over the 256 hot URLs. write_mix does the same, with one public
// _modify operation (/op/<id>?oid=&name=, its redirect not followed) at a
// drawn position in every 20 requests, as bench/stream.go draws them.
// session_cold is set up as bench/stack.go sets it up — the populated
// database checkpointed, closed and reopened with a quarter of its rows
// resident and half of its pages pooled — and warms and counts seeded
// uniform lists over every public page and id.
func shapeWork(t *testing.T, name string, requests int) workRow {
	cold := name == "session_cold"
	anon := name == "anon_hot" || name == "write_mix"
	model, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := rdb.OpenDurableOpts(dir, rdb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	gen, err := codegen.New(model)
	if err != nil {
		t.Fatal(err)
	}
	art, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := workload.Populate(db, 200, 7); err != nil {
		t.Fatal(err)
	}
	if cold {
		rows := 0
		for _, tbl := range db.TableNames() {
			n, err := db.RowCount(tbl)
			if err != nil {
				t.Fatal(err)
			}
			rows += n
		}
		if err := db.Close(); err != nil { // Close checkpoints
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, "pages.db"))
		if err != nil {
			t.Fatal(err)
		}
		db, err = rdb.OpenDurableOpts(dir, rdb.DurableOptions{
			ResidentRows: rows / 4, PoolPages: int(fi.Size()/4096) / 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	backend, err := New(model, WithDatabase(db))
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	ctr, addr, err := backend.DeployContainer(16, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close() //nolint:errcheck // test teardown
	app, err := New(model, WithDatabase(db), WithCompiledStyle(B2CStyle()),
		WithAppServer(addr), WithBeanCache(8192), WithEdgeCache(8192, 10*time.Minute),
		WithAdmission(64, 256), WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	h := app.Handler()

	// The server issues the sessions, as the benchmark has it do.
	var cookies []string
	if !anon {
		cookies = make([]string, 64)
	}
	for i := range cookies {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/logout", nil))
		for _, c := range rr.Result().Cookies() {
			if c.Name == "WSESSION" {
				cookies[i] = "WSESSION=" + c.Value
			}
		}
		if cookies[i] == "" {
			t.Fatal("/logout issued no session cookie")
		}
	}
	rng := rand.New(rand.NewSource(1))
	newReq := func(path string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if !anon {
			r.Header.Set("Cookie", cookies[rng.Intn(len(cookies))])
		}
		return r
	}
	w := &hitWriter{h: make(http.Header)}
	serve := func(r *http.Request) {
		want := http.StatusOK
		if strings.HasPrefix(r.URL.Path, "/op/") {
			want = http.StatusFound
		}
		w.code, w.n = http.StatusOK, 0
		clear(w.h)
		h.ServeHTTP(w, r)
		if w.code != want || w.n == 0 {
			t.Fatalf("%s: status %d, %d bytes", r.URL, w.code, w.n)
		}
	}
	var next func() string
	var hotPaths []string
	if cold {
		paths := publicPaths(art.Repo)
		next = func() string { return paths[rng.Intn(len(paths))] }
		for range requests / 4 {
			serve(newReq(next()))
		}
	} else {
		hotPaths = goldenHotPaths(model, 256)
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(hotPaths)-1))
		next = func() string { return hotPaths[zipf.Uint64()] }
		for _, path := range hotPaths {
			serve(newReq(path))
		}
	}
	var ops []string
	if name == "write_mix" {
		ops = modifyOps(art.Repo, hotPaths)
	}
	reqs := make([]*http.Request, requests)
	opAt, seq := -1, 0
	var opOrder []int
	for i := range reqs {
		if len(ops) == 0 {
			reqs[i] = newReq(next())
			continue
		}
		if i%20 == 0 {
			opAt = i + rng.Intn(20)
		}
		if i != opAt {
			reqs[i] = newReq(next())
			continue
		}
		if len(opOrder) == 0 {
			opOrder = rng.Perm(len(ops))
		}
		seq++
		reqs[i] = newReq(fmt.Sprintf("/op/%s?oid=%d&name=wc%d", ops[opOrder[0]], rng.Intn(200)+1, seq))
		opOrder = opOrder[1:]
	}

	var ms runtime.MemStats
	runtime.GC()
	sent0, recv0, _ := app.Remote.FrameStats()
	served0 := ctr.Metrics().Served
	_, _, misses0 := app.Edge.Dispositions()
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	for _, r := range reqs {
		serve(r)
	}
	runtime.ReadMemStats(&ms)
	sent, recv, _ := app.Remote.FrameStats()
	_, _, misses := app.Edge.Dispositions()
	n := float64(requests)
	return workRow{
		name:       name,
		requests:   requests,
		allocs:     math.Round(float64(ms.Mallocs-mallocs0)/n*10) / 10,
		framesSent: float64(sent-sent0) / n,
		framesRecv: float64(recv-recv0) / n,
		served:     float64(ctr.Metrics().Served-served0) / n,
		edgeMisses: float64(misses-misses0) / n,
	}
}

// modifyOps mirrors bench/stream.go's modifyOps: the IDs of the public
// modify operations on an entity that a hot page lists whole (an index,
// multidata or multichoice unit without inputs), in descriptor order.
func modifyOps(repo *descriptor.Repository, hotPaths []string) []string {
	listed := map[string]bool{}
	for _, path := range hotPaths {
		page, _, _ := strings.Cut(strings.TrimPrefix(path, "/page/"), "?")
		pd := repo.Page(page)
		if pd == nil {
			continue
		}
		for _, u := range pd.Units {
			d := repo.Unit(u.ID)
			if d == nil || len(d.Inputs) > 0 {
				continue
			}
			switch webml.UnitKind(d.Kind) {
			case webml.IndexUnit, webml.MultidataUnit, webml.MultichoiceUnit:
				listed[d.Entity] = true
			}
		}
	}
	var out []string
	for _, d := range repo.Units() {
		if d.Kind != string(webml.ModifyUnit) || !listed[d.Entity] {
			continue
		}
		m := repo.Config().Mapping("op/" + d.ID)
		if m == nil {
			continue
		}
		if pd := repo.Page(strings.TrimPrefix(m.OK, "page/")); pd == nil || pd.Protected {
			continue
		}
		out = append(out, d.ID)
	}
	return out
}

// publicPaths lists every page of a public site view, once per id 1–200
// when it shows a data unit, as the benchmark's cold stream does.
func publicPaths(repo *descriptor.Repository) []string {
	var out []string
	for _, pd := range repo.Pages() {
		if pd.Protected {
			continue
		}
		detail := false
		for _, u := range pd.Units {
			if d := repo.Unit(u.ID); d != nil && d.Kind == string(webml.DataUnit) {
				detail = true
			}
		}
		if !detail {
			out = append(out, "/page/"+pd.ID)
			continue
		}
		for id := 1; id <= 200; id++ {
			out = append(out, fmt.Sprintf("/page/%s?id=%d", pd.ID, id))
		}
	}
	return out
}

// TestWorkCounters compares each shape's row with the committed one.
func TestWorkCounters(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("boots the benchmark's stack")
	}
	var got []workRow
	for _, name := range []string{"session_hot", "session_cold", "anon_hot", "write_mix"} {
		got = append(got, shapeWork(t, name, 2000))
	}
	if *updateWorkCounters {
		var b strings.Builder
		b.WriteString("# Per-request work of each benchmark workload shape (TestWorkCounters;\n")
		b.WriteString("# go test -run TestWorkCounters -update . rewrites it).\n")
		for _, r := range got {
			b.WriteString(r.String() + "\n")
		}
		if err := os.WriteFile(workCountersFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]workRow{}
	f, err := os.Open(workCountersFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			r, err := parseWorkRow(line)
			if err != nil {
				t.Fatalf("%s: %q: %v", workCountersFile, line, err)
			}
			want[r.name] = r
		}
	}
	for _, g := range got {
		t.Logf("%v", g)
		w, ok := want[g.name]
		if !ok {
			t.Errorf("%s: no committed row", g.name)
			continue
		}
		allocsOK := math.Abs(g.allocs-w.allocs) <= workCounterTolerance*w.allocs
		exact := w
		exact.allocs = g.allocs
		if !allocsOK || exact != g {
			t.Errorf("work moved (allocs within %.1f %%, the rest exact):\n got %v\nwant %v",
				workCounterTolerance*100, g, w)
		}
	}
}
