package webmlgo

// Golden bytes: the SHA-256 of every page the benchmark's session_hot
// workload requests, rendered inline (RenderPage behind a session cookie)
// and assembled at the edge, over the same stack the benchmark boots —
// container over loopback, framed wire, bean cache, edge. The hashes in
// testdata/golden_pages.txt were recorded at the commit before rows
// became positional; a refactor of the row path must leave them alone.

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/codegen"
	"webmlgo/internal/fixture"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

const goldenFile = "testdata/golden_pages.txt"

// goldenStack serves model the way bench/stack.go does, seeded by seed.
func goldenStack(t *testing.T, model *webml.Model, seed func(*App) error) http.Handler {
	t.Helper()
	backend, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed(backend); err != nil {
		t.Fatal(err)
	}
	ctr, addr, err := backend.DeployContainer(16, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(model, WithDatabase(backend.DB), WithCompiledStyle(B2CStyle()),
		WithAppServer(addr), WithBeanCache(8192), WithEdgeCache(8192, 10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		app.Close()
		ctr.Close() //nolint:errcheck // test teardown
		backend.Close()
	})
	return app.Handler()
}

// goldenHotPaths mirrors bench/stream.go's hotTargets: the first n (256
// there) distinct public URLs of workload.Requests under the model's seed.
func goldenHotPaths(model *webml.Model, n int) []string {
	protected := map[string]bool{}
	for _, sv := range model.SiteViews {
		for _, p := range sv.AllPages() {
			protected[p.ID] = sv.Protected
		}
	}
	var out []string
	seen := map[string]bool{}
	for _, r := range workload.Requests(model, 64*n, 200, workload.AcerEuro().Seed) {
		page := strings.TrimPrefix(r.Path, "/page/")
		if i := strings.IndexByte(page, '?'); i >= 0 {
			page = page[:i]
		}
		if hidden, known := protected[page]; !known || hidden || seen[r.Path] {
			continue
		}
		seen[r.Path] = true
		if out = append(out, r.Path); len(out) == n {
			break
		}
	}
	return out
}

func TestGoldenPageBytes(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, sums, ok := strings.Cut(sc.Text(), "\t"); ok {
			want[key] = sums
		}
	}
	f.Close()

	acer, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	hot := goldenHotPaths(acer, 256)
	if len(hot) != 256 {
		t.Fatalf("hot set has %d URLs, want 256", len(hot))
	}
	first := hot[0]
	if i := strings.IndexByte(first, '?'); i >= 0 {
		first = first[:i]
	}
	stacks := []struct {
		name    string
		handler http.Handler
		paths   []string
	}{
		{"acer", goldenStack(t, acer, func(a *App) error { return workload.Populate(a.DB, 200, 7) }),
			append(hot,
				// a scroller window past the first, and a page redisplaying an error
				"/page/sv01_p000?kw=a&offset=20",
				first+"?id=3&_error=validation+failed")},
		{"acm", goldenStack(t, fixture.Figure1Model(), func(a *App) error { return fixture.Seed(a.DB) }),
			// hierarchical index (issues > papers), scroller, _error
			[]string{"/page/volumePage?volume=1", "/page/searchResults?kw=a&offset=0",
				"/page/volumePage?volume=1&_error=boom"}},
	}
	checked := 0
	for _, st := range stacks {
		for _, path := range st.paths {
			var sums [2]string
			for i, cookie := range []string{"WSESSION=golden", ""} {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				if cookie != "" {
					req.Header.Set("Cookie", cookie) // bypasses the edge: inline RenderPage
				}
				rr := httptest.NewRecorder()
				st.handler.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					t.Fatalf("%s %s (cookie %q): status %d", st.name, path, cookie, rr.Code)
				}
				sums[i] = fmt.Sprintf("%x", sha256.Sum256(rr.Body.Bytes()))
			}
			key := st.name + " " + path
			got := sums[0] + " " + sums[1]
			if want[key] != got {
				t.Errorf("golden mismatch\n%s\t%s", key, got)
			}
			checked++
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d pages, golden file holds %d", checked, len(want))
	}
}

// goldenPlans is the SHA-256 of the EXPLAIN text of every distinct query
// and operation statement in the Acer-Euro artifacts, planned over the
// database the benchmark populates (200 rows per entity, seed 7). A change
// to the engine's planner or indexes must leave every plan the benchmark
// runs where it was. INSERT has no EXPLAIN; its error text is hashed.
const goldenPlans = "3a13a6590cae4e57b6147ed8f4d72e696dc8ae0c23aff8d4de7382454e6f8f48"

func TestGeneratedPlansGolden(t *testing.T) {
	m, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	db, err := rdb.OpenDurableOpts(t.TempDir(), rdb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := workload.Populate(db, 200, 7); err != nil {
		t.Fatal(err)
	}
	var sqls []string
	for _, u := range art.Repo.Units() {
		sqls = append(sqls, u.Query, u.CountQuery)
		for _, l := range u.Levels {
			sqls = append(sqls, l.Query)
		}
	}
	slices.Sort(sqls)
	sqls = slices.Compact(sqls)
	h := sha256.New()
	explained := 0
	for _, sql := range sqls {
		if sql == "" {
			continue
		}
		plan, err := db.Explain(sql)
		if err != nil {
			plan = err.Error()
		} else {
			explained++
		}
		fmt.Fprintf(h, "%s\n%s\n\n", sql, plan)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenPlans {
		t.Fatalf("plan hash over %d statements (%d explained) = %s, want %s", len(sqls), explained, got, goldenPlans)
	}
}
