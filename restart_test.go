package webmlgo

// The durable data tier under the whole stack: a seeded run of
// operations against the Acer-Euro application over a paging engine,
// then a clean restart and a crash image, each of which must serve the
// pages the running application served.

import (
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

// restartOpts squeezes the engine: a pool and a row cache far below the
// populated data, and a checkpoint every 16 KiB of log, so faults, cache
// drops and checkpoints all run between the operations.
var restartOpts = rdb.DurableOptions{CheckpointBytes: 16 << 10, PoolPages: 16, ResidentRows: 64}

// openAcerDurable opens dir and assembles the Acer-Euro application over
// it, with no cache: every page is computed from the database.
func openAcerDurable(t *testing.T, m *webml.Model, dir string, opts ...Option) (*App, *rdb.DB) {
	t.Helper()
	db, err := rdb.OpenDurableOpts(dir, restartOpts)
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(m, append(opts, WithDatabase(db))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app, db
}

func acerModel(t *testing.T) *webml.Model {
	t.Helper()
	m, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// populate gives a new directory the schema and oracleRows objects per
// entity. WithDatabase skips DDL.
func populate(t *testing.T, app *App) {
	t.Helper()
	for _, stmt := range app.Artifacts.DDL {
		if _, err := app.DB.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := workload.Populate(app.DB, oracleRows, 7); err != nil {
		t.Fatal(err)
	}
}

// readPages serves every page of the working set.
func readPages(t *testing.T, h http.Handler, pages []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(pages))
	for _, p := range pages {
		code, body := serve(h, p, false, "")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", p, code)
		}
		out[p] = body
	}
	return out
}

// samePages reports every working-set page that reads differently now.
func samePages(t *testing.T, what string, h http.Handler, want map[string]string) {
	t.Helper()
	for p, body := range readPages(t, h, keys(want)) {
		if body != want[p] {
			t.Errorf("%s: %s differs from what it served before", what, p)
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// copyDir copies the files of an open database directory: what a crash
// at that instant would leave on disk, since every commit is on disk
// when its operation answers and nothing writes between operations.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	files, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(from, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRestartServesSamePages: after 300 steps of seeded creates,
// modifies, deletes, connects and disconnects — at least three of them
// renames to a value larger than a page, so overflow cells are written
// and then freed — a clean restart serves every working-set page byte for
// byte as before the close, and a copy of the directory taken mid-run
// replays its log tail and serves the pages read at copy time.
func TestDurableRestartServesSamePages(t *testing.T) {
	m, dir := acerModel(t), t.TempDir()
	app, db := openAcerDurable(t, m, dir)
	populate(t, app)
	h := app.Handler()
	pages, ops := oracleWorkingSet(app)
	var modify *webml.Unit
	for _, op := range ops {
		if op.Kind == webml.ModifyUnit {
			modify = op
			break
		}
	}
	if modify == nil {
		t.Fatal("working set has no modify operation")
	}
	// overwrite renames object 1 to 6,000 copies of fill: larger than a
	// 4 KiB page.
	overwrite := func(step int, fill string) {
		t.Helper()
		op := "/op/" + modify.ID + "?" + url.Values{"oid": {"1"}, "name": {strings.Repeat(fill, 6000)}}.Encode()
		if code, body := serve(h, op, false, ""); code != http.StatusFound || strings.Contains(body, "_error=") {
			t.Fatalf("step %d: oversized %q rename answered %d: %s", step, fill, code, body)
		}
	}
	showsValue := func(pages map[string]string, fill string) bool {
		for _, body := range pages {
			if strings.Contains(body, strings.Repeat(fill, 6000)) {
				return true
			}
		}
		return false
	}

	const steps, copyAt = 300, 200
	crash := t.TempDir()
	var atCopy map[string]string
	copied := "" // the fill object 1 shows in the crash image
	rng := rand.New(rand.NewSource(1))
	for step := 1; step <= steps; step++ {
		switch {
		case step == 60:
			overwrite(step, "a")
		case step == 150:
			overwrite(step, "b") // frees the first value's overflow chain
		case step >= copyAt && atCopy == nil:
			// The copy is taken after a rename that no checkpoint
			// folded into the page file: the crash image must replay it.
			fill := string(rune('c' + step - copyAt))
			ckpt := db.EngineStats().Checkpoints
			overwrite(step, fill)
			if db.EngineStats().Checkpoints == ckpt {
				copyDir(t, dir, crash)
				atCopy, copied = readPages(t, h, pages), fill
			}
		default:
			op := oracleOp(rng, ops, step)
			if code, body := serve(h, op, false, ""); code != http.StatusFound {
				t.Fatalf("step %d: %s answered %d: %s", step, op, code, body)
			}
		}
	}
	if atCopy == nil || !showsValue(atCopy, copied) {
		t.Fatal("no working-set page showed the renamed object at copy time")
	}
	before := readPages(t, h, pages)
	if !showsValue(before, copied) {
		t.Fatal("no working-set page shows the oversized value before the close")
	}
	if st := db.EngineStats(); st.Checkpoints == 0 || st.RowFaults == 0 {
		t.Fatalf("the run must both checkpoint and fault: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	app, db = openAcerDurable(t, m, dir)
	defer db.Close()
	samePages(t, "after a restart", app.Handler(), before)

	app, crashed := openAcerDurable(t, m, crash)
	defer crashed.Close()
	if n := crashed.EngineStats().RecoveredRecords; n == 0 {
		t.Fatal("the crash image replayed no log records")
	}
	samePages(t, "in the crash image", app.Handler(), atCopy)
}

// TestDurableRowFaultsReachMetrics: with a row cache smaller than the
// data, the reads that fault evicted rows back show on /metrics, in the
// fault counter and in the fault-latency histogram.
func TestDurableRowFaultsReachMetrics(t *testing.T) {
	app, _ := openAcerDurable(t, acerModel(t), t.TempDir(), WithObservability(0, 0))
	populate(t, app)
	pages, _ := oracleWorkingSet(app)
	readPages(t, app.Handler(), pages)
	checkRowFaultSeries(t, app)
}

// TestDurableRowFaultsReachEveryApp: two applications over one database
// both time its row faults; the second does not take the fault-latency
// histogram away from the first.
func TestDurableRowFaultsReachEveryApp(t *testing.T) {
	app, db := openAcerDurable(t, acerModel(t), t.TempDir(), WithObservability(0, 0))
	populate(t, app)
	other, err := New(acerModel(t), WithDatabase(db), WithObservability(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)
	pages, _ := oracleWorkingSet(app)
	readPages(t, app.Handler(), pages)
	readPages(t, other.Handler(), pages)
	checkRowFaultSeries(t, app)
	checkRowFaultSeries(t, other)
}

// checkRowFaultSeries asserts the app's /metrics counts row faults in the
// fault counter and in the fault-latency histogram.
func checkRowFaultSeries(t *testing.T, app *App) {
	t.Helper()
	_, body := serve(app.MetricsHandler(), "/metrics", false, "")
	for _, series := range []string{"webml_rdb_row_faults_total", `webml_rdb_row_fault_seconds_count{mode="read"}`} {
		var n float64
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				n, _ = strconv.ParseFloat(v, 64)
			}
		}
		if n <= 0 {
			t.Errorf("/metrics: %s is %v after faulting reads", series, n)
		}
	}
}

// TestOpenDurableDatabasePagedCachesRows: Acer-Euro's 2,200 rows, reopened
// through the facade with a 2,000-row budget, serve 300 pages three times.
// The open leaves the row cache empty; the first round fills it up to the
// budget and no further; the later rounds find every row there and fault
// none; and every page reads as it does over the in-memory engine.
func TestOpenDurableDatabasePagedCachesRows(t *testing.T) {
	const rowsPerEntity, budget = 200, 2000
	m, dir := acerModel(t), t.TempDir()
	seed := func(app *App) {
		t.Helper()
		if err := workload.Populate(app.DB, rowsPerEntity, 7); err != nil {
			t.Fatal(err)
		}
	}
	mem, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mem.Close)
	seed(mem)

	db, err := OpenDurableDatabasePaged(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(m, WithDatabase(db))
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range app.Artifacts.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	seed(app)
	app.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db, err = OpenDurableDatabasePaged(dir, 0, budget); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := db.EngineStats().RowsResident; n != 0 {
		t.Fatalf("RowsResident = %d right after the open, want 0", n)
	}
	if app, err = New(m, WithDatabase(db)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	pages := goldenHotPaths(m, 300)
	want := readPages(t, mem.Handler(), pages)
	var faults uint64
	for round := 1; round <= 3; round++ {
		for p, body := range readPages(t, app.Handler(), pages) {
			if body != want[p] {
				t.Fatalf("round %d: %s differs from the in-memory engine's", round, p)
			}
		}
		st := db.EngineStats()
		if round == 1 {
			if st.RowsResident <= 0 || st.RowsResident > budget {
				t.Fatalf("after round 1 the row cache holds %d rows, want 1..%d", st.RowsResident, budget)
			}
			faults = st.RowFaults
		} else if st.RowFaults != faults {
			t.Fatalf("round %d faulted %d rows the cache held after round 1", round, st.RowFaults-faults)
		}
		t.Logf("round %d: %d rows cached, %d faults, %d dropped", round, st.RowsResident, st.RowFaults, st.RowsEvicted)
	}
}
