package webmlgo

// Benchmark harness: one benchmark (or benchmark pair) per figure /
// experiment of the paper. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results.
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"webmlgo/internal/baseline"
	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
	"webmlgo/internal/ejb"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/style"
	"webmlgo/internal/workload"
)

func benchApp(b *testing.B, opts ...Option) *App {
	b.Helper()
	app, err := New(fixture.Figure1Model(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := fixture.Seed(app.DB); err != nil {
		b.Fatal(err)
	}
	return app
}

func doGet(h http.Handler, path string) int {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code
}

// --- E1 (Figures 1–2): the ACM DL volume page end to end. ---

func BenchmarkE1Figure1VolumePage(b *testing.B) {
	app := benchApp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := doGet(app.Handler(), "/page/volumePage?volume=1"); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}

// --- E2 (Sections 2–3, Figures 3–4): template-based vs MVC. ---

func BenchmarkE2TemplateBasedPage(b *testing.B) {
	model := fixture.Figure1Model()
	g, err := codegen.New(model)
	if err != nil {
		b.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	db := rdb.Open()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
	if err := fixture.Seed(db); err != nil {
		b.Fatal(err)
	}
	app := baseline.Build(model, art, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := doGet(app, "/tpl/volumePage?volume=1"); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}

func BenchmarkE2MVCPage(b *testing.B) {
	app := benchApp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := doGet(app.Handler(), "/page/volumePage?volume=1"); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}

// --- E3 (Figure 5): dedicated unit services vs one generic service
// driven by a descriptor. The dedicated variant is what a per-unit code
// generator (or programmer) would emit: the query text, parameter list
// and bean layout baked into code. ---

func e3Setup(b *testing.B) (*rdb.DB, *descriptor.Unit) {
	b.Helper()
	app := benchApp(b)
	return app.DB, app.Repo().Unit("volumeData")
}

func BenchmarkE3DedicatedUnitService(b *testing.B) {
	db, _ := e3Setup(b)
	// Hand-specialized service for the volumeData unit.
	dedicated := func(volume mvc.Value) (*mvc.UnitBean, error) {
		rows, err := db.Query("SELECT t.oid, t.title, t.year FROM volume t WHERE t.oid = ?", volume)
		if err != nil {
			return nil, err
		}
		bean := &mvc.UnitBean{UnitID: "volumeData", Kind: "data", Fields: []string{"oid", "Title", "Year"}}
		for _, r := range rows.Data {
			bean.Nodes = append(bean.Nodes, mvc.Node{Values: r})
		}
		return bean, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dedicated(int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3GenericUnitService(b *testing.B) {
	db, d := e3Setup(b)
	business := mvc.NewLocalBusiness(db)
	inputs := map[string]mvc.Value{"volume": int64(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := business.ComputeUnit(context.Background(), d, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4 (Figure 6): in-container vs application-server business tier. ---

func BenchmarkE4InContainerBusiness(b *testing.B) {
	app := benchApp(b)
	d := app.Repo().Unit("volumeData")
	inputs := map[string]mvc.Value{"volume": int64(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Business.ComputeUnit(context.Background(), d, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4AppServerBusiness(b *testing.B) {
	app := benchApp(b)
	ctr := ejb.NewContainer(mvc.NewLocalBusiness(app.DB), 16)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ctr.Close()
	remote, err := ejb.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	d := app.Repo().Unit("volumeData")
	inputs := map[string]mvc.Value{"volume": int64(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.ComputeUnit(context.Background(), d, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5 (Figure 7, Section 5): compile-time vs runtime styling. ---

func BenchmarkE5CompiledStylePage(b *testing.B) {
	app := benchApp(b, WithCompiledStyle(B2CStyle()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := doGet(app.Handler(), "/page/volumePage?volume=1"); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}

func BenchmarkE5RuntimeStylePage(b *testing.B) {
	app := benchApp(b, WithRuntimeStyle(MultiDevice(B2CStyle())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := doGet(app.Handler(), "/page/volumePage?volume=1"); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkE5RuleApplication measures the rule engine alone: a copy of
// one parsed skeleton styled into a final template.
func BenchmarkE5RuleApplication(b *testing.B) {
	model := fixture.Figure1Model()
	g, err := codegen.New(model)
	if err != nil {
		b.Fatal(err)
	}
	skeleton, err := dom.Parse(g.Skeleton(model.PageByID("volumePage")))
	if err != nil {
		b.Fatal(err)
	}
	s, err := style.NewStyler(nil, nil, B2CStyle())
	if err != nil {
		b.Fatal(err)
	}
	pd := &descriptor.Page{ID: "volumePage"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Style(pd, skeleton.Clone(), ""); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6 (Section 6): cache level comparison on a cache-friendly page. ---

func BenchmarkE6NoCache(b *testing.B) {
	app := benchApp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doGet(app.Handler(), "/page/volumePage?volume=1")
	}
}

// twoLevelApp is the fixture app with Section 6's two cache levels on:
// the bean cache and the ESI edge.
func twoLevelApp(b *testing.B) *App {
	app := benchApp(b, WithBeanCache(4096), WithEdgeCache(8192, time.Minute))
	b.Cleanup(app.Close)
	return app
}

func BenchmarkE6TwoLevelCache(b *testing.B) {
	app := twoLevelApp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doGet(app.Handler(), "/page/volumePage?volume=1")
	}
}

// BenchmarkE6TwoLevelCacheSession is the personalized request: its
// session cookie bypasses the edge, so the bean cache spares its queries
// and the page renders its markup every time.
func BenchmarkE6TwoLevelCacheSession(b *testing.B) {
	app := twoLevelApp(b)
	rr := httptest.NewRecorder()
	app.Controller.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/page/volumesPage", nil))
	session := rr.Result().Cookies()[0]
	h := app.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/page/volumePage?volume=1", nil)
		req.AddCookie(session)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}

// BenchmarkE6TwoLevelCacheWithWrites mixes 1 write per 64 reads, so
// model-driven invalidation costs are included.
func BenchmarkE6TwoLevelCacheWithWrites(b *testing.B) {
	app := twoLevelApp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 63 {
			doGet(app.Handler(), fmt.Sprintf("/op/createVolume?title=V%d&year=2003", i))
			continue
		}
		doGet(app.Handler(), "/page/volumePage?volume=1")
	}
}

// BenchmarkE6TwoLevelCacheParallel drives the two-level-cache page from
// many goroutines at once (heavy-traffic shape): throughput is bounded
// by cache-core contention, not by the database.
func BenchmarkE6TwoLevelCacheParallel(b *testing.B) {
	app := twoLevelApp(b)
	h := app.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			doGet(h, "/page/volumePage?volume=1")
		}
	})
}

// BenchmarkE6TwoLevelCacheParallelWithWrites adds 1 write per 64
// requests per goroutine, so invalidation and recomputation storms are
// part of the measured path.
func BenchmarkE6TwoLevelCacheParallelWithWrites(b *testing.B) {
	app := twoLevelApp(b)
	h := app.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if i%64 == 0 {
				doGet(h, fmt.Sprintf("/op/createVolume?title=V%d&year=2003", i))
				continue
			}
			doGet(h, "/page/volumePage?volume=1")
		}
	})
}

// BenchmarkE6ParallelPageCompute measures the page service alone: the
// level-parallel scheduler computing one page's units concurrently,
// from many requesting goroutines.
func BenchmarkE6ParallelPageCompute(b *testing.B) {
	app := benchApp(b, WithBeanCache(4096), WithPageWorkers(4))
	params := map[string]mvc.Value{"volume": int64(1)}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := app.Controller.Pages.ComputePage(context.Background(), "volumePage", params, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E7 (Section 8): full Acer-Euro-scale generation. ---

func BenchmarkE7AcerEuroGeneration(b *testing.B) {
	model, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-validating drops the artifacts the sealed model keeps, so
		// every iteration generates from scratch.
		b.StopTimer()
		if err := model.Validate(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		g, err := codegen.New(model)
		if err != nil {
			b.Fatal(err)
		}
		art, err := g.Generate()
		if err != nil {
			b.Fatal(err)
		}
		if art.Stats.Pages != 556 {
			b.Fatal("wrong shape")
		}
	}
}

func BenchmarkE7AcerEuroValidation(b *testing.B) {
	model, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelToApp is the model half of the benchmark's set-up: the
// Acer-Euro model is built, its artifacts generated for the container,
// and the web tier assembled with compiled B2C styling over a database
// that already holds the schema.
func BenchmarkModelToApp(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model, err := workload.Generate(workload.AcerEuro())
		if err != nil {
			b.Fatal(err)
		}
		g, err := codegen.New(model)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Generate(); err != nil {
			b.Fatal(err)
		}
		if _, err := New(model, WithDatabase(rdb.Open()), WithCompiledStyle(B2CStyle())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetUpAndCompileAll is set-up plus the first compile of every
// page: the Acer-Euro model is built, the app assembled with compiled
// B2C styling, and every page's program compiled (as an ESI container,
// so no unit is computed). Styling at set-up or at first use, the sum is
// what a server pays before it has served each page once.
func BenchmarkSetUpAndCompileAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model, err := workload.Generate(workload.AcerEuro())
		if err != nil {
			b.Fatal(err)
		}
		app, err := New(model, WithCompiledStyle(B2CStyle()))
		if err != nil {
			b.Fatal(err)
		}
		for _, pd := range app.Repo().Pages() {
			if _, err := app.Renderer.RenderContainer(pd, &mvc.RequestContext{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSetUpLoad is the hot set-up of the end-to-end benchmark
// (bench/stack.go): the Acer-Euro model is generated, a durable database
// opened in a fresh directory, the artifacts generated and their DDL
// applied, 200 rows per entity loaded, a container served on loopback
// and the web tier assembled with the benchmark's options. Tear-down is
// not timed.
func BenchmarkSetUpLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model, err := workload.Generate(workload.AcerEuro())
		if err != nil {
			b.Fatal(err)
		}
		db, err := rdb.OpenDurableOpts(b.TempDir(), rdb.DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		g, err := codegen.New(model)
		if err != nil {
			b.Fatal(err)
		}
		art, err := g.Generate()
		if err != nil {
			b.Fatal(err)
		}
		for _, stmt := range art.DDL {
			if _, err := db.Exec(stmt); err != nil {
				b.Fatal(err)
			}
		}
		if err := workload.Populate(db, 200, 7); err != nil {
			b.Fatal(err)
		}
		business := mvc.NewLocalBusiness(db)
		ctr := ejb.NewContainer(business, 16)
		ctr.DeployPages(&mvc.PageService{Repo: art.Repo, Business: business})
		addr, err := ctr.Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		app, err := New(model, WithDatabase(db), WithCompiledStyle(B2CStyle()),
			WithAppServer(addr), WithWireProtocol(ejb.WireFramed),
			WithBeanCache(8192), WithEdgeCache(8192, 10*time.Minute),
			WithAdmission(64, 256), WithRequestTimeout(5*time.Second))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		app.Close()
		if err := ctr.Close(); err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkE7AcerEuroRequestMix serves the synthetic browse mix against
// the small-spec generated application (the full 556-page app works too,
// but the small spec keeps the benchmark turnaround reasonable; the
// request path cost is per page, not per application size).
func BenchmarkE7GeneratedAppRequestMix(b *testing.B) {
	model, err := workload.Generate(workload.Small())
	if err != nil {
		b.Fatal(err)
	}
	app, err := New(model, WithBeanCache(8192))
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.Populate(app.DB, 50, 7); err != nil {
		b.Fatal(err)
	}
	reqs := workload.Requests(model, 256, 50, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doGet(app.Handler(), reqs[i%len(reqs)].Path)
	}
}

// BenchmarkE4AppServerWholePage is the "Page EJBs" deployment: the whole
// page computes server-side in one round trip (vs one RPC per unit when
// only unit services are remote).
func BenchmarkE4AppServerWholePage(b *testing.B) {
	app := benchApp(b)
	lb := mvc.NewLocalBusiness(app.DB)
	ctr := ejb.NewContainer(lb, 16)
	ctr.DeployPages(&mvc.PageService{Repo: app.Repo(), Business: lb})
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ctr.Close()
	remote, err := ejb.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	pages := remote.Pages()
	params := map[string]mvc.Value{"volume": int64(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pages.ComputePage(context.Background(), "volumePage", params, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4AppServerPerUnitPage computes the same page with one remote
// call per unit (remote unit services, local page service).
func BenchmarkE4AppServerPerUnitPage(b *testing.B) {
	app := benchApp(b)
	ctr := ejb.NewContainer(mvc.NewLocalBusiness(app.DB), 16)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ctr.Close()
	remote, err := ejb.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	pages := &mvc.PageService{Repo: app.Repo(), Business: remote}
	params := map[string]mvc.Value{"volume": int64(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pages.ComputePage(context.Background(), "volumePage", params, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6c: the ESI surrogate edge tier (internal/edge). ---

// BenchmarkE6cEdgeAssembled serves the hot page assembled from edge-
// cached fragments: no unit computation, no template walk — literal
// copies plus fragment lookups, while staying exactly coherent.
func BenchmarkE6cEdgeAssembled(b *testing.B) {
	app := benchApp(b, WithEdgeCache(8192, time.Minute))
	b.Cleanup(app.Edge.Close)
	h := app.Handler()
	doGet(h, "/page/volumePage?volume=1") // warm container + fragments
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doGet(h, "/page/volumePage?volume=1")
	}
}

// BenchmarkE6cEdgeAssembledParallel hammers the assembled page from
// many goroutines (the heavy-traffic shape of the ROADMAP north star).
func BenchmarkE6cEdgeAssembledParallel(b *testing.B) {
	app := benchApp(b, WithEdgeCache(8192, time.Minute))
	b.Cleanup(app.Edge.Close)
	h := app.Handler()
	doGet(h, "/page/volumePage?volume=1")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			doGet(h, "/page/volumePage?volume=1")
		}
	})
}
