package webmlgo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/render"
	"webmlgo/internal/webml"
)

func newApp(t *testing.T, opts ...Option) *App {
	t.Helper()
	app, err := New(fixture.Figure1Model(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := fixture.Seed(app.DB); err != nil {
		t.Fatal(err)
	}
	return app
}

func request(t *testing.T, h http.Handler, path, userAgent string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if userAgent != "" {
		req.Header.Set("User-Agent", userAgent)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.String()
}

func TestNewAssemblesWorkingApp(t *testing.T) {
	app := newApp(t)
	rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, body)
	}
	if !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("content missing:\n%s", body)
	}
}

func TestNewRejectsInvalidModel(t *testing.T) {
	// A model with no site views fails validation inside New.
	m := &Model{Name: "bad", Data: fixture.ACMSchema()}
	if _, err := New(m); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestWithCompiledStyle(t *testing.T) {
	app := newApp(t, WithCompiledStyle(B2CStyle()))
	_, body := request(t, app.Handler(), "/page/volumePage?volume=1", "")
	if !strings.Contains(body, "unit-box") || !strings.Contains(body, "site-header") {
		t.Fatalf("compiled style missing:\n%s", body)
	}
	if !strings.Contains(body, "b2c style sheet") {
		t.Fatal("CSS missing")
	}
}

func TestMultiDeviceAdaptsToDevice(t *testing.T) {
	app := newApp(t, WithCompiledStyle(MultiDevice(B2CStyle())))
	_, desktop := request(t, app.Handler(), "/page/volumePage?volume=1", "Mozilla/5.0 (X11; Linux)")
	_, mobile := request(t, app.Handler(), "/page/volumePage?volume=1", "Mozilla/5.0 (iPhone; Mobile)")
	if !strings.Contains(desktop, "unit-box") {
		t.Fatalf("desktop style missing:\n%s", desktop)
	}
	if !strings.Contains(mobile, "m-unit") {
		t.Fatalf("mobile style missing:\n%s", mobile)
	}
	if strings.Contains(mobile, "unit-box") {
		t.Fatal("desktop rules leaked into mobile")
	}
}

// TestWithCachesEndToEnd: with Section 6's two levels on, an anonymous
// repeat is an edge hit, and a cookie-carrying (personalized) repeat
// bypasses the edge and hits the bean cache.
func TestWithCachesEndToEnd(t *testing.T) {
	app := newApp(t, WithBeanCache(1024), WithEdgeCache(1024, time.Minute))
	defer app.Close()
	const page = "/page/volumePage?volume=1"
	request(t, app.Handler(), page, "")
	if rr, _ := request(t, app.Handler(), page, ""); rr.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("anonymous repeat X-Cache = %q, want HIT", rr.Header().Get("X-Cache"))
	}
	personalized := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, page, nil)
		req.AddCookie(&http.Cookie{Name: "WSESSION", Value: "s1"})
		rr := httptest.NewRecorder()
		app.Handler().ServeHTTP(rr, req)
		return rr
	}
	personalized()
	hits := app.BeanCache.Stats().Hits
	if rr := personalized(); rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "" {
		t.Fatalf("cookie repeat: status %d, X-Cache %q; want 200 past the edge", rr.Code, rr.Header().Get("X-Cache"))
	}
	if app.BeanCache.Stats().Hits <= hits {
		t.Fatalf("cookie repeat missed the bean cache: %+v", app.BeanCache.Stats())
	}
}

func TestWithAppServer(t *testing.T) {
	// Deploy the business tier in a container, then assemble the web
	// tier against it (Figure 6, both halves).
	backend, err := New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixture.Seed(backend.DB); err != nil {
		t.Fatal(err)
	}
	ctr, addr, err := backend.DeployContainer(8, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()

	app, err := New(fixture.Figure1Model(), WithAppServer(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Remote.Close()
	rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, body)
	}
	if !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("remote content missing:\n%s", body)
	}
	if ctr.Metrics().Served == 0 {
		t.Fatal("container unused")
	}
	if app.LocalBusiness() != nil {
		t.Fatal("remote app claims a local business tier")
	}
}

func TestLocalBusinessAccessors(t *testing.T) {
	app := newApp(t)
	if app.LocalBusiness() == nil {
		t.Fatal("plain app lacks local business")
	}
	cached := newApp(t, WithBeanCache(16))
	if cached.LocalBusiness() == nil {
		t.Fatal("cached app lacks local business")
	}
}

func TestQueryOverrideThroughFacade(t *testing.T) {
	app := newApp(t)
	if err := app.Repo().OverrideQuery("volumeData",
		"SELECT t.oid, t.title, t.year FROM volume t WHERE t.oid = ? -- tuned"); err != nil {
		t.Fatal(err)
	}
	rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", "")
	if rr.Code != http.StatusOK || !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("tuned query broken: %d\n%s", rr.Code, body)
	}
}

// TestQueryOverrideMappedColumns: a hand-tuned query that reorders its
// columns and selects one more than the unit shows yields the beans and
// the page of the generated query — the bean maps its fields by name —
// and a scroller's count is its own query, so its Total does not move.
func TestQueryOverrideMappedColumns(t *testing.T) {
	app := newApp(t)
	repo, local := app.Repo(), app.LocalBusiness()
	beans := func() map[string]*mvc.UnitBean {
		out := map[string]*mvc.UnitBean{}
		for unit, in := range map[string]map[string]mvc.Value{
			"volumeData":  {"volume": int64(1)},
			"searchIndex": {"kw": "a", "offset": int64(0)},
		} {
			b, err := local.ComputeUnit(context.Background(), repo.Unit(unit), in)
			if err != nil {
				t.Fatal(err)
			}
			out[unit] = b
		}
		return out
	}
	pages := func() string {
		var b strings.Builder
		for _, path := range []string{"/page/volumePage?volume=1", "/page/searchResults?kw=a"} {
			rr, body := request(t, app.Handler(), path, "")
			if rr.Code != http.StatusOK {
				t.Fatalf("%s: status %d", path, rr.Code)
			}
			b.WriteString(body)
		}
		return b.String()
	}
	wantBeans, wantPages := beans(), pages()
	if n := len(wantBeans["searchIndex"].Nodes); n == 0 || wantBeans["searchIndex"].Total != n {
		t.Fatalf("generated scroller: %d nodes, Total %d", n, wantBeans["searchIndex"].Total)
	}
	for unit, query := range map[string]string{
		"volumeData":  "SELECT t.year, t.oid, t.title, t.year AS extra FROM volume t WHERE t.oid = ?",
		"searchIndex": "SELECT t.pages, t.abstract, t.title, t.oid FROM paper t WHERE t.title LIKE ? ORDER BY t.title ASC LIMIT 10 OFFSET ?",
	} {
		if err := repo.OverrideQuery(unit, query); err != nil {
			t.Fatal(err)
		}
	}
	gotBeans := beans()
	for unit, want := range wantBeans {
		got := gotBeans[unit]
		if !reflect.DeepEqual(got.Nodes, want.Nodes) || got.Total != want.Total {
			t.Errorf("%s: overridden bean %+v (Total %d), want %+v (Total %d)", unit, got.Nodes, got.Total, want.Nodes, want.Total)
		}
	}
	if got := pages(); got != wantPages {
		t.Errorf("pages differ after the override:\n%s\nwant:\n%s", got, wantPages)
	}
}

// TestQueryOverrideRefusesUnparsableSQL: an override the data tier
// cannot parse is refused with the positioned syntax error, the unit
// keeps its query, and the page still serves.
func TestQueryOverrideRefusesUnparsableSQL(t *testing.T) {
	app := newApp(t)
	before := app.Repo().Unit("volumeData").Query
	err := app.Repo().OverrideQuery("volumeData", "SELECT DISTINCT t.oid FROM volume t WHERE t.oid = ?")
	var se *rdb.SyntaxError
	if !errors.As(err, &se) || se.Pos != len("SELECT ") {
		t.Fatalf("override: err = %v, want a syntax error at DISTINCT", err)
	}
	if got := app.Repo().Unit("volumeData").Query; got != before {
		t.Fatalf("refused override swapped the query to %q", got)
	}
	rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", "")
	if rr.Code != http.StatusOK || !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("page after a refused override: %d\n%s", rr.Code, body)
	}
}

// TestQueryOverrideRefusesUnplannableSQL: an override that parses but
// that the data tier cannot plan against its schema is refused with the
// planner's error, the unit keeps its query, and the page still serves.
func TestQueryOverrideRefusesUnplannableSQL(t *testing.T) {
	app := newApp(t)
	before := app.Repo().Unit("volumeData").Query
	err := app.Repo().OverrideQuery("volumeData", "SELECT t.oid, t.nosuch FROM volume t WHERE t.oid = ?")
	if err == nil || !strings.Contains(err.Error(), `no column "nosuch"`) {
		t.Fatalf("override: err = %v, want the planner's unknown-column error", err)
	}
	if got := app.Repo().Unit("volumeData").Query; got != before {
		t.Fatalf("refused override swapped the query to %q", got)
	}
	rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", "")
	if rr.Code != http.StatusOK || !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("page after a refused override: %d\n%s", rr.Code, body)
	}
}

// TestQueryOverrideDuringWrites: overrides plan their SQL against the
// data tier while operations hold its write lock and read descriptors;
// neither waits on the other, and every request still succeeds.
func TestQueryOverrideDuringWrites(t *testing.T) {
	app := newApp(t)
	h := app.Handler()
	queries := []string{
		"SELECT t.oid, t.title, t.year FROM volume t WHERE t.oid = ? -- tuned a",
		"SELECT t.oid, t.title, t.year FROM volume t WHERE t.oid = ? -- tuned b",
	}
	done := make(chan struct{})
	errs := make(chan string, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, path := range []string{
					fmt.Sprintf("/op/createVolume?title=O%dI%d&year=2001", g, i),
					"/page/volumePage?volume=1",
				} {
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
					if rr.Code >= 500 {
						errs <- fmt.Sprintf("%s -> %d: %s", path, rr.Code, rr.Body.String())
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := app.Repo().OverrideQuery("volumeData", queries[i%2]); err != nil {
				errs <- err.Error()
			}
		}
	}()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("overrides and writes did not finish: deadlock")
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n, err := app.DB.RowCount("volume"); err != nil || n != 102 {
		t.Fatalf("volumes = %d err = %v, want 2 seeded + 100 created", n, err)
	}
}

func TestWithDatabaseReuse(t *testing.T) {
	first := newApp(t)
	// Second app over the same data, skipping DDL.
	second, err := New(fixture.Figure1Model(), WithDatabase(first.DB))
	if err != nil {
		t.Fatal(err)
	}
	_, body := request(t, second.Handler(), "/page/volumesPage", "")
	if !strings.Contains(body, "TODS Volume 27") {
		t.Fatal("shared database not visible")
	}
}

func TestPluginEndToEnd(t *testing.T) {
	// A plug-in unit: declared in the design environment, given a
	// runtime service and a rendition tag (Section 7's plug-in units).
	if err := RegisterPlugin(PluginSpec{Kind: "clock", Description: "server time"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { webml.UnregisterPlugin("clock") })

	b := NewBuilder("plugged", fixture.ACMSchema())
	pb := b.SiteView("sv", "SV").Page("home", "Home")
	pb.Index("volIdx", "Volume", "Title")
	pb.Plugin("clock1", "clock", map[string]string{"zone": "UTC"})
	model, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	app.LocalBusiness().RegisterUnitService("clock", mvc.UnitServiceFunc(
		func(_ context.Context, _ *rdb.DB, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			zone, _ := d.Prop("zone")
			return &mvc.UnitBean{UnitID: d.ID, Kind: d.Kind,
				Props: map[string]string{"zone": zone}}, nil
		}))
	app.Renderer.RegisterTag("clock", func(_ *render.Context, w *bytes.Buffer, bean *mvc.UnitBean) {
		w.WriteString(`<div class="clock">` + bean.Props["zone"] + `</div>`)
	})
	rr, body := request(t, app.Handler(), "/page/home", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, body)
	}
	if !strings.Contains(body, `<div class="clock">UTC</div>`) {
		t.Fatalf("plug-in rendition missing:\n%s", body)
	}
}

// TestWithRemotePages drives the "Page EJBs" deployment of Figure 6: the
// whole page computation happens in the application server, one round
// trip per page.
func TestWithRemotePages(t *testing.T) {
	backend, err := New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixture.Seed(backend.DB); err != nil {
		t.Fatal(err)
	}
	ctr, addr, err := backend.DeployContainer(8, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()

	web, err := New(fixture.Figure1Model(), WithAppServer(addr), WithRemotePages())
	if err != nil {
		t.Fatal(err)
	}
	defer web.Remote.Close()
	served0 := ctr.Metrics().Served
	rr, body := request(t, web.Handler(), "/page/volumePage?volume=1", "")
	if rr.Code != http.StatusOK || !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("remote page broken: %d\n%s", rr.Code, body)
	}
	// One container invocation for the whole 3-unit page.
	if got := ctr.Metrics().Served - served0; got != 1 {
		t.Fatalf("container served %d calls for one page, want 1", got)
	}
	// Without WithAppServer the option is rejected.
	if _, err := New(fixture.Figure1Model(), WithRemotePages()); err == nil {
		t.Fatal("WithRemotePages without WithAppServer accepted")
	}
	// Degraded serving answers from the bean cache: without one it is
	// rejected, not silently ignored.
	if _, err := New(fixture.Figure1Model(), WithDegradedServing(time.Minute)); err == nil ||
		err.Error() != "webmlgo: WithDegradedServing requires WithBeanCache" {
		t.Fatalf("WithDegradedServing without WithBeanCache: err %v", err)
	}
}

func TestSiteViewStyles(t *testing.T) {
	app := newApp(t, WithCompiledStyle(&StyleRuleSet{SiteViews: map[string]*StyleRuleSet{
		"public": B2CStyle(),
		"admin":  IntranetStyle(),
	}}))
	_, pub := request(t, app.Handler(), "/page/volumesPage", "")
	if !strings.Contains(pub, `data-style="b2c"`) {
		t.Fatalf("public site view not b2c-styled:\n%s", pub)
	}
	// Admin pages carry the intranet style (check the page's compiled
	// program: the page itself needs auth). The stored template stays the
	// generated skeleton.
	pd := app.Repo().Page("managePage")
	out, err := app.Renderer.RenderContainer(pd, &mvc.RequestContext{})
	if err != nil || !strings.Contains(string(out), `data-style="intranet"`) {
		t.Fatalf("admin page not intranet-styled (err %v):\n%s", err, out)
	}
	if tpl, _ := app.Repo().Template(pd.Template); strings.Contains(tpl, "data-style") {
		t.Fatalf("stored template was styled:\n%s", tpl)
	}
}

// TestOperationChainWithExplicitForwarding drives a create -> connect
// operation chain where the OK link of the first operation maps its
// outputs onto the second operation's inputs (Section 3's "operations...
// activated from the application pages" composed via OK links).
func TestOperationChainWithExplicitForwarding(t *testing.T) {
	schema := &Schema{
		Entities: []*Entity{
			{Name: "Product", Attributes: []Attribute{{Name: "Name", Type: String, Required: true}}},
			{Name: "Family", Attributes: []Attribute{{Name: "Name", Type: String, Required: true}}},
		},
		Relationships: []*Relationship{
			{Name: "FamilyToProduct", From: "Family", To: "Product",
				FromRole: "FamilyToProduct", ToRole: "ProductToFamily",
				FromCard: Many, ToCard: One},
		},
	}
	b := NewBuilder("chain", schema)
	sv := b.SiteView("sv", "SV")
	manage := sv.Page("manage", "Manage")
	form := manage.Entry("form",
		Field{Name: "name", Type: String, Required: true},
		Field{Name: "family", Type: Int, Required: true})
	create := b.Operation("createProduct", CreateUnit, "Product")
	create.Set = map[string]string{"Name": "name"}
	b.Link(form.ID, create.ID, P("name", "name"), P("family", "family"))
	attach := b.Connect("attach", "FamilyToProduct")
	// Explicit forwarding: the created OID becomes "to", the request's
	// family parameter becomes "from".
	b.OK(create.ID, attach.ID, P("oid", "to"), P("family", "from"))
	b.KO(create.ID, manage.Ref())
	b.OK(attach.ID, manage.Ref())

	app, err := New(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.DB.Exec(`INSERT INTO family (name) VALUES ('Notebooks')`); err != nil {
		t.Fatal(err)
	}
	rr, _ := request(t, app.Handler(), "/op/createProduct?name=TM100&family=1", "")
	if rr.Code != http.StatusFound {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body.String())
	}
	loc := rr.Header().Get("Location")
	if !strings.HasPrefix(loc, "/page/manage") || strings.Contains(loc, "_error") {
		t.Fatalf("redirect = %q", loc)
	}
	m, err := app.DB.QueryRow(`SELECT fk_familytoproduct FROM product WHERE name = 'TM100'`)
	if err != nil || m == nil {
		t.Fatalf("product missing: %v %v", m, err)
	}
	if m["fk_familytoproduct"] != int64(1) {
		t.Fatalf("chain did not connect: %v", m)
	}
	// A failing second hop follows the chain's KO handling.
	rr2, _ := request(t, app.Handler(), "/op/createProduct?name=TM200&family=99", "")
	loc2 := rr2.Header().Get("Location")
	if !strings.Contains(loc2, "_error=") {
		t.Fatalf("expected KO redirect, got %q", loc2)
	}
}

// TestConcurrentMixedLoad hammers the full stack (both cache levels on)
// with parallel readers and writers; every response must be coherent
// (200/302/304, never 5xx) and the final state consistent.
func TestConcurrentMixedLoad(t *testing.T) {
	app := newApp(t, WithBeanCache(4096), WithEdgeCache(4096, time.Minute))
	defer app.Close()
	h := app.Handler()
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var path string
				switch i % 4 {
				case 0:
					path = "/page/volumesPage"
				case 1:
					path = "/page/volumePage?volume=1"
				case 2:
					path = "/page/searchResults?kw=web"
				default:
					path = fmt.Sprintf("/op/createVolume?title=G%dI%d&year=2000", g, i)
				}
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Code >= 500 {
					errs <- fmt.Sprintf("%s -> %d: %s", path, rr.Code, rr.Body.String())
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// 8 goroutines x 10 creates each + 2 seeded volumes.
	n, err := app.DB.RowCount("volume")
	if err != nil || n != 82 {
		t.Fatalf("volumes = %d err = %v", n, err)
	}
	// A final read reflects every write (no stale caches).
	_, body := request(t, app.Handler(), "/page/volumesPage", "")
	if !strings.Contains(body, "G7I39") {
		t.Fatal("final state not visible")
	}
}
