package mvc_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/edge"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/render"
)

// buildApp assembles the full fixture application: model -> generated
// artifacts -> seeded database -> controller with the real renderer.
func buildApp(t *testing.T, withBeanCache bool) (*mvc.Controller, *rdb.DB, *cache.BeanCache) {
	t.Helper()
	art, db := figure1(t)
	var business mvc.Business = mvc.NewLocalBusiness(db)
	var beans *cache.BeanCache
	if withBeanCache {
		beans = cache.NewBeanCache(0)
		business = mvc.NewCachedBusiness(business, beans)
	}
	return mvc.NewController(art.Repo, business, render.NewEngine(art.Repo)), db, beans
}

// figure1 generates the fixture model's artifacts and seeds a database
// with their DDL.
func figure1(t *testing.T) (*codegen.Artifacts, *rdb.DB) {
	t.Helper()
	g, err := codegen.New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	db := rdb.Open()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("DDL: %v", err)
		}
	}
	if err := fixture.Seed(db); err != nil {
		t.Fatal(err)
	}
	return art, db
}

// levelSpy stands between the bean cache and the local business tier and
// records the width of every level that reaches it as one call.
type levelSpy struct {
	inner  mvc.Business
	mu     sync.Mutex
	widths []int
}

func (s *levelSpy) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
	return s.inner.ComputeUnit(ctx, d, inputs)
}

func (s *levelSpy) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.OpResult, error) {
	return s.inner.ExecuteOperation(ctx, d, inputs)
}

func (s *levelSpy) ComputeUnits(ctx context.Context, calls []mvc.UnitCall) []mvc.UnitResult {
	s.mu.Lock()
	s.widths = append(s.widths, len(calls))
	s.mu.Unlock()
	return mvc.ComputeUnitsOf(ctx, s.inner, calls)
}

// TestLocalChainPassesLevelsDown: in the local placement a level walks
// the decorator chain as one batch, the path it takes over the remote
// stub. The widest level of the fixture's pages reaches a tier below the
// bean cache as one ComputeUnits call of that width.
func TestLocalChainPassesLevelsDown(t *testing.T) {
	art, db := figure1(t)
	page, width := "", 0
	for _, pd := range art.Repo.Pages() {
		s, err := art.Repo.Schedule(pd.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range s.Levels {
			if len(level) > width {
				page, width = pd.ID, len(level)
			}
		}
	}
	if width < 2 {
		t.Fatalf("the fixture's widest level holds %d units", width)
	}
	spy := &levelSpy{inner: mvc.NewLocalBusiness(db)}
	chain := &mvc.NotifyingBusiness{Inner: mvc.NewCachedBusiness(spy, cache.NewBeanCache(0))}
	ps := &mvc.PageService{Repo: art.Repo, Business: chain}
	request := map[string]mvc.Value{"volume": int64(1), "issue": int64(1), "paper": int64(1)}
	if _, err := ps.ComputePage(context.Background(), page, request, nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(spy.widths, width) {
		t.Fatalf("page %s: the spy saw level calls of widths %v, want one of %d", page, spy.widths, width)
	}
}

// get performs a request against the controller (or the edge in front of
// it) and returns the response and body.
func get(t *testing.T, h http.Handler, path string, cookies []*http.Cookie) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for _, c := range cookies {
		req.AddCookie(c)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.String()
}

func TestHomePageRendersVolumeIndex(t *testing.T) {
	ctl, _, _ := buildApp(t, false)
	rr, body := get(t, ctl, "/page/volumesPage", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, body)
	}
	if !strings.Contains(body, "TODS Volume 27") || !strings.Contains(body, "TODS Volume 26") {
		t.Fatalf("volumes missing:\n%s", body)
	}
	// The index entries must anchor to the volume page with the oid.
	if !strings.Contains(body, `href="/page/volumePage?volume=1"`) {
		t.Fatalf("anchor missing:\n%s", body)
	}
	// Ordering: year DESC puts volume 27 (2002) first.
	if strings.Index(body, "TODS Volume 27") > strings.Index(body, "TODS Volume 26") {
		t.Fatal("ORDER BY not respected")
	}
}

// TestVolumePageReproducesFigure1 is experiment E1: the ACM DL volume
// page with data unit, hierarchical Issues&Papers index, and entry unit.
func TestVolumePageReproducesFigure1(t *testing.T) {
	ctl, _, _ := buildApp(t, false)
	rr, body := get(t, ctl, "/page/volumePage?volume=1", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, body)
	}
	// Data unit: the volume's attributes.
	if !strings.Contains(body, "TODS Volume 27") || !strings.Contains(body, "2002") {
		t.Fatalf("volume data missing:\n%s", body)
	}
	// Hierarchical index: issues of volume 1 at level 0, their papers
	// nested at level 1 (computed through the transport link that carries
	// the volume OID from the data unit).
	for _, want := range []string{
		`class="webml-level-0"`, `class="webml-level-1"`,
		"Design Principles for Data-Intensive Web Sites",
		"Caching Dynamic Web Content",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q:\n%s", want, body)
		}
	}
	// Volume 2's paper must NOT appear (relationship scoping).
	if strings.Contains(body, "Views and Updates") {
		t.Fatal("paper of another volume leaked into the index")
	}
	// Papers anchor to the paper page.
	if !strings.Contains(body, `href="/page/paperPage?paper=`) {
		t.Fatalf("paper anchors missing:\n%s", body)
	}
	// Entry unit: keyword form targeting the search page with the mapped
	// parameter name.
	if !strings.Contains(body, `action="/page/searchResults"`) || !strings.Contains(body, `name="kw"`) {
		t.Fatalf("entry form missing:\n%s", body)
	}
}

func TestVolumePageWithoutParamRendersEmpty(t *testing.T) {
	ctl, _, _ := buildApp(t, false)
	rr, body := get(t, ctl, "/page/volumePage", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if !strings.Contains(body, "no content") {
		t.Fatalf("missing-input unit should render empty:\n%s", body)
	}
}

func TestScrollerSearchAndWindowing(t *testing.T) {
	ctl, db, _ := buildApp(t, false)
	// Add enough papers for two windows.
	for i := 0; i < 15; i++ {
		if _, err := db.Exec(`INSERT INTO paper (title, abstract, pages, fk_issuetopaper) VALUES (?, ?, ?, ?)`,
			"Web Paper "+string(rune('A'+i)), "x", 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	rr, body := get(t, ctl, "/page/searchResults?kw=web", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	// LIKE %web% matches the 15 new + 2 seeded with "Web"/"web" in title.
	if !strings.Contains(body, "of 17") {
		t.Fatalf("total missing:\n%s", body)
	}
	if !strings.Contains(body, ">next</a>") {
		t.Fatalf("next window anchor missing:\n%s", body)
	}
	// Second window.
	rr, body = get(t, ctl, "/page/searchResults?kw=web&offset=10", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if !strings.Contains(body, "11-17 of 17") {
		t.Fatalf("second window info wrong:\n%s", body)
	}
	if !strings.Contains(body, ">prev</a>") {
		t.Fatalf("prev anchor missing:\n%s", body)
	}
}

func TestOperationCreateRedirectsAndPersists(t *testing.T) {
	ctl, db, _ := buildApp(t, false)
	rr, _ := get(t, ctl, "/op/createVolume?title=New+Volume&year=2003", nil)
	if rr.Code != http.StatusFound {
		t.Fatalf("status = %d", rr.Code)
	}
	loc := rr.Header().Get("Location")
	if !strings.HasPrefix(loc, "/page/managePage") {
		t.Fatalf("redirect = %q", loc)
	}
	// The created OID is forwarded (pass-through forwarding).
	u, _ := url.Parse(loc)
	if u.Query().Get("oid") != "3" {
		t.Fatalf("oid not forwarded: %q", loc)
	}
	m, err := db.QueryRow(`SELECT title, year FROM volume WHERE oid = 3`)
	if err != nil || m == nil {
		t.Fatalf("row missing: %v %v", m, err)
	}
	if m["title"] != "New Volume" || m["year"] != int64(2003) {
		t.Fatalf("row = %v", m)
	}
}

// TestAnonymousOperationMintsNoSession: an operation without a session
// cookie that stores nothing in its session registers none and sets no
// cookie, so clients that never send one back leave nothing behind.
func TestAnonymousOperationMintsNoSession(t *testing.T) {
	ctl, db, _ := buildApp(t, false)
	for i := 0; i < 100; i++ {
		rr, _ := get(t, ctl, fmt.Sprintf("/op/createVolume?title=Anon+%d&year=2003", i), nil)
		if rr.Code != http.StatusFound {
			t.Fatalf("op %d: status %d", i, rr.Code)
		}
		if c := rr.Header().Values("Set-Cookie"); len(c) != 0 {
			t.Fatalf("op %d: Set-Cookie %q", i, c)
		}
	}
	if n := ctl.Sessions.Len(); n != 0 {
		t.Fatalf("100 anonymous operations left %d sessions, want 0", n)
	}
	if n, _ := db.RowCount("volume"); n != 102 {
		t.Fatalf("%d volumes after 100 creates over 2, want 102", n)
	}
}

func TestOperationValidationFailureFollowsKO(t *testing.T) {
	ctl, db, _ := buildApp(t, false)
	// volForm requires title; year must be an integer.
	rr, _ := get(t, ctl, "/op/createVolume?year=notanumber", nil)
	if rr.Code != http.StatusFound {
		t.Fatalf("status = %d", rr.Code)
	}
	loc := rr.Header().Get("Location")
	if !strings.Contains(loc, "_error=validation+failed") {
		t.Fatalf("redirect = %q", loc)
	}
	n, _ := db.RowCount("volume")
	if n != 2 {
		t.Fatalf("validation failure still wrote: %d volumes", n)
	}
	// The KO page redisplays the sticky value and the field errors; the
	// form state lives in the session, so reuse the cookie.
	cookies := rr.Result().Cookies()
	if len(cookies) != 1 || ctl.Sessions.Len() != 1 {
		t.Fatalf("a cookie-less operation failing validation set %d cookies and left %d sessions, want 1 and 1",
			len(cookies), ctl.Sessions.Len())
	}
	login(t, ctl, cookies)
	rr2, body := get(t, ctl, loc, cookies)
	if rr2.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr2.Code, body)
	}
	if !strings.Contains(body, "validation failed") {
		t.Fatalf("error banner missing:\n%s", body)
	}
	if !strings.Contains(body, `value="notanumber"`) {
		t.Fatalf("sticky value missing:\n%s", body)
	}
	if !strings.Contains(body, "must be an integer") || !strings.Contains(body, "required") {
		t.Fatalf("field errors missing:\n%s", body)
	}
}

func login(t *testing.T, ctl *mvc.Controller, cookies []*http.Cookie) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/login?user=admin", nil)
	for _, c := range cookies {
		req.AddCookie(c)
	}
	rr := httptest.NewRecorder()
	ctl.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("login status = %d", rr.Code)
	}
}

func TestProtectedSiteViewRequiresLogin(t *testing.T) {
	ctl, _, _ := buildApp(t, false)
	rr, _ := get(t, ctl, "/page/managePage", nil)
	if rr.Code != http.StatusUnauthorized {
		t.Fatalf("status = %d", rr.Code)
	}
	// A cookie-less 401 stores nothing, so the session comes from login.
	lw := httptest.NewRecorder()
	ctl.ServeHTTP(lw, httptest.NewRequest(http.MethodPost, "/login?user=admin", nil))
	cookies := lw.Result().Cookies()
	if len(cookies) == 0 {
		t.Fatal("no session cookie issued")
	}
	login(t, ctl, cookies)
	rr2, body := get(t, ctl, "/page/managePage", cookies)
	if rr2.Code != http.StatusOK {
		t.Fatalf("status after login = %d: %s", rr2.Code, body)
	}
	if !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("manage page content missing:\n%s", body)
	}
	// Logout revokes access.
	req := httptest.NewRequest(http.MethodPost, "/logout", nil)
	for _, c := range cookies {
		req.AddCookie(c)
	}
	rr3 := httptest.NewRecorder()
	ctl.ServeHTTP(rr3, req)
	rr4, _ := get(t, ctl, "/page/managePage", cookies)
	if rr4.Code != http.StatusUnauthorized {
		t.Fatalf("status after logout = %d", rr4.Code)
	}
}

func TestDeleteOperationAndKOOnMissingObject(t *testing.T) {
	ctl, db, _ := buildApp(t, false)
	rr, _ := get(t, ctl, "/op/deleteVolume?oid=2", nil)
	if rr.Code != http.StatusFound {
		t.Fatalf("status = %d", rr.Code)
	}
	n, _ := db.RowCount("volume")
	if n != 1 {
		t.Fatalf("volumes = %d", n)
	}
	// Deleting a ghost object follows the KO link with an error.
	rr2, _ := get(t, ctl, "/op/deleteVolume?oid=99", nil)
	loc := rr2.Header().Get("Location")
	if !strings.Contains(loc, "_error=") {
		t.Fatalf("KO redirect = %q", loc)
	}
}

func TestConnectOperation(t *testing.T) {
	ctl, db, _ := buildApp(t, false)
	rr, _ := get(t, ctl, "/op/tagPaper?from=2&to=2", nil)
	if rr.Code != http.StatusFound {
		t.Fatalf("status = %d", rr.Code)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM rel_paperkeyword WHERE from_oid = 2 AND to_oid = 2`)
	if err != nil || rows.Data[0][0].Value() != int64(1) {
		t.Fatalf("bridge row missing: %v %v", rows, err)
	}
}

func TestUnknownActionIs404(t *testing.T) {
	ctl, _, _ := buildApp(t, false)
	rr, _ := get(t, ctl, "/page/ghost", nil)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rr.Code)
	}
	rr2, _ := get(t, ctl, "/nothing", nil)
	if rr2.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rr2.Code)
	}
}

// TestBeanCacheServesRepeatsAndInvalidates is experiment E6's
// correctness half: repeated page computations hit the bean cache, and a
// write operation invalidates exactly the dependent beans.
func TestBeanCacheServesRepeatsAndInvalidates(t *testing.T) {
	ctl, _, beans := buildApp(t, true)
	get(t, ctl, "/page/volumePage?volume=1", nil)
	s0 := beans.Stats()
	if s0.Puts == 0 {
		t.Fatalf("no beans cached: %+v", s0)
	}
	get(t, ctl, "/page/volumePage?volume=1", nil)
	s1 := beans.Stats()
	if s1.Hits <= s0.Hits {
		t.Fatalf("second request missed the bean cache: %+v -> %+v", s0, s1)
	}
	// Different parameters are a different key.
	get(t, ctl, "/page/volumePage?volume=2", nil)

	// createVolume writes entity:volume -> volumeData beans must drop
	// (volumeData reads entity:volume); issuesPapers also reads
	// entity:issue + rel deps, and its cached beans read entity:volume?
	// No: issuesPapers reads entity:issue, rel:volumetoissue,
	// rel:issuetopaper, entity:paper. So creating a volume must NOT drop
	// it, but deleting a volume (writes rel:volumetoissue) must.
	before := beans.Len()
	get(t, ctl, "/op/createVolume?title=T&year=1", nil)
	afterCreate := beans.Len()
	if afterCreate >= before {
		t.Fatalf("create invalidated nothing: %d -> %d", before, afterCreate)
	}
	// Repopulate and check delete invalidates the hierarchical index too.
	get(t, ctl, "/page/volumePage?volume=1", nil)
	get(t, ctl, "/op/deleteVolume?oid=3", nil)
	if _, ok := beans.Get(cacheKeyForVolumeIndex()); ok {
		t.Fatal("issuesPapers bean survived a volume deletion")
	}
}

// cacheKeyForVolumeIndex rebuilds the bean-cache key the engine uses for
// the issuesPapers unit scoped to volume 1.
func cacheKeyForVolumeIndex() string {
	return cache.Key("issuesPapers", map[string]string{"parent": "1"})
}

// TestStaleReadNeverServed: after any write through an operation, the
// next page must reflect the write with both cache levels on — the bean
// cache and the ESI edge in front of the controller.
func TestStaleReadNeverServed(t *testing.T) {
	ctl, _, _ := buildApp(t, true)
	front := edge.New(ctl, 0, time.Minute)
	t.Cleanup(front.Close)
	ctl.EdgeFragments = true
	ctl.Business = &mvc.NotifyingBusiness{Inner: ctl.Business, OnWrite: func(tags []string) { front.Invalidate(tags...) }}

	_, body := get(t, front, "/page/volumesPage", nil)
	if strings.Contains(body, "Fresh Volume") {
		t.Fatal("phantom volume")
	}
	if rr, _ := get(t, front, "/page/volumesPage", nil); rr.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("repeat X-Cache = %q, want HIT", rr.Header().Get("X-Cache"))
	}
	get(t, front, "/op/createVolume?title=Fresh+Volume&year=2004", nil)
	_, body = get(t, front, "/page/volumesPage", nil)
	if !strings.Contains(body, "Fresh Volume") {
		t.Fatalf("stale page served after write:\n%s", body)
	}
}

// TestCustomComponentOverride exercises Section 6's second override
// mechanism: the descriptor's Service attribute routes the unit to a
// user-supplied business component that fully replaces the generic one.
func TestCustomComponentOverride(t *testing.T) {
	g, err := codegen.New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	db := rdb.Open()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := fixture.Seed(db); err != nil {
		t.Fatal(err)
	}
	if err := art.Repo.OverrideService("volumeData", "tuned.VolumeData"); err != nil {
		t.Fatal(err)
	}
	lb := mvc.NewLocalBusiness(db)
	called := false
	lb.Custom["tuned.VolumeData"] = mvc.UnitServiceFunc(
		func(_ context.Context, _ *rdb.DB, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			called = true
			return &mvc.UnitBean{
				UnitID: d.ID, Kind: d.Kind, Fields: []string{"Title"},
				Nodes: []mvc.Node{{Values: mvc.MustCells("optimized!")}},
			}, nil
		})
	ctl := mvc.NewController(art.Repo, lb, render.NewEngine(art.Repo))
	rr, body := get(t, ctl, "/page/volumePage?volume=1", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, body)
	}
	if !called {
		t.Fatal("custom component not invoked")
	}
	if !strings.Contains(body, "optimized!") {
		t.Fatalf("custom bean not rendered:\n%s", body)
	}
	// Unknown custom component is a hard error.
	if err := art.Repo.OverrideService("paperData", "ghost.Component"); err != nil {
		t.Fatal(err)
	}
	rr2, _ := get(t, ctl, "/page/paperPage?paper=1", nil)
	if rr2.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rr2.Code)
	}
}

// TestMultichoiceFanOut: a multichoice selection submits one parameter
// with multiple values; the connect operation applies once per value.
func TestMultichoiceFanOut(t *testing.T) {
	ctl, db, _ := buildApp(t, false)
	// Tag papers 1, 2 and 4 with keyword 2 in a single request.
	rr, _ := get(t, ctl, "/op/tagPaper?from=1&from=2&from=4&to=2", nil)
	if rr.Code != http.StatusFound {
		t.Fatalf("status = %d", rr.Code)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM rel_paperkeyword WHERE to_oid = 2`)
	if err != nil {
		t.Fatal(err)
	}
	// 1 seeded (paper 3) + 3 new.
	if rows.Data[0][0].Value() != int64(4) {
		t.Fatalf("bridge rows = %v", rows.Data[0][0].Value())
	}
}

// TestMultichoiceFanOutStopsOnFailure: a failing element follows KO and
// aborts the remainder of the fan-out.
func TestMultichoiceFanOutStopsOnFailure(t *testing.T) {
	ctl, db, _ := buildApp(t, false)
	// Paper 99 violates the bridge FK; 1 succeeds first, 4 never runs.
	rr, _ := get(t, ctl, "/op/tagPaper?from=1&from=99&from=4&to=2", nil)
	if rr.Code != http.StatusFound {
		t.Fatalf("status = %d", rr.Code)
	}
	loc := rr.Header().Get("Location")
	if !strings.Contains(loc, "_error=") {
		t.Fatalf("KO redirect expected, got %q", loc)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM rel_paperkeyword WHERE from_oid = 4 AND to_oid = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Value() != int64(0) {
		t.Fatal("fan-out continued past a failure")
	}
}

// TestPanickingCustomComponentBecomes500: a faulty user-supplied
// component must not take the Controller down.
func TestPanickingCustomComponentBecomes500(t *testing.T) {
	g, err := codegen.New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	db := rdb.Open()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := fixture.Seed(db); err != nil {
		t.Fatal(err)
	}
	if err := art.Repo.OverrideService("volumeData", "buggy"); err != nil {
		t.Fatal(err)
	}
	lb := mvc.NewLocalBusiness(db)
	lb.Custom["buggy"] = mvc.UnitServiceFunc(
		func(_ context.Context, _ *rdb.DB, _ *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			panic("component bug")
		})
	ctl := mvc.NewController(art.Repo, lb, render.NewEngine(art.Repo))
	rr, body := get(t, ctl, "/page/volumePage?volume=1", nil)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d: %s", rr.Code, body)
	}
	if !strings.Contains(body, "component bug") {
		t.Fatalf("panic cause hidden:\n%s", body)
	}
	// The controller survives: other pages still serve.
	rr2, _ := get(t, ctl, "/page/volumesPage", nil)
	if rr2.Code != http.StatusOK {
		t.Fatalf("controller did not survive: %d", rr2.Code)
	}
}

// TestConditionalGET: unchanged pages revalidate with 304.
func TestConditionalGET(t *testing.T) {
	ctl, db, _ := buildApp(t, false)
	rr, _ := get(t, ctl, "/page/volumesPage", nil)
	etag := rr.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag issued")
	}
	req := httptest.NewRequest(http.MethodGet, "/page/volumesPage", nil)
	req.Header.Set("If-None-Match", etag)
	rr2 := httptest.NewRecorder()
	ctl.ServeHTTP(rr2, req)
	if rr2.Code != http.StatusNotModified {
		t.Fatalf("status = %d", rr2.Code)
	}
	if rr2.Body.Len() != 0 {
		t.Fatal("304 carried a body")
	}
	// Content change -> new ETag -> full response.
	if _, err := db.Exec(`UPDATE volume SET title = 'Renamed' WHERE oid = 1`); err != nil {
		t.Fatal(err)
	}
	rr3 := httptest.NewRecorder()
	ctl.ServeHTTP(rr3, req)
	if rr3.Code != http.StatusOK {
		t.Fatalf("status after change = %d", rr3.Code)
	}
	if rr3.Header().Get("ETag") == etag {
		t.Fatal("ETag did not change with content")
	}
}
