package webmlgo

// Integration tests of the ESI surrogate edge tier (Section 6's
// last-generation web cache as a real HTTP tier in front of the MVC
// stack): byte equivalence with in-process rendering, model-driven
// purge exactness, and coherence under concurrent read/write traffic.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/ejb"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
)

// edgePages are the anonymous fixture pages the equivalence tests cover:
// data + nested relationship index + entry, plain index, and a scroller
// with query parameters.
var edgePages = []string{
	"/page/volumesPage",
	"/page/volumePage?volume=1",
	"/page/paperPage?paper=1",
	"/page/searchResults?kw=Query",
	"/page/volumePage?volume=1&_error=boom",
}

// TestEdgeAssemblyByteIdentical: for every covered page, the
// edge-assembled response equals the Controller's inline rendering byte
// for byte (and therefore carries the identical content-addressed ETag).
func TestEdgeAssemblyByteIdentical(t *testing.T) {
	edgeApp := newApp(t, WithEdgeCache(1024, time.Minute), WithBeanCache(4096))
	defer edgeApp.Edge.Close()
	plainApp := newApp(t)

	for _, path := range edgePages {
		for _, pass := range []string{"miss", "hit"} {
			rr, assembled := request(t, edgeApp.Handler(), path, "")
			if rr.Code != http.StatusOK {
				t.Fatalf("%s [%s]: edge status %d", path, pass, rr.Code)
			}
			inlineRR, inline := request(t, plainApp.Handler(), path, "")
			if inlineRR.Code != http.StatusOK {
				t.Fatalf("%s: inline status %d", path, inlineRR.Code)
			}
			if assembled != inline {
				t.Fatalf("%s [%s]: edge-assembled page differs from inline rendering\nedge:   %q\ninline: %q",
					path, pass, assembled, inline)
			}
			sameValidator(t, path+" ["+pass+"]", rr, inlineRR)
		}
	}
}

// sameValidator fails unless the edge's response carries the inline
// render's ETag and a Content-Length equal to its body's length.
func sameValidator(t *testing.T, what string, edge, inline *httptest.ResponseRecorder) {
	t.Helper()
	if et, it := edge.Header().Get("ETag"), inline.Header().Get("ETag"); et == "" || et != it {
		t.Fatalf("%s: ETag %q != inline ETag %q", what, et, it)
	}
	if cl, n := edge.Header().Get("Content-Length"), edge.Body.Len(); cl != strconv.Itoa(n) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", what, cl, n)
	}
}

// TestEdgeAssemblyByteIdenticalRuntimeStyle repeats the equivalence
// check with per-request presentation rules: each device variant must
// assemble to exactly its own inline rendering.
func TestEdgeAssemblyByteIdenticalRuntimeStyle(t *testing.T) {
	edgeApp := newApp(t, WithEdgeCache(1024, time.Minute), WithCompiledStyle(MultiDevice(B2CStyle())))
	defer edgeApp.Edge.Close()
	plainApp := newApp(t, WithCompiledStyle(MultiDevice(B2CStyle())))

	for _, ua := range []string{"Mozilla/5.0 (X11; Linux)", "Mozilla/5.0 (iPhone; Mobile)"} {
		for _, path := range []string{"/page/volumePage?volume=1", "/page/volumesPage"} {
			rr, assembled := request(t, edgeApp.Handler(), path, ua)
			inlineRR, inline := request(t, plainApp.Handler(), path, ua)
			if assembled != inline {
				t.Fatalf("%s (%s): edge-assembled page differs from inline rendering", path, ua)
			}
			sameValidator(t, path+" ("+ua+")", rr, inlineRR)
		}
	}
	// The mobile variant must actually differ from desktop (the styler
	// dispatched), or the Vary coverage above proves nothing.
	_, desktop := request(t, edgeApp.Handler(), "/page/volumePage?volume=1", "Mozilla/5.0 (X11; Linux)")
	_, mobile := request(t, edgeApp.Handler(), "/page/volumePage?volume=1", "Mozilla/5.0 (iPhone; Mobile)")
	if desktop == mobile {
		t.Fatal("desktop and mobile renderings are identical; styler not engaged")
	}
}

// TestEdgeWritePurgesExactlyDependents: an operation's write event
// purges the fragments reading the written entity and nothing else.
func TestEdgeWritePurgesExactlyDependents(t *testing.T) {
	app := newApp(t, WithEdgeCache(1024, time.Minute), WithBeanCache(4096))
	defer app.Edge.Close()
	h := app.Handler()

	_, before := request(t, h, "/page/volumesPage", "")
	request(t, h, "/page/paperPage?paper=1", "")
	paperHits := app.Edge.Stats().Hits

	rr, body := request(t, h, "/op/createVolume?title=Edge+Purge+Proof&year=2099", "")
	if rr.Code != http.StatusFound {
		t.Fatalf("operation status %d: %s", rr.Code, body)
	}

	_, after := request(t, h, "/page/volumesPage", "")
	if after == before {
		t.Fatal("volumesPage unchanged after createVolume: stale fragment served")
	}
	if !strings.Contains(after, "Edge Purge Proof") {
		t.Fatalf("new volume missing from purged page:\n%s", after)
	}

	// paperPage depends on entity:paper / entity:keyword only — its
	// fragments must have survived the volume write.
	rr, _ = request(t, h, "/page/paperPage?paper=1", "")
	if rr.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("paperPage X-Cache = %q after unrelated write, want HIT", rr.Header().Get("X-Cache"))
	}
	if app.Edge.Stats().Hits <= paperHits {
		t.Fatal("paperPage did not hit the edge cache after an unrelated write")
	}
}

// TestEdgeHTTPInvalidateEndpoint covers the out-of-process purge
// channel end to end against a real application.
func TestEdgeHTTPInvalidateEndpoint(t *testing.T) {
	app := newApp(t, WithEdgeCache(1024, time.Minute))
	defer app.Edge.Close()
	h := app.Handler()

	request(t, h, "/page/volumesPage", "")
	req := httptest.NewRequest(http.MethodPost, "/edge/invalidate", strings.NewReader("tags=entity:volume"))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "purged 1") {
		t.Fatalf("invalidate endpoint: %d %q", rr.Code, rr.Body.String())
	}
	// The page container (data-independent) survives, but the purged
	// fragment must miss and refetch on the next request.
	misses := app.Edge.Stats().Misses
	request(t, h, "/page/volumesPage", "")
	if app.Edge.Stats().Misses != misses+1 {
		t.Fatal("fragment served from cache after HTTP purge")
	}
}

// TestEdgeHTTPInvalidateObjectTag: an object tag purges exactly the
// object-grain fragments that show the row — volume 1's data unit and
// the issues index whose cone computed it — and leaves volume 2's page
// and the entity-grain volume list cached.
func TestEdgeHTTPInvalidateObjectTag(t *testing.T) {
	app := newApp(t, WithEdgeCache(1024, time.Minute))
	defer app.Edge.Close()
	h := app.Handler()
	for _, p := range []string{"/page/volumePage?volume=1", "/page/volumePage?volume=2", "/page/volumesPage"} {
		request(t, h, p, "")
	}
	req := httptest.NewRequest(http.MethodPost, "/edge/invalidate",
		strings.NewReader(url.Values{"tags": {"entity:volume#1"}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || rr.Body.String() != "purged 2\n" {
		t.Fatalf("invalidate endpoint: %d %q, want purged 2", rr.Code, rr.Body.String())
	}
	for _, f := range []string{"/fragment/volumePage/volumeData?volume=1", "/fragment/volumePage/issuesPapers?volume=1"} {
		if _, ok := app.Edge.Store.Get(f); ok {
			t.Errorf("%s survived the purge of the row it shows", f)
		}
	}
	misses := app.Edge.Stats().Misses
	request(t, h, "/page/volumePage?volume=2", "")
	request(t, h, "/page/volumesPage", "")
	if app.Edge.Stats().Misses != misses {
		t.Fatal("a fragment that does not show volume 1 was purged")
	}
	request(t, h, "/page/volumePage?volume=1", "")
	if got := app.Edge.Stats().Misses - misses; got != 2 {
		t.Fatalf("volume 1's page refetched %d fragments, want 2", got)
	}
}

// TestEdgeCoherenceUnderConcurrentWrites is the stale-while-revalidate
// hammer: with a tiny TTL (so stale serving and background refresh are
// constantly exercised) and readers hammering the page, every write must
// be visible to the first read that starts after its response — no
// fragment older than its purge is ever served. Run with -race.
func TestEdgeCoherenceUnderConcurrentWrites(t *testing.T) {
	app := newApp(t, WithEdgeCache(1024, 20*time.Millisecond), WithBeanCache(4096))
	defer app.Edge.Close()
	h := app.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rr, _ := request(t, h, "/page/volumesPage", "")
				if rr.Code != http.StatusOK {
					t.Errorf("reader status %d", rr.Code)
					return
				}
			}
		}()
	}

	for k := 0; k < 25; k++ {
		title := fmt.Sprintf("HammerVol%03d", k)
		rr, body := request(t, h, "/op/createVolume?title="+title+"&year=2100", "")
		if rr.Code != http.StatusFound {
			t.Fatalf("write %d status %d: %s", k, rr.Code, body)
		}
		// The write's purge has run (the bus fires before the operation
		// response is written): the very next read must see it.
		_, page := request(t, h, "/page/volumesPage", "")
		if !strings.Contains(page, title) {
			t.Fatalf("read after write %d misses %s: stale fragment outlived its purge", k, title)
		}
	}
	close(stop)
	wg.Wait()
}

// TestEdgeSessionTrafficBypasses: cookie-carrying requests never touch
// the edge cache, and edge fetches mint no server-side sessions.
func TestEdgeSessionTrafficBypasses(t *testing.T) {
	app := newApp(t, WithEdgeCache(1024, time.Minute))
	defer app.Edge.Close()
	h := app.Handler()

	request(t, h, "/page/volumePage?volume=1", "")
	if n := app.Controller.Sessions.Len(); n != 0 {
		t.Fatalf("edge-served anonymous request minted %d sessions", n)
	}

	req := httptest.NewRequest(http.MethodGet, "/page/volumePage?volume=1", nil)
	req.AddCookie(&http.Cookie{Name: "WSESSION", Value: "s1"})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Header().Get("X-Cache") != "" {
		t.Fatalf("session-bound request went through the edge cache (X-Cache %q)", rr.Header().Get("X-Cache"))
	}
	if n := app.Controller.Sessions.Len(); n != 1 {
		t.Fatalf("cookie-carrying request should resolve a session (got %d)", n)
	}
}

// TestPageCacheHeaders covers the Vary/Cache-Control satellite: runtime
// styling must announce Vary: User-Agent, anonymous pages revalidate
// via ETag, and session-bound pages are uncacheable.
func TestPageCacheHeaders(t *testing.T) {
	styled := newApp(t, WithCompiledStyle(MultiDevice(B2CStyle())))
	rr, _ := request(t, styled.Handler(), "/page/volumePage?volume=1", "Mozilla/5.0 (X11; Linux)")
	if v := rr.Header().Get("Vary"); v != "User-Agent" {
		t.Fatalf("runtime-styled page Vary = %q, want User-Agent", v)
	}
	if cc := rr.Header().Get("Cache-Control"); cc != "public, max-age=0, must-revalidate" {
		t.Fatalf("anonymous page Cache-Control = %q", cc)
	}

	plain := newApp(t)
	rr, _ = request(t, plain.Handler(), "/page/volumePage?volume=1", "")
	if v := rr.Header().Get("Vary"); v != "" {
		t.Fatalf("compile-time-styled page Vary = %q, want none", v)
	}

	// A logged-in session makes the same page private.
	login := httptest.NewRequest(http.MethodPost, "/login?user=alice", nil)
	lw := httptest.NewRecorder()
	plain.Handler().ServeHTTP(lw, login)
	var sessionCookie *http.Cookie
	for _, c := range lw.Result().Cookies() {
		if c.Name == "WSESSION" {
			sessionCookie = c
		}
	}
	if sessionCookie == nil {
		t.Fatal("login set no session cookie")
	}
	req := httptest.NewRequest(http.MethodGet, "/page/volumePage?volume=1", nil)
	req.AddCookie(sessionCookie)
	rr = httptest.NewRecorder()
	plain.Handler().ServeHTTP(rr, req)
	if cc := rr.Header().Get("Cache-Control"); cc != "private, no-store" {
		t.Fatalf("logged-in page Cache-Control = %q, want private, no-store", cc)
	}
}

// TestFragmentEndpointHeaders: fragment responses carry the surrogate
// policy derived from the unit descriptor and are browser-uncacheable.
func TestFragmentEndpointHeaders(t *testing.T) {
	app := newApp(t, WithEdgeCache(1024, time.Minute))
	defer app.Edge.Close()
	app.Repo().Unit("volumeData").Cache.TTLSeconds = 120

	req := httptest.NewRequest(http.MethodGet, "/fragment/volumePage/volumeData?volume=1", nil)
	req.Header.Set("Surrogate-Capability", `webmlgo="ESI/1.0"`)
	rr := httptest.NewRecorder()
	app.Controller.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("fragment status %d: %s", rr.Code, rr.Body.String())
	}
	if sc := rr.Header().Get("Surrogate-Control"); sc != "max-age=120" {
		t.Fatalf("Surrogate-Control = %q, want max-age=120 from the descriptor TTL", sc)
	}
	if deps := rr.Header().Get("X-Webml-Deps"); !strings.Contains(deps, "entity:volume") {
		t.Fatalf("X-Webml-Deps = %q, want entity:volume", deps)
	}
	if cc := rr.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("fragment Cache-Control = %q, want no-store (surrogate-internal)", cc)
	}
	if !strings.Contains(rr.Body.String(), "TODS Volume 27") {
		t.Fatalf("fragment body missing unit content:\n%s", rr.Body.String())
	}

	// Protected pages never decompose into shared fragments.
	req = httptest.NewRequest(http.MethodGet, "/fragment/managePage/manageIndex", nil)
	rr = httptest.NewRecorder()
	app.Controller.ServeHTTP(rr, req)
	if rr.Code != http.StatusUnauthorized {
		t.Fatalf("protected fragment status %d, want 401", rr.Code)
	}

	// Without the edge option the endpoints do not exist.
	plain := newApp(t)
	req = httptest.NewRequest(http.MethodGet, "/fragment/volumePage/volumeData?volume=1", nil)
	rr = httptest.NewRecorder()
	plain.Controller.ServeHTTP(rr, req)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("fragment endpoint without edge: status %d, want 404", rr.Code)
	}
}

// TestCacheMetricsSnapshot covers the observability satellite: both
// cache levels are visible from the facade when enabled, and only then.
func TestCacheMetricsSnapshot(t *testing.T) {
	app := newApp(t, WithEdgeCache(1024, time.Minute), WithBeanCache(4096))
	defer app.Edge.Close()
	h := app.Handler()
	request(t, h, "/page/volumePage?volume=1", "")
	request(t, h, "/page/volumePage?volume=1", "")

	cm := app.CacheMetrics()
	if cm.Bean == nil || cm.Edge == nil {
		t.Fatalf("enabled cache levels missing from snapshot: %+v", cm)
	}
	if cm.Edge.Puts == 0 {
		t.Fatal("edge tier recorded no puts")
	}
	if cm.Edge.Hits == 0 {
		t.Fatal("edge tier recorded no hits on the repeat request")
	}
	if cm.Bean.Puts == 0 {
		t.Fatal("bean cache recorded no puts")
	}

	plain := newApp(t)
	if cm := plain.CacheMetrics(); cm.Bean != nil || cm.Edge != nil {
		t.Fatalf("cache-less app reports stats: %+v", cm)
	}
	beanOnly := newApp(t, WithBeanCache(16))
	if cm := beanOnly.CacheMetrics(); cm.Bean == nil || cm.Edge != nil {
		t.Fatalf("bean-only app snapshot: %+v", cm)
	}
}

// countingUnits records the units a business computes.
type countingUnits struct {
	mvc.Business
	mu    sync.Mutex
	units []string
}

func (c *countingUnits) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
	c.mu.Lock()
	c.units = append(c.units, d.ID)
	c.mu.Unlock()
	return c.Business.ComputeUnit(ctx, d, inputs)
}

// take returns the sorted IDs computed since the last take.
func (c *countingUnits) take() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.units
	c.units = nil
	sort.Strings(out)
	return fmt.Sprint(out)
}

// countedInProcess is the fixture app with the edge tier, its in-process
// page service computing through a counting business.
func countedInProcess(t *testing.T) (*App, *countingUnits, *mvc.PageService) {
	app := newApp(t, WithEdgeCache(1024, time.Minute))
	ps := app.Controller.Pages.(*mvc.PageService)
	counted := &countingUnits{Business: ps.Business}
	ps.Business = counted
	ps.PageLat = obs.NewHistogramVec("webml_page_compute_seconds", "", "page")
	return app, counted, ps
}

// countedRemotePages is the fixture app with the edge tier as the web
// tier of a container whose page service computes through a counting
// business (WithAppServer + WithRemotePages).
func countedRemotePages(t *testing.T) (*App, *countingUnits, *mvc.PageService) {
	backend := newApp(t)
	counted := &countingUnits{Business: mvc.NewLocalBusiness(backend.DB)}
	ctr := ejb.NewContainer(counted, 8)
	ps := &mvc.PageService{Repo: backend.Repo(), Business: counted}
	ctr.DeployPages(ps)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctr.Close() }) //nolint:errcheck // test teardown
	web, err := New(fixture.Figure1Model(), WithAppServer(addr), WithRemotePages(), WithEdgeCache(1024, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(web.Close)
	return web, counted, ps
}

// fetchFragment requests one fragment from the controller as the edge
// does.
func fetchFragment(app *App, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Surrogate-Capability", `webmlgo="ESI/1.0"`)
	rr := httptest.NewRecorder()
	app.Controller.ServeHTTP(rr, req)
	return rr
}

// TestFragmentComputesItsCone: a fragment fill computes the unit and the
// units it takes transport-edge parameters from, in process and in the
// container alike, and is observed under its page's ID.
func TestFragmentComputesItsCone(t *testing.T) {
	for name, placement := range map[string]func(*testing.T) (*App, *countingUnits, *mvc.PageService){
		"in-process":   countedInProcess,
		"remote pages": countedRemotePages,
	} {
		t.Run(name, func(t *testing.T) {
			app, counted, ps := placement(t)
			for _, tc := range []struct{ path, computed, content string }{
				{"/fragment/volumePage/volumeData?volume=1", "[volumeData]", "TODS Volume 27"},
				{"/fragment/volumePage/issuesPapers?volume=1", "[issuesPapers volumeData]", "webml-index"},
				{"/fragment/volumePage/enterKeyword?volume=1", "[enterKeyword]", "<form"},
			} {
				rr := fetchFragment(app, tc.path)
				if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), tc.content) {
					t.Fatalf("%s: status %d, want 200 with %q:\n%s", tc.path, rr.Code, tc.content, rr.Body.String())
				}
				if got := counted.take(); got != tc.computed {
					t.Fatalf("%s computed %s, want %s", tc.path, got, tc.computed)
				}
			}
			// The whole page, rendered inline, computes every unit.
			if rr, _ := request(t, app.Controller, "/page/volumePage?volume=1", ""); rr.Code != http.StatusOK {
				t.Fatalf("inline page: status %d", rr.Code)
			}
			if got, want := counted.take(), "[enterKeyword issuesPapers volumeData]"; got != want {
				t.Fatalf("inline page computed %s, want %s", got, want)
			}
			var series []string
			for _, s := range ps.PageLat.Snapshot() {
				series = append(series, s.LabelValue)
			}
			if fmt.Sprint(series) != "[volumePage]" {
				t.Fatalf("page latency series %v, want one, volumePage", series)
			}
		})
	}
}

// TestFragmentOfUnitNotOnPage: a fragment of a unit that is not on the
// page, whether on another page or on none, is not found, and nothing is
// computed for it.
func TestFragmentOfUnitNotOnPage(t *testing.T) {
	app, counted, _ := countedInProcess(t)
	for _, path := range []string{
		"/fragment/volumePage/manageIndex",
		"/fragment/volumePage/nosuchunit?volume=1",
		"/fragment/volumePage/volumeData/extra?volume=1",
	} {
		if rr := fetchFragment(app, path); rr.Code != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404:\n%s", path, rr.Code, rr.Body.String())
		}
		if got := counted.take(); got != "[]" {
			t.Fatalf("%s computed %s, want nothing", path, got)
		}
	}
}

// TestEdgeAssemblyByteIdenticalRemotePages repeats the equivalence check
// with pages and fragments computed in a container.
func TestEdgeAssemblyByteIdenticalRemotePages(t *testing.T) {
	edgeApp, _, _ := countedRemotePages(t)
	plainApp := newApp(t)
	for _, path := range edgePages {
		for _, pass := range []string{"miss", "hit"} {
			rr, assembled := request(t, edgeApp.Handler(), path, "")
			inlineRR, inline := request(t, plainApp.Handler(), path, "")
			if rr.Code != http.StatusOK || inlineRR.Code != http.StatusOK {
				t.Fatalf("%s [%s]: edge status %d, inline status %d", path, pass, rr.Code, inlineRR.Code)
			}
			if assembled != inline {
				t.Fatalf("%s [%s]: edge-assembled page differs from inline rendering\nedge:   %q\ninline: %q",
					path, pass, assembled, inline)
			}
			sameValidator(t, path+" ["+pass+"]", rr, inlineRR)
			if pass == "hit" && rr.Header().Get("X-Cache") != "HIT" {
				t.Fatalf("%s: X-Cache %q on the second pass, want HIT", path, rr.Header().Get("X-Cache"))
			}
		}
	}
}
