package edge

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testOrigin is a synthetic origin: /page/home is an ESI container over
// two fragments with distinct dependency tags; fragment bodies embed a
// per-path fetch counter so tests can see exactly which entries were
// recomputed.
type testOrigin struct {
	mu     sync.Mutex
	counts map[string]int
	gate   func(path string) // called before responding, for blocking tests
	extra  http.HandlerFunc  // fallback routes
}

func newTestOrigin() *testOrigin {
	return &testOrigin{counts: make(map[string]int)}
}

func (o *testOrigin) hits(path string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counts[path]
}

func (o *testOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	o.counts[r.URL.Path]++
	n := o.counts[r.URL.Path] - 1
	o.mu.Unlock()
	if o.gate != nil {
		o.gate(r.URL.Path)
	}
	switch r.URL.Path {
	case "/page/home":
		if strings.Contains(r.Header.Get("Surrogate-Capability"), "ESI/1.0") {
			w.Header().Set("Surrogate-Control", `content="ESI/1.0"`)
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			fmt.Fprint(w, `<html><esi:include src="/frag/a"/>|<esi:include src="/frag/b"/></html>`)
			return
		}
		fmt.Fprintf(w, "inline%d", n)
	case "/frag/a":
		w.Header().Set("Surrogate-Control", "max-age=60")
		w.Header().Set("X-Webml-Deps", "entity:a")
		fmt.Fprintf(w, "A%d", n)
	case "/frag/b":
		w.Header().Set("Surrogate-Control", "max-age=60")
		w.Header().Set("X-Webml-Deps", "entity:b")
		fmt.Fprintf(w, "B%d", n)
	case "/page/nested":
		// A container whose first fragment is itself a container.
		w.Header().Set("Surrogate-Control", `content="ESI/1.0"`)
		fmt.Fprint(w, `<p><esi:include src="/frag/box"/>/<esi:include src="/frag/a"/></p>`)
	case "/frag/box":
		w.Header().Set("Surrogate-Control", `content="ESI/1.0", max-age=60`)
		w.Header().Set("X-Webml-Deps", "entity:box")
		fmt.Fprint(w, `[<esi:include src="/frag/b"/>]`)
	default:
		if o.extra != nil {
			o.extra(w, r)
			return
		}
		http.NotFound(w, r)
	}
}

func get(t *testing.T, h http.Handler, target string, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, target, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		r.Header.Set(hdr[i], hdr[i+1])
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func TestEdgeAssemblesAndCaches(t *testing.T) {
	o := newTestOrigin()
	s := New(o, 128, time.Minute)
	defer s.Close()

	w := get(t, s, "/page/home")
	if got, want := w.Body.String(), "<html>A0|B0</html>"; got != want {
		t.Fatalf("assembled body %q, want %q", got, want)
	}
	if xc := w.Header().Get("X-Cache"); xc != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", xc)
	}
	etag := w.Header().Get("ETag")
	if etag == "" {
		t.Fatal("assembled response has no ETag")
	}

	w = get(t, s, "/page/home")
	if got := w.Body.String(); got != "<html>A0|B0</html>" {
		t.Fatalf("second body %q", got)
	}
	if xc := w.Header().Get("X-Cache"); xc != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", xc)
	}
	if o.hits("/page/home") != 1 || o.hits("/frag/a") != 1 || o.hits("/frag/b") != 1 {
		t.Fatalf("origin fetched more than once: home=%d a=%d b=%d",
			o.hits("/page/home"), o.hits("/frag/a"), o.hits("/frag/b"))
	}

	// Conditional revalidation against the assembled ETag.
	w = get(t, s, "/page/home", "If-None-Match", etag)
	if w.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match status %d, want 304", w.Code)
	}
}

func TestEdgeInvalidatePurgesExactlyDependents(t *testing.T) {
	o := newTestOrigin()
	s := New(o, 128, time.Minute)
	defer s.Close()

	get(t, s, "/page/home")
	if n := s.Invalidate("entity:a"); n != 1 {
		t.Fatalf("Invalidate dropped %d entries, want 1 (fragment a only)", n)
	}
	w := get(t, s, "/page/home")
	if got, want := w.Body.String(), "<html>A1|B0</html>"; got != want {
		t.Fatalf("after purge body %q, want %q (a refetched, b untouched)", got, want)
	}
	if o.hits("/frag/b") != 1 {
		t.Fatalf("fragment b refetched (%d hits) despite unrelated purge", o.hits("/frag/b"))
	}
}

func TestEdgeInvalidateEndpoint(t *testing.T) {
	o := newTestOrigin()
	s := New(o, 128, time.Minute)
	defer s.Close()

	get(t, s, "/page/home")

	r := httptest.NewRequest(http.MethodPost, "/edge/invalidate",
		strings.NewReader(url.Values{"tags": {"entity:a, entity:b"}}.Encode()))
	r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "purged 2") {
		t.Fatalf("invalidate endpoint: %d %q", w.Code, w.Body.String())
	}

	if got := get(t, s, "/page/home").Body.String(); got != "<html>A1|B1</html>" {
		t.Fatalf("after HTTP purge body %q", got)
	}

	if w := get(t, s, "/edge/invalidate"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /edge/invalidate status %d, want 405", w.Code)
	}
}

func TestEdgeStaleWhileRevalidate(t *testing.T) {
	o := newTestOrigin()
	s := New(o, 128, time.Minute)
	defer s.Close()
	base := time.Now()
	now := atomic.Int64{} // seconds past base
	s.clock = func() time.Time { return base.Add(time.Duration(now.Load()) * time.Second) }

	get(t, s, "/page/home")

	// Past the fragments' 60s TTL but inside the stale window: the stale
	// body serves immediately while a background refresh runs.
	now.Store(61)
	w := get(t, s, "/page/home")
	if got := w.Body.String(); got != "<html>A0|B0</html>" {
		t.Fatalf("stale serve body %q, want the cached A0|B0", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := get(t, s, "/page/home").Body.String(); got == "<html>A1|B1</html>" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background refresh never replaced stale fragments: %q",
				get(t, s, "/page/home").Body.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEdgeInFlightFillRefusedAfterPurge pins the epoch barrier: a
// fragment fetched from the origin before a write completes must not be
// cached once the write's purge has run.
func TestEdgeInFlightFillRefusedAfterPurge(t *testing.T) {
	o := newTestOrigin()
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	o.gate = func(path string) {
		if path == "/frag/a" {
			entered <- struct{}{}
			<-release
		}
	}
	s := New(o, 128, time.Minute)
	defer s.Close()

	done := make(chan string)
	go func() {
		done <- get(t, s, "/page/home").Body.String()
	}()
	<-entered // the fill has read pre-write state
	s.Invalidate("entity:a")
	close(release)

	if got := <-done; got != "<html>A0|B0</html>" {
		t.Fatalf("in-flight request body %q", got)
	}
	// The pre-purge fill must not have been stored: the next request
	// refetches fragment a.
	o.gate = nil
	if got := get(t, s, "/page/home").Body.String(); got != "<html>A1|B0</html>" {
		t.Fatalf("post-purge body %q, want refetched A1", got)
	}
}

// TestEdgeFillSurvivesUnrelatedPurge: a purge refuses only the fills that
// depend on a purged tag, so a fill of /frag/a overlapping a purge of
// entity:b is stored and the next page does not refetch it.
func TestEdgeFillSurvivesUnrelatedPurge(t *testing.T) {
	o := newTestOrigin()
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	o.gate = func(path string) {
		if path == "/frag/a" {
			entered <- struct{}{}
			<-release
		}
	}
	s := New(o, 128, time.Minute)
	defer s.Close()

	done := make(chan struct{})
	go func() {
		get(t, s, "/page/home")
		close(done)
	}()
	<-entered
	s.Invalidate("entity:b")
	close(release)
	<-done

	o.gate = nil
	if got := get(t, s, "/page/home").Body.String(); got != "<html>A0|B0</html>" {
		t.Fatalf("body %q, want the overlapped fill's A0", got)
	}
	if n := o.hits("/frag/a"); n != 1 {
		t.Fatalf("/frag/a fetched %d times, want 1", n)
	}
}

// TestEdgeJoinerHonoursContext: a request joining another's fill waits no
// longer than its own context, however long the leader takes.
func TestEdgeJoinerHonoursContext(t *testing.T) {
	o := newTestOrigin()
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	o.gate = func(path string) {
		if path == "/frag/a" {
			entered <- struct{}{}
			select {
			case <-release:
			case <-time.After(3 * time.Second):
			}
		}
	}
	s := New(o, 128, time.Minute)
	defer s.Close()

	done := make(chan struct{})
	go func() {
		get(t, s, "/page/home")
		close(done)
	}()
	<-entered // the leader holds the /frag/a fill

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/page/home", nil).WithContext(ctx))
	if d := time.Since(start); d > time.Second {
		t.Fatalf("joiner with a 50ms context returned after %v", d)
	}
	close(release)
	<-done
}

func TestEdgeCoalescesConcurrentMisses(t *testing.T) {
	o := newTestOrigin()
	var inflight, maxInflight atomic.Int32
	o.gate = func(path string) {
		n := inflight.Add(1)
		for {
			m := maxInflight.Load()
			if n <= m || maxInflight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inflight.Add(-1)
	}
	s := New(o, 128, time.Minute)
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := get(t, s, "/page/home").Body.String(); got != "<html>A0|B0</html>" {
				t.Errorf("body %q", got)
			}
		}()
	}
	wg.Wait()
	if o.hits("/frag/a") != 1 {
		t.Fatalf("16 concurrent misses caused %d origin fetches of /frag/a, want 1", o.hits("/frag/a"))
	}
}

func TestEdgeBypassAndPassThrough(t *testing.T) {
	o := newTestOrigin()
	s := New(o, 128, time.Minute)
	s.BypassCookie = "WSESSION"
	defer s.Close()

	// Session-bound traffic goes straight to the origin, no capability
	// advertised, nothing cached.
	r := httptest.NewRequest(http.MethodGet, "/page/home", nil)
	r.AddCookie(&http.Cookie{Name: "WSESSION", Value: "x"})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if got := w.Body.String(); got != "inline0" {
		t.Fatalf("bypassed body %q, want origin inline render", got)
	}
	if s.Len() != 0 {
		t.Fatalf("bypassed request populated the cache (%d entries)", s.Len())
	}

	// Non-page paths pass through untouched.
	if w := get(t, s, "/op/doit"); w.Code != http.StatusNotFound {
		t.Fatalf("op passthrough status %d", w.Code)
	}

	// Non-200 responses relay but are never cached.
	get(t, s, "/page/nope")
	get(t, s, "/page/nope")
	if o.hits("/page/nope") != 2 {
		t.Fatalf("404 page cached: %d origin hits, want 2", o.hits("/page/nope"))
	}
}

func TestEdgeRespectsNoStore(t *testing.T) {
	o := newTestOrigin()
	o.extra = func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/page/private" {
			w.Header().Set("Cache-Control", "private, no-store")
			fmt.Fprint(w, "secret")
			return
		}
		http.NotFound(w, r)
	}
	s := New(o, 128, time.Minute)
	defer s.Close()

	get(t, s, "/page/private")
	get(t, s, "/page/private")
	if o.hits("/page/private") != 2 {
		t.Fatalf("no-store response cached: %d origin hits, want 2", o.hits("/page/private"))
	}
}

func TestEdgeVaryUserAgent(t *testing.T) {
	o := newTestOrigin()
	s := New(o, 128, time.Minute)
	s.VaryUserAgent = true
	defer s.Close()

	get(t, s, "/page/home", "User-Agent", "desktop")
	get(t, s, "/page/home", "User-Agent", "mobile")
	if o.hits("/page/home") != 2 {
		t.Fatalf("distinct user agents shared a container entry (%d origin hits)", o.hits("/page/home"))
	}
	get(t, s, "/page/home", "User-Agent", "desktop")
	if o.hits("/page/home") != 2 {
		t.Fatal("repeat user agent missed the cache")
	}
}

func TestEdgeStats(t *testing.T) {
	o := newTestOrigin()
	s := New(o, 128, time.Minute)
	defer s.Close()

	get(t, s, "/page/home")
	get(t, s, "/page/home")
	st := s.Stats()
	if st.Puts != 3 { // container + two fragments
		t.Fatalf("Puts = %d, want 3", st.Puts)
	}
	if st.Hits < 3 { // second request: container + both fragments
		t.Fatalf("Hits = %d, want >= 3", st.Hits)
	}
}

// etagOf is the content-addressed validator of a page body.
func etagOf(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf(`"%x"`, h.Sum64())
}

// checkValidator fails unless a 200 response's ETag and Content-Length
// describe its body.
func checkValidator(t *testing.T, w *httptest.ResponseRecorder) {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", w.Code)
	}
	if got, want := w.Header().Get("ETag"), etagOf(w.Body.Bytes()); got != want {
		t.Fatalf("ETag %s for body %q, want %s", got, w.Body.String(), want)
	}
	if got, want := w.Header().Get("Content-Length"), strconv.Itoa(w.Body.Len()); got != want {
		t.Fatalf("Content-Length %s for body %q, want %s", got, w.Body.String(), want)
	}
}

// TestEdgeMemoFollowsRefill: the validator and header memoized on a
// container follow a refill of any part, a part of a nested container
// included, and follow the bytes rather than the fills.
func TestEdgeMemoFollowsRefill(t *testing.T) {
	for _, tc := range []struct {
		page, purge, before, after string
	}{
		{"/page/home", "entity:b", "<html>A0|B0</html>", "<html>A0|B1</html>"},
		{"/page/nested", "entity:b", "<p>[B0]/A0</p>", "<p>[B1]/A0</p>"},
		// The nested container refills with the same bytes: the
		// validator stays.
		{"/page/nested", "entity:box", "<p>[B0]/A0</p>", "<p>[B0]/A0</p>"},
	} {
		s := New(newTestOrigin(), 128, time.Minute)
		get(t, s, tc.page) // fills
		old := get(t, s, tc.page)
		checkValidator(t, old)
		if got := old.Body.String(); got != tc.before || old.Header().Get("X-Cache") != "HIT" {
			t.Fatalf("%s: %s %q, want a HIT of %q", tc.page, old.Header().Get("X-Cache"), got, tc.before)
		}
		if n := s.Invalidate(tc.purge); n == 0 {
			t.Fatalf("%s: purging %s dropped nothing", tc.page, tc.purge)
		}
		get(t, s, tc.page) // refills the purged part
		w := get(t, s, tc.page)
		checkValidator(t, w)
		if got := w.Body.String(); got != tc.after || w.Header().Get("X-Cache") != "HIT" {
			t.Fatalf("%s after purging %s: %s %q, want a HIT of %q",
				tc.page, tc.purge, w.Header().Get("X-Cache"), got, tc.after)
		}
		oldTag, newTag := old.Header().Get("ETag"), w.Header().Get("ETag")
		if (oldTag == newTag) != (tc.before == tc.after) {
			t.Fatalf("%s after purging %s: ETag %s, before %s", tc.page, tc.purge, newTag, oldTag)
		}
		if tc.before != tc.after {
			if c := get(t, s, tc.page, "If-None-Match", oldTag); c.Code != http.StatusOK || c.Body.String() != tc.after {
				t.Fatalf("%s: the old ETag answered %d %q, want 200 %q", tc.page, c.Code, c.Body.String(), tc.after)
			}
		}
		c := get(t, s, tc.page, "If-None-Match", newTag)
		if c.Code != http.StatusNotModified || c.Body.Len() != 0 || c.Header().Get("Content-Length") != "" {
			t.Fatalf("%s: the new ETag answered %d, %d bytes, Content-Length %q; want 304, none, none",
				tc.page, c.Code, c.Body.Len(), c.Header().Get("Content-Length"))
		}
		s.Close()
	}
}

// TestEdgeMemoExactUnderConcurrentPurge: over a real server, concurrent
// hits and purges never return a body that its Content-Length or its
// ETag does not describe.
func TestEdgeMemoExactUnderConcurrentPurge(t *testing.T) {
	s := New(newTestOrigin(), 128, time.Minute)
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	stop := make(chan struct{})
	var purger sync.WaitGroup
	purger.Add(1)
	go func() {
		defer purger.Done()
		tags := []string{"entity:a", "entity:b", "entity:box"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Invalidate(tags[i%len(tags)])
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			page := []string{"/page/home", "/page/nested"}[g%2]
			for i := 0; i < 200; i++ {
				resp, err := srv.Client().Get(srv.URL + page)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s: %v", page, err)
					return
				}
				if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) {
					t.Errorf("%s: status %d, Content-Length %d for a %d-byte body",
						page, resp.StatusCode, resp.ContentLength, len(body))
					return
				}
				if got, want := resp.Header.Get("ETag"), etagOf(body); got != want {
					t.Errorf("%s: ETag %s for body %q, want %s", page, got, body, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	purger.Wait()
}
