package edge

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/cookie"
	"webmlgo/internal/obs"
	"webmlgo/internal/surrogate"
)

// Capability is the Surrogate-Capability token of every origin fetch.
const Capability = surrogate.Capability

// maxIncludeDepth bounds recursive fragment assembly (fragments that are
// themselves ESI containers).
const maxIncludeDepth = 3

// Surrogate is the edge tier: an http.Handler in front of the MVC
// controller that caches ESI containers and unit fragments in the
// sharded LRU/TTL store and assembles pages from them. Coherence is the
// paper's: operation services push the dependency tags they write
// (Invalidate / POST /edge/invalidate), and the purge drops exactly the
// fragments whose read dependencies intersect them. Misses fill through
// the store's fill protocol, the same one the bean cache uses: concurrent
// misses of a key share one origin fetch, and a fetch is refused storage
// if a tag it depends on was purged while it ran.
type Surrogate struct {
	// Origin serves cache misses (normally the Controller, possibly with
	// further middleware between).
	Origin http.Handler
	// Store holds containers and fragments, tagged with their unit read
	// dependencies for model-driven purge, and coalesces their fills.
	Store *cache.BeanCache
	// ttl applies to responses without Surrogate-Control max-age (page
	// containers in particular). It is also the stale window: how long
	// past expiry an entry may still be served while a background
	// refresh runs (stale-while-revalidate). Expired entries beyond the
	// window are evicted by the store itself.
	ttl time.Duration
	// BypassCookie, when set, exempts requests carrying the cookie:
	// session-bound (personalized) traffic goes straight to the origin.
	BypassCookie string
	// VaryUserAgent mixes the User-Agent into every cache key; set when
	// the origin styles markup per device (runtime presentation rules).
	VaryUserAgent bool
	// Obs, when set, makes the edge the trace root: page GETs allocate
	// the request trace here, and origin fetches carry it down to the
	// controller through the request context.
	Obs *obs.Tracer
	// clock, when set, replaces time.Now as the freshness clock.
	clock func() time.Time

	// Disposition counters (X-Cache outcomes), folded into /metrics.
	hitN, staleN, missN atomic.Int64
	// shedKeepN counts refreshes the origin load-shed with the stale
	// entry kept serving.
	shedKeepN atomic.Int64
	// fills numbers the entries roundTrip makes: a fill's seq names its
	// bytes, so equal seqs mean equal parts.
	fills atomic.Uint64

	startWorkers sync.Once
	closeOnce    sync.Once
	jobs         chan refreshJob
	stop         chan struct{}
}

// entry is one cached origin response: a page container (esi=true, segs
// pre-parsed) or a unit fragment / plain body.
type entry struct {
	seq    uint64
	status int
	// header is what a page response replays to clients; nil for a
	// fragment (a response carrying X-Webml-Deps).
	header http.Header
	body   []byte
	esi    bool
	segs   []Segment
	deps   []string
	ttl    time.Duration
	// expires is the logical freshness deadline; between expires and
	// expires plus the surrogate's ttl the entry is served stale while
	// one background refresh runs.
	expires   time.Time
	cacheable bool
	uri, ua   string

	refreshing atomic.Bool
	// memo is a container's validator and client header for the parts
	// it was last assembled from.
	memo atomic.Pointer[memo]
}

// memo names the parts of an assembled page by their fill seqs, never by
// pointer: a purged fragment must not stay reachable from a container
// that outlives it.
type memo struct {
	seqs []uint64
	// etag and length are the Etag and Content-Length values of the
	// assembled page, one element each, so a downstream Add copies them
	// instead of writing into the memo.
	etag, length [1]string
}

type refreshJob struct {
	key string
	old *entry
}

// refreshWorkers bounds the background refresh pool.
const refreshWorkers = 2

// New returns a surrogate over origin with the given store capacity and
// default TTL (<=0 selects one minute), which is also the stale window.
func New(origin http.Handler, capacity int, defaultTTL time.Duration) *Surrogate {
	if defaultTTL <= 0 {
		defaultTTL = time.Minute
	}
	return &Surrogate{
		Origin: origin,
		Store:  cache.NewBeanCache(capacity),
		ttl:    defaultTTL,
		jobs:   make(chan refreshJob, 256),
		stop:   make(chan struct{}),
	}
}

func (s *Surrogate) now() time.Time {
	if s.clock != nil {
		return s.clock()
	}
	return time.Now()
}

// ServeHTTP caches anonymous page GETs and answers the invalidation
// endpoint; everything else passes through to the origin untouched.
func (s *Surrogate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/edge/invalidate" {
		s.invalidateEndpoint(w, r)
		return
	}
	if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/page/") || s.bypass(r) {
		s.Origin.ServeHTTP(w, r)
		return
	}
	if s.Obs == nil {
		s.servePage(r.Context(), w, r)
		return
	}
	// The edge is the trace root of a page GET.
	ctx, t := s.Obs.Start(r.Context(), "edge:"+r.URL.Path)
	if t == nil { // sampled out
		s.servePage(ctx, w, r)
		return
	}
	sw := &obs.StatusWriter{ResponseWriter: w, Code: http.StatusOK}
	s.servePage(ctx, sw, r)
	s.Obs.Finish(t, sw.Code)
}

// X-Cache dispositions, shared by every response: each slice is one
// element long and full, so a downstream Add copies it.
var (
	xcHit   = []string{"HIT"}
	xcStale = []string{"STALE"}
	xcMiss  = []string{"MISS"}
)

// parts is the pooled scratch of one page: the page's bytes in order, as
// slices of cached bodies, and the fill seqs of the entries they came
// from.
type parts struct {
	bufs [][]byte
	seqs []uint64
}

var partsPool = sync.Pool{New: func() any { return new(parts) }}

// servePage resolves every part of the page before it writes a byte, then
// writes the parts straight from the cached bodies.
func (s *Surrogate) servePage(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	ua := ""
	if s.VaryUserAgent {
		ua = r.UserAgent()
	}
	e, xc, err := s.resolve(ctx, pageURI(r), ua)
	if err != nil {
		http.Error(w, "edge: "+err.Error(), http.StatusBadGateway)
		return
	}
	if !e.esi {
		// Non-container responses (errors, redirects, the origin's
		// personalized inline fallback) are relayed as-is.
		writeEntry(w, e, xc)
		return
	}
	p := partsPool.Get().(*parts)
	defer p.release()
	asp := obs.Leaf(ctx, "edge.assemble")
	if err := s.collect(ctx, p, e, ua, 0); err != nil {
		// A fragment failed to resolve: fall back to one full inline
		// render at the origin rather than serving a broken page.
		asp.EndErr(err)
		s.Origin.ServeHTTP(w, r.WithContext(ctx))
		return
	}
	asp.End()
	m := e.memoFor(p)
	h := replayHeader(w, e, xc)
	h["Etag"], h["Content-Length"] = m.etag[:], m.length[:]
	if r.Header.Get("If-None-Match") == m.etag[0] {
		delete(h, "Content-Length")
		w.WriteHeader(http.StatusNotModified)
		return
	}
	for _, b := range p.bufs {
		w.Write(b) //nolint:errcheck // client disconnects are not actionable
	}
}

// pageURI is the request's target as the cache keys it: the request
// line's own origin-form target, which a server request carries, or the
// URL's rendering of it.
func pageURI(r *http.Request) string {
	if strings.HasPrefix(r.RequestURI, "/") {
		return r.RequestURI
	}
	return r.URL.RequestURI()
}

func (s *Surrogate) bypass(r *http.Request) bool {
	_, ok := cookie.Value(r, s.BypassCookie)
	return ok
}

// collect appends a container's literals and its fragments' bodies to p
// in page order, resolving each fragment through the cache and recursing
// into fragments that are themselves containers.
func (s *Surrogate) collect(ctx context.Context, p *parts, e *entry, ua string, depth int) error {
	for _, seg := range e.segs {
		if seg.Src == "" {
			p.bufs = append(p.bufs, seg.Literal)
			continue
		}
		if depth >= maxIncludeDepth {
			return fmt.Errorf("include depth exceeded at %s", seg.Src)
		}
		fe, _, err := s.resolve(ctx, seg.Src, ua)
		if err != nil {
			return err
		}
		if fe.status != http.StatusOK {
			return fmt.Errorf("fragment %s: status %d", seg.Src, fe.status)
		}
		p.seqs = append(p.seqs, fe.seq)
		if fe.esi {
			if err := s.collect(ctx, p, fe, ua, depth+1); err != nil {
				return err
			}
			continue
		}
		p.bufs = append(p.bufs, fe.body)
	}
	return nil
}

// release drops the scratch's references to cached bodies, so the pool
// keeps no purged fragment alive, and returns it to the pool.
func (p *parts) release() {
	clear(p.bufs)
	p.bufs, p.seqs = p.bufs[:0], p.seqs[:0]
	partsPool.Put(p)
}

// memoFor returns the container's memo for the parts p collected,
// making and storing a new one when a part was refilled since. Equal
// seqs name equal bytes: the container's segments are fixed, and each
// fill's seq names its body and, for a nested container, its segments.
func (e *entry) memoFor(p *parts) *memo {
	if m := e.memo.Load(); m != nil && slices.Equal(m.seqs, p.seqs) {
		return m
	}
	// Content-addressed ETag over the assembled page: FNV-1a over the
	// parts in turn is FNV-1a over their concatenation, so identical
	// bytes to an inline render produce the identical validator.
	h := fnv.New64a()
	n := 0
	for _, b := range p.bufs {
		h.Write(b) //nolint:errcheck // hash writes cannot fail
		n += len(b)
	}
	// Both values are cut from one string.
	var buf [40]byte
	b := strconv.AppendUint(append(buf[:0], '"'), h.Sum64(), 16)
	b = append(b, '"')
	q := len(b)
	vals := string(strconv.AppendInt(b, int64(n), 10))
	m := &memo{seqs: slices.Clone(p.seqs)}
	m.etag[0], m.length[0] = vals[:q], vals[q:]
	e.memo.Store(m)
	return m
}

// resolve returns the entry for an internal URI: a fresh cache hit, a
// stale entry with a background refresh scheduled, or a coalesced origin
// fetch. The second return is the X-Cache disposition.
func (s *Surrogate) resolve(ctx context.Context, uri, ua string) (*entry, []string, error) {
	sp := obs.Leaf(ctx, "edge.resolve").Label("uri", uri)
	key := s.key(uri, ua)
	if v, ok := s.Store.Get(key); ok {
		e := v.(*entry)
		if s.now().Before(e.expires) {
			s.hitN.Add(1)
			sp.Label("outcome", "hit").End()
			return e, xcHit, nil
		}
		s.scheduleRefresh(key, e)
		s.staleN.Add(1)
		sp.Label("outcome", "stale").End()
		return e, xcStale, nil
	}
	s.missN.Add(1)
	e, err := s.fetch(ctx, key, uri, ua)
	sp.Label("outcome", "miss").EndErr(err)
	return e, xcMiss, err
}

// Dispositions reports how many page/fragment resolutions were served
// fresh, served stale (refresh scheduled), and fetched from the origin.
func (s *Surrogate) Dispositions() (hit, stale, miss int64) {
	return s.hitN.Load(), s.staleN.Load(), s.missN.Load()
}

func (s *Surrogate) key(uri, ua string) string {
	if !s.VaryUserAgent {
		return uri
	}
	return uri + "\x00" + ua
}

// fetch joins the key's fill in progress or leads a new one: the leader
// fetches from the origin and stores the response unless a tag it
// depends on was purged meanwhile. A joiner waits no longer than its own
// request's context.
func (s *Surrogate) fetch(ctx context.Context, key, uri, ua string) (*entry, error) {
	f, lead := s.Store.Join(key)
	if !lead {
		v, err := f.Wait(ctx)
		if err != nil {
			return nil, err
		}
		return v.(*entry), nil
	}
	e, err := s.roundTrip(ctx, uri, ua)
	if err == nil && e.cacheable {
		s.put(key, e, f)
	}
	s.Store.Finish(f, e, err)
	return e, err
}

// roundTrip performs one internal origin request, advertising the ESI
// capability, and interprets the surrogate-facing response headers. The
// context carries the trace down into the controller, so origin work
// shows up under the edge's span tree. A fetch allocates the recorder,
// the request's context-carrying copy and the two header maps; the entry
// keeps the recorded body, sized exactly, and nothing else of them.
func (s *Surrogate) roundTrip(ctx context.Context, uri, ua string) (*entry, error) {
	rec := &originRecorder{header: make(http.Header, 8)}
	if err := parseURI(&rec.url, uri); err != nil {
		return nil, err
	}
	h := make(http.Header, 2)
	h["Surrogate-Capability"] = hdrCapability
	if ua != "" {
		rec.ua[0] = ua
		h["User-Agent"] = rec.ua[:]
	}
	req := http.Request{Method: http.MethodGet, URL: &rec.url, Proto: "HTTP/1.1",
		ProtoMajor: 1, ProtoMinor: 1, Header: h}
	s.Origin.ServeHTTP(rec, req.WithContext(ctx))

	sc := rec.header.Get("Surrogate-Control")
	e := &entry{
		seq:    s.fills.Add(1),
		status: cmp.Or(rec.code, http.StatusOK),
		body:   rec.body,
		ttl:    surrogate.MaxAge(sc, s.ttl),
		uri:    uri,
		ua:     ua,
	}
	if strings.Contains(sc, `content="ESI/1.0"`) {
		e.esi = true
		e.segs = ParseESI(e.body)
	}
	deps, surrogateAware := rec.header[surrogate.DepsHeader]
	e.deps = surrogate.Tags(deps)
	if !surrogateAware {
		// A fragment's headers are never replayed: assembly copies only
		// its body.
		e.header = clientHeader(rec.header)
	}
	// Surrogate-Control addresses this tier and wins over Cache-Control
	// (which addresses browsers and shared HTTP caches); a dependency
	// header — even an empty one — likewise marks a surrogate-aware
	// fragment response whose Cache-Control: no-store targets browsers.
	switch {
	case sc != "":
		e.cacheable = e.status == http.StatusOK && !strings.Contains(sc, "no-store")
	case surrogateAware:
		e.cacheable = e.status == http.StatusOK
	default:
		cc := rec.header.Get("Cache-Control")
		e.cacheable = e.status == http.StatusOK &&
			!strings.Contains(cc, "no-store") && !strings.Contains(cc, "private")
	}
	e.expires = s.now().Add(e.ttl)
	return e, nil
}

// hdrCapability is the Surrogate-Capability value of every origin fetch,
// one element long and full, so a downstream Add copies it.
var hdrCapability = []string{Capability}

// parseURI sets u to an origin-form request URI. The edge's own URIs (a
// page's request target, the origin's fragment includes) are a path and
// a query with nothing to unescape; anything else goes through url.Parse.
func parseURI(u *url.URL, uri string) error {
	path, query, _ := strings.Cut(uri, "?")
	plain := strings.HasPrefix(path, "/") && !strings.HasPrefix(path, "//")
	for i := 0; plain && i < len(uri); i++ {
		plain = uri[i] > ' ' && uri[i] < 0x7f && uri[i] != '%' && uri[i] != '#'
	}
	p := &url.URL{Path: path, RawQuery: query}
	if !plain {
		var err error
		if p, err = url.Parse(uri); err != nil {
			return err
		}
	}
	*u = *p
	return nil
}

// put stores an entry filled by f unless one of its tags was purged
// since f began; it reports whether the entry was stored.
func (s *Surrogate) put(key string, e *entry, f *cache.Fill) bool {
	return s.Store.PutIfFresh(key, e, e.deps, e.ttl+s.ttl, f.Epoch())
}

// Invalidate purges every cached container and fragment depending on any
// of the given tags and reports how many entries were dropped. It is a
// barrier for the fills in flight across the call: none reading a purged
// tag stores its (pre-write) response, and later misses start new fills.
func (s *Surrogate) Invalidate(tags ...string) int {
	if len(tags) == 0 {
		return 0
	}
	return s.Store.Invalidate(tags...)
}

// invalidateEndpoint is the out-of-process purge channel: POST
// /edge/invalidate with tags=<space/comma separated dependency tags>
// (repeatable). An edge deployed in a separate process subscribes to
// writes through this endpoint exactly as the in-process bus does. The
// body is form-encoded, so the + of a membership tag travels as %2B.
func (s *Surrogate) invalidateEndpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	_ = r.ParseForm() //nolint:errcheck // malformed bodies yield empty form
	n := s.Invalidate(surrogate.Tags(r.Form["tags"])...)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "purged %d\n", n)
}

// scheduleRefresh enqueues one background revalidation of a stale entry;
// at most one refresh per entry runs at a time, and a full queue simply
// leaves the entry stale for a later request to retry.
func (s *Surrogate) scheduleRefresh(key string, e *entry) {
	if !e.refreshing.CompareAndSwap(false, true) {
		return
	}
	s.startWorkers.Do(s.spawnWorkers)
	select {
	case s.jobs <- refreshJob{key: key, old: e}:
	default:
		e.refreshing.Store(false)
	}
}

func (s *Surrogate) spawnWorkers() {
	for i := 0; i < refreshWorkers; i++ {
		go func() {
			for {
				select {
				case <-s.stop:
					return
				case j := <-s.jobs:
					s.refresh(j)
				}
			}
		}()
	}
}

// refresh leads a fill of a stale entry's key; when a miss is already
// filling it, that fill replaces the entry instead.
func (s *Surrogate) refresh(j refreshJob) {
	f, lead := s.Store.Join(j.key)
	if !lead {
		j.old.refreshing.Store(false)
		return
	}
	e, err := s.roundTrip(context.Background(), j.old.uri, j.old.ua)
	stored := err == nil && e.cacheable && s.put(j.key, e, f)
	if !stored && err == nil && e.status == http.StatusServiceUnavailable && e.header.Get("X-Webml-Shed") != "" {
		// The origin shed the refresh as a load decision, not a failure:
		// re-store the stale entry so it outlives the overload instead of
		// aging out of the store mid-surge. It stays expired, so requests
		// keep scheduling refreshes that will land once admission opens up.
		s.shedKeepN.Add(1)
		s.put(j.key, j.old, f)
	}
	s.Store.Finish(f, e, err)
	if !stored {
		// The refresh did not replace the entry (origin shed or error,
		// now-uncacheable response, or a purge raced us); let a later
		// request retry.
		j.old.refreshing.Store(false)
	}
}

// ShedKept reports how many background refreshes were load-shed by the
// origin with the stale entry kept in service — the edge half of the
// admission controller's degrade-over-queue policy.
func (s *Surrogate) ShedKept() int64 { return s.shedKeepN.Load() }

// Close stops the background refresh workers.
func (s *Surrogate) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
}

// Stats returns the edge store's counters.
func (s *Surrogate) Stats() cache.Stats { return s.Store.Stats() }

// Len returns the number of cached containers and fragments.
func (s *Surrogate) Len() int { return s.Store.Len() }

// originRecorder is one internal origin fetch: the request's URL and
// User-Agent value, and the response the origin writes.
type originRecorder struct {
	url    url.URL
	ua     [1]string
	code   int
	header http.Header
	// body is the response body, sized exactly at every Write: the
	// origin writes a response in one.
	body []byte
}

func (r *originRecorder) Header() http.Header { return r.header }

func (r *originRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *originRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(append(make([]byte, 0, len(r.body)+len(p)), r.body...), p...)
	return len(p), nil
}

// clientHeader filters an origin response header down to what the edge
// replays to clients: surrogate-internal headers and per-fetch metadata
// (ETag and Content-Length are recomputed over assembled bytes;
// Set-Cookie must never be replayed across users) are dropped. Each
// value slice is a clipped copy, so responses may share it.
func clientHeader(h http.Header) http.Header {
	out := make(http.Header, len(h))
	for k, vs := range h {
		switch http.CanonicalHeaderKey(k) {
		case "Surrogate-Control", "X-Webml-Deps", "Set-Cookie", "Etag", "Content-Length":
			continue
		}
		out[k] = slices.Clip(slices.Clone(vs))
	}
	return out
}

func writeEntry(w http.ResponseWriter, e *entry, xc []string) {
	replayHeader(w, e, xc)
	w.WriteHeader(e.status)
	w.Write(e.body) //nolint:errcheck // client disconnects are not actionable
}

// replayHeader copies the entry's client header and the disposition into
// the response header, sharing their value slices, and returns it.
func replayHeader(w http.ResponseWriter, e *entry, xc []string) http.Header {
	h := w.Header()
	for k, vs := range e.header {
		h[k] = vs
	}
	h["X-Cache"] = xc
	return h
}
