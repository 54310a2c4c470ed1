package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/render"
)

// A layer is one seam of the stack a span is recorded at. Larger values
// are deeper: during the one-at-a-time traced replay a span of a deeper
// layer always lies inside a span of every shallower layer it was called
// through, so nesting follows from time containment and no identifier has
// to cross the wire to the container.
type layer int

const (
	spClient    layer = iota // load generator: request written -> response read
	spHandler                // handler given to http.Server (the edge surrogate)
	spOrigin                 // Surrogate.Origin (the controller)
	spPages                  // Controller.Pages.ComputePage
	spRender                 // Controller.Renderer
	spOpBiz                  // Controller.Business.ExecuteOperation
	spUnits                  // PageService.Business (bean-cache decorator chain)
	spRemote                 // CachedBusiness.Inner (the remote stub)
	spContainer              // mvc.Business handed to ejb.NewContainer
	numLayers
)

var layerNames = [numLayers]string{"client", "handler", "origin", "pages", "render",
	"op_business", "units", "remote", "container"}

// span is one recorded interval. Req is the index of the replayed request
// in flight when it was recorded; N is the number of unit calls it carried
// (batch size), 1 for everything that is not a unit call.
type span struct {
	Layer layer  `json:"-"`
	Name  string `json:"name"`
	Req   int32  `json:"req"`
	N     int32  `json:"n"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// recorder keeps spans in memory. Shims call start/end on every call; both
// return at once while the recorder is off, which is the state during
// warm-up, the closed and open phases and the unshimmed replay passes.
type recorder struct {
	on    atomic.Bool
	req   atomic.Int32
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// capBatch and capRender keep the first multi-unit level batch and the
	// first full page render seen, as inputs for the codec and render probes.
	capBatch  sync.Once
	batch     []mvc.UnitCall
	batchOut  []mvc.UnitResult
	capRender sync.Once
	renderPD  *descriptor.Page
	renderSt  *mvc.PageState
	renderCtx *mvc.RequestContext
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) start() time.Time {
	if !r.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (r *recorder) end(l layer, t0 time.Time, n int) {
	if t0.IsZero() {
		return
	}
	r.add(l, t0, time.Now(), n)
}

func (r *recorder) add(l layer, t0, t1 time.Time, n int) {
	s := span{Layer: l, Name: layerNames[l], Req: r.req.Load(), N: int32(n),
		Start: int64(t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// ---- shims on the seams the program exposes ----

type handlerShim struct {
	next  http.Handler
	rec   *recorder
	layer layer
}

func (h *handlerShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := h.rec.start()
	h.next.ServeHTTP(w, r)
	h.rec.end(h.layer, t0, 1)
}

type pagesShim struct {
	next mvc.PageComputer
	rec  *recorder
}

func (p *pagesShim) ComputePage(ctx context.Context, pageID string, request map[string]mvc.Value, formState map[string]*mvc.FormState) (*mvc.PageState, error) {
	t0 := p.rec.start()
	st, err := p.next.ComputePage(ctx, pageID, request, formState)
	p.rec.end(spPages, t0, 1)
	return st, err
}

// rendererShim keeps the container and fragment renderers of the engine
// visible, or the controller would stop serving ESI containers.
type rendererShim struct {
	next *render.Engine
	rec  *recorder
}

func (s *rendererShim) RenderPage(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext) ([]byte, error) {
	s.rec.capRender.Do(func() { s.rec.renderPD, s.rec.renderSt, s.rec.renderCtx = pd, state, ctx })
	t0 := s.rec.start()
	out, err := s.next.RenderPage(pd, state, ctx)
	s.rec.end(spRender, t0, 1)
	return out, err
}

func (s *rendererShim) RenderContainer(pd *descriptor.Page, ctx *mvc.RequestContext) ([]byte, error) {
	t0 := s.rec.start()
	out, err := s.next.RenderContainer(pd, ctx)
	s.rec.end(spRender, t0, 1)
	return out, err
}

func (s *rendererShim) RenderUnitFragment(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, unitID string) ([]byte, error) {
	t0 := s.rec.start()
	out, err := s.next.RenderUnitFragment(pd, state, ctx, unitID)
	s.rec.end(spRender, t0, 1)
	return out, err
}

func (s *rendererShim) VariesByUserAgent() bool { return s.next.VariesByUserAgent() }

// businessShim forwards the batch interface of what it wraps, or the page
// scheduler would fall back to one remote call per unit.
type businessShim struct {
	next  mvc.Business
	rec   *recorder
	layer layer
}

func (b *businessShim) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
	t0 := b.rec.start()
	bean, err := b.next.ComputeUnit(ctx, d, inputs)
	b.rec.end(b.layer, t0, 1)
	return bean, err
}

func (b *businessShim) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.OpResult, error) {
	t0 := b.rec.start()
	res, err := b.next.ExecuteOperation(ctx, d, inputs)
	b.rec.end(b.layer, t0, 1)
	return res, err
}

func (b *businessShim) SupportsUnitBatch() bool { return mvc.SupportsUnitBatch(b.next) }

func (b *businessShim) ComputeUnits(ctx context.Context, calls []mvc.UnitCall) []mvc.UnitResult {
	t0 := b.rec.start()
	out := mvc.ComputeUnitsOf(ctx, b.next, calls)
	b.rec.end(b.layer, t0, len(calls))
	if b.layer == spRemote && len(calls) > 1 {
		b.rec.capBatch.Do(func() {
			b.rec.batch = append([]mvc.UnitCall(nil), calls...)
			b.rec.batchOut = append([]mvc.UnitResult(nil), out...)
		})
	}
	return out
}

// installShims interposes a shim on every seam of the web tier and returns
// the handler to serve. It runs before the server starts, so no request
// can observe a half-wired app.
func installShims(app *webmlgo.App, rec *recorder) (http.Handler, error) {
	notifying, ok := app.Business.(*mvc.NotifyingBusiness)
	if !ok {
		return nil, fmt.Errorf("shims: app.Business is %T, want *mvc.NotifyingBusiness", app.Business)
	}
	cached, ok := notifying.Inner.(*mvc.CachedBusiness)
	if !ok {
		return nil, fmt.Errorf("shims: NotifyingBusiness.Inner is %T, want *mvc.CachedBusiness", notifying.Inner)
	}
	ps, ok := app.Controller.Pages.(*mvc.PageService)
	if !ok {
		return nil, fmt.Errorf("shims: Controller.Pages is %T, want *mvc.PageService", app.Controller.Pages)
	}
	cached.Inner = &businessShim{next: cached.Inner, rec: rec, layer: spRemote}
	ps.Business = &businessShim{next: ps.Business, rec: rec, layer: spUnits}
	app.Controller.Business = &businessShim{next: app.Controller.Business, rec: rec, layer: spOpBiz}
	app.Controller.Pages = &pagesShim{next: ps, rec: rec}
	app.Controller.Renderer = &rendererShim{next: app.Renderer, rec: rec}
	app.Edge.Origin = &handlerShim{next: app.Edge.Origin, rec: rec, layer: spOrigin}
	return &handlerShim{next: app.Handler(), rec: rec, layer: spHandler}, nil
}

// ---- self time ----

// selfTimes attributes every instant covered by the spans of one request
// to the deepest layer active at that instant and returns nanoseconds per
// layer. Level batches fan out inside the container, so container spans of
// one request overlap; they share a layer, and the time they cover counts
// once. The result sums to the time covered by any span.
func selfTimes(spans []span) [numLayers]int64 {
	var self [numLayers]int64
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if lo == hi {
			continue
		}
		deepest := layer(-1)
		for _, s := range spans {
			if s.Start <= lo && hi <= s.End && s.Layer > deepest {
				deepest = s.Layer
			}
		}
		if deepest >= 0 {
			self[deepest] += hi - lo
		}
	}
	return self
}
