package mvc

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/obs"
)

// PageService is the single generic page service of Figure 5 applied to
// pages: where a conventional implementation needs one page service
// class per page (556 for Acer-Euro), this one service interprets the
// page descriptor, which "describes the topology of the page units and
// links, which is needed for computing units in the proper order and
// with the correct input parameters" (Section 4).
type PageService struct {
	Repo     *descriptor.Repository
	Business Business
	// PageLat / UnitLat, when set, record per-page and per-unit compute
	// latency into the shared histogram families — the model-derived
	// series behind the /metrics p50/p95/p99. Nil skips recording.
	PageLat *obs.HistogramVec
	UnitLat *obs.HistogramVec
}

// PageState is the set of unit beans computed for one request — the
// Model's state objects handed to the View.
type PageState struct {
	PageID string
	Beans  map[string]*UnitBean
	// Order lists unit IDs in page display order. It may be the page
	// schedule's own list, shared by every request: read-only.
	Order []string
}

// pageRun is one page computation, made as one value: the PageState it
// returns and the calls its levels batch, each level a stretch of calls.
// A schedule of more units than calls holds takes a slab of its own.
type pageRun struct {
	state PageState
	calls [8]UnitCall
}

// ComputePage exposes the single computePage() function of the paper's
// page service: it computes the page's units level by level along the
// transport-link edges — every unit whose inputs are already resolved
// is submitted with its level peers in one business-tier call —
// propagating parameters and invoking the unit services.
//
// id is a page ID, or a fragment ID "<page>/<unit>": a fragment computes
// only the unit's cone, the unit and the units it takes transport-edge
// parameters from (descriptor.Repository.Schedule), so the one bean a
// fragment renders costs what it reads. Either is observed under the
// page's ID.
//
// request carries the typed HTTP parameters; formState (may be nil)
// carries sticky entry-unit values and validation errors keyed by entry
// unit ID. ctx carries the request deadline: levels stop scheduling new
// units once it is done, and the business tier below observes it.
func (ps *PageService) ComputePage(ctx context.Context, id string, request map[string]Value, formState map[string]*FormState) (*PageState, error) {
	start := time.Now()
	pageID, unitID, _ := strings.Cut(id, "/")
	ctx, sp := obs.StartSpan(ctx, "page.compute")
	sp.Label("page", pageID)
	if unitID != "" {
		sp.Label("unit", unitID)
	}
	state, err := ps.computePage(ctx, id, request, formState)
	if ps.PageLat != nil {
		ps.PageLat.ObserveErr(pageID, time.Since(start), err != nil)
	}
	sp.EndErr(err)
	return state, err
}

func (ps *PageService) computePage(ctx context.Context, id string, request map[string]Value, formState map[string]*FormState) (*PageState, error) {
	sched, err := ps.Repo.Schedule(id)
	if err != nil {
		return nil, err
	}
	pd := sched.Page
	run := &pageRun{state: PageState{
		PageID: pd.ID,
		Beans:  make(map[string]*UnitBean, len(sched.Order)),
		Order:  sched.Display,
	}}
	state, slab := &run.state, run.calls[:]
	if len(sched.Order) > len(slab) {
		slab = make([]UnitCall, len(sched.Order))
	}
	for li, level := range sched.Levels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lctx, lsp := obs.StartSpan(ctx, "page.level")
		lsp.Label("level", strconv.Itoa(li)).Label("units", strconv.Itoa(len(level)))
		calls := slab[:len(level):len(level)]
		slab = slab[len(level):]
		if err := ps.computeLevel(lctx, pd, sched, level, calls, request, formState, state); err != nil {
			lsp.EndErr(err)
			return nil, err
		}
		lsp.End()
	}
	return state, nil
}

// computeLevel runs one topological level, whatever its width, as one
// ComputeUnitsOf call over calls, which is the level's length: inputs are
// resolved for every unit up front (they only read beans of strictly
// earlier levels), and the level travels
// down the business chain whole — one batch frame at a remote stub,
// guarded calls in order at LocalBusiness. Beans merge deterministically,
// the first error in level order wins, and sticky form-state errors are
// cloned copy-on-write per request. Each unit gets its own "unit" span and
// UnitLat observation of the level's wall time.
func (ps *PageService) computeLevel(ctx context.Context, pd *descriptor.Page, sched *descriptor.Schedule, level []string, calls []UnitCall, request map[string]Value, formState map[string]*FormState, state *PageState) error {
	for i, unitID := range level {
		ud, inputs, err := ps.resolveInputs(pd, sched, unitID, request, formState, state)
		if err != nil {
			return err
		}
		calls[i] = UnitCall{D: ud, Inputs: inputs}
	}
	// The spans of a level no wider than spanBuf stay on the stack, so
	// a level of one unit allocates nothing for them.
	var spanBuf [8]*obs.SpanHandle
	spans := spanBuf[:]
	if len(level) > len(spanBuf) {
		spans = make([]*obs.SpanHandle, len(level))
	}
	for i, unitID := range level {
		spans[i] = obs.Leaf(ctx, "unit").Label("unit", unitID).Label("entity", calls[i].D.Entity)
	}
	start := time.Now()
	res := ps.batchGuarded(ctx, calls)
	elapsed := time.Since(start)
	// A failed level fails the page, so beans merged before its error
	// is known are never seen.
	var firstErr error
	for i, unitID := range level {
		bean, err := res[i].Bean, res[i].Err
		if ps.UnitLat != nil {
			ps.UnitLat.ObserveErr(unitID, elapsed, err != nil)
		}
		spans[i].EndErr(err)
		if firstErr == nil {
			firstErr = err
		}
		if bean == nil {
			continue
		}
		if fs := formState[unitID]; fs != nil && len(fs.Errors) > 0 {
			// Copy-on-write: the bean may come from the shared cache, and
			// validation errors belong to this request only.
			clone := *bean
			clone.Errors = fs.Errors
			bean = &clone
		}
		state.Beans[unitID] = bean
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// batchGuarded contains a panicking batch implementation the way
// ComputeUnitsOf contains a panicking unit service: every item of the
// level gets the panic as its error, and a short result set is padded so
// callers can index safely.
func (ps *PageService) batchGuarded(ctx context.Context, calls []UnitCall) (res []UnitResult) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("mvc: batch panicked: %v", r)
			res = make([]UnitResult, len(calls))
			for i := range res {
				res[i] = UnitResult{Err: err}
			}
		}
	}()
	res = ComputeUnitsOf(ctx, ps.Business, calls)
	for len(res) < len(calls) {
		res = append(res, UnitResult{Err: fmt.Errorf("mvc: batch returned %d results for %d calls", len(res), len(calls))})
	}
	return res
}

// resolveInputs binds one unit's inputs — request parameters by name,
// intra-page transport edges ("parameters are passed from one query to
// another one", Section 4), then sticky form state for entry units — and
// returns its descriptor. It only reads beans of strictly earlier levels
// from state.
func (ps *PageService) resolveInputs(pd *descriptor.Page, sched *descriptor.Schedule, unitID string, request map[string]Value, formState map[string]*FormState, state *PageState) (*descriptor.Unit, map[string]Value, error) {
	ud := ps.Repo.Unit(unitID)
	if ud == nil {
		return nil, nil, fmt.Errorf("mvc: page %q references missing unit descriptor %q", pd.ID, unitID)
	}
	// The map is made on its first entry: most units bind nothing.
	var inputs map[string]Value
	set := func(k string, v Value) {
		if inputs == nil {
			inputs = make(map[string]Value, len(ud.Inputs))
		}
		inputs[k] = v
	}
	for _, p := range ud.Inputs {
		if v, ok := request[p.Name]; ok {
			set(p.Name, v)
		}
	}
	for _, e := range sched.Incoming[unitID] {
		src := state.Beans[e.From]
		if src == nil || src.Missing || len(src.Nodes) == 0 {
			continue
		}
		current := src.Nodes[0].Values
		for _, pm := range e.Params {
			if i := FieldIndex(src.Fields, pm.Source); i >= 0 && i < len(current) {
				set(pm.Target, current[i].Value())
			}
		}
	}
	if fs := formState[unitID]; fs != nil {
		for k, v := range fs.Values {
			set(k, v)
		}
	}
	return ud, inputs, nil
}

// FormState carries an entry unit's sticky values and validation errors
// across the KO redirect.
type FormState struct {
	Values map[string]Value
	Errors map[string]string
}
