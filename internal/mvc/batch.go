package mvc

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/obs"
)

// UnitCall is one unit computation inside a level batch: the resolved
// descriptor plus its already-bound inputs.
type UnitCall struct {
	D      *descriptor.Unit
	Inputs map[string]Value
}

// UnitResult is the outcome of one batched unit computation.
type UnitResult struct {
	Bean *UnitBean
	Err  error
}

// BatchComputer is a business tier that takes a whole topological level
// of the page schedule in one call: every decorator of the chain and the
// remote stub, which sends the level as one request frame. The page
// scheduler runs each level through ComputeUnitsOf, so a level travels
// down the chain as one batch until it reaches a tier without
// ComputeUnits (LocalBusiness, fault.Business), which computes the items
// one at a time.
type BatchComputer interface {
	Business
	ComputeUnits(ctx context.Context, calls []UnitCall) []UnitResult
}

// SupportsUnitBatch reports whether b implements BatchComputer.
//
// Deprecated: SupportsUnitBatch decides nothing — ComputeUnitsOf batches
// whenever its argument implements ComputeUnits.
func SupportsUnitBatch(b Business) bool {
	_, ok := b.(BatchComputer)
	return ok
}

// ComputeUnitsOf runs a level batch against b: through its own
// ComputeUnits when it has one, otherwise as guarded per-item calls in
// order (a panic contained to the failing item). The page scheduler runs
// every level through it, and decorators use it to pass a batch one
// layer down.
func ComputeUnitsOf(ctx context.Context, b Business, calls []UnitCall) []UnitResult {
	if bc, ok := b.(BatchComputer); ok {
		return bc.ComputeUnits(ctx, calls)
	}
	out := make([]UnitResult, len(calls))
	for i, c := range calls {
		out[i].Bean, out[i].Err = computeOneGuarded(ctx, b, c)
	}
	return out
}

// computeOneGuarded is one contained unit call: a panicking service
// surfaces as that unit's error.
func computeOneGuarded(ctx context.Context, b Business, c UnitCall) (bean *UnitBean, err error) {
	defer func() {
		if r := recover(); r != nil {
			bean, err = nil, fmt.Errorf("mvc: unit %s panicked: %v", c.D.ID, r)
		}
	}()
	return b.ComputeUnit(ctx, c.D, c.Inputs)
}

// ---- decorator pass-through ----

// ComputeUnits implements BatchComputer by pure delegation — unit reads
// never write, so there is nothing to notify.
func (nb *NotifyingBusiness) ComputeUnits(ctx context.Context, calls []UnitCall) []UnitResult {
	return ComputeUnitsOf(ctx, nb.Inner, calls)
}

// ComputeUnits implements BatchComputer with per-item retry: failed
// items back off and re-run until they succeed, the attempt budget runs
// out, or the request context expires. Each round re-submits only the
// items that failed retryably (reads are idempotent; context errors
// mean the budget is gone and nothing is retried), so one flapping unit
// does not recompute its whole level.
func (rb *ResilientBusiness) ComputeUnits(ctx context.Context, calls []UnitCall) []UnitResult {
	attempts := rb.MaxAttempts
	if attempts == 0 {
		attempts = 3
	}
	attempts = max(attempts, 1)
	out := make([]UnitResult, len(calls))
	pending := make([]int, len(calls))
	for i := range pending {
		pending[i] = i
	}
	cur := calls
	for attempt := 0; attempt < attempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			rb.Retries.Add(int64(len(pending)))
			if err := rb.sleep(ctx, attempt); err != nil {
				break
			}
		}
		res := ComputeUnitsOf(ctx, rb.Inner, cur)
		var nextIdx []int
		var next []UnitCall
		for j, r := range res {
			idx := pending[j]
			out[idx] = r
			if r.Err != nil && !errors.Is(r.Err, context.DeadlineExceeded) &&
				!errors.Is(r.Err, context.Canceled) && ctx.Err() == nil {
				nextIdx = append(nextIdx, idx)
				next = append(next, cur[j])
			}
		}
		pending, cur = nextIdx, next
		if ctx.Err() != nil {
			break
		}
	}
	return out
}

// ComputeUnits implements BatchComputer over the bean cache: hits are
// answered locally, misses led by another request are joined, and only
// the remaining leader misses (plus uncached units) travel down as one
// smaller batch. Of K requests missing the same key concurrently, one
// (the leader) computes and the other K-1 wait for its result. The
// leader stores the bean with PutIfFresh at its fill's epoch, which
// refuses it if an operation invalidated any of its reads in the
// meantime, so a stale bean is never cached.
func (cb *CachedBusiness) ComputeUnits(ctx context.Context, calls []UnitCall) []UnitResult {
	out, inner, leaders := newLevelScratch(len(calls))
	var joins []fill
	for i, c := range calls {
		lf := fill{idx: i} // an uncached pass-through
		if c.D.Cache != nil && c.D.Cache.Enabled {
			key := beanKey(c.D.ID, c.Inputs)
			gsp := obs.Leaf(ctx, "cache.get").Label("unit", c.D.ID)
			if v, ok := cb.Cache.Get(key); ok {
				gsp.Label("outcome", "hit").End()
				out[i] = UnitResult{Bean: v.(*UnitBean)}
				continue
			}
			gsp.Label("outcome", "miss").End()
			f, lead := cb.Cache.Join(key)
			if !lead {
				joins = append(joins, fill{idx: i, key: key, f: f, d: c.D})
				continue
			}
			lf = fill{idx: i, key: key, f: f, d: c.D}
		}
		inner = append(inner, c)
		leaders = append(leaders, lf)
	}
	if len(inner) > 0 {
		res := ComputeUnitsOf(ctx, cb.Inner, inner)
		for j, li := range leaders {
			bean, err := res[j].Bean, res[j].Err
			if li.f == nil {
				// Uncached pass-through: no fill, no cache store.
				out[li.idx] = res[j]
				continue
			}
			if err != nil {
				cb.Cache.Finish(li.f, bean, err)
				out[li.idx].Bean, out[li.idx].Err = cb.degraded(li.key, err)
				continue
			}
			ttl := time.Duration(0)
			if li.d.Cache.TTLSeconds > 0 {
				ttl = time.Duration(li.d.Cache.TTLSeconds) * time.Second
			}
			psp := obs.Leaf(ctx, "cache.put").Label("unit", li.d.ID)
			stored := cb.Cache.PutIfFresh(li.key, bean, li.d.Reads, ttl, li.f.Epoch())
			psp.Label("stored", strconv.FormatBool(stored)).End()
			cb.Cache.Finish(li.f, bean, nil)
			out[li.idx] = UnitResult{Bean: bean}
		}
	}
	// Joined fills resolve after the inner batch: a same-batch leader
	// (same key twice in one level) has finished by now, and fills led
	// by other requests were already computing concurrently. A joiner
	// does not wait past its own request's budget for someone else's
	// leader; a stale bean within bound still beats an error.
	for _, jn := range joins {
		wsp := obs.Leaf(ctx, "cache.wait").Label("unit", jn.d.ID)
		_, _, err := Await(ctx, jn.f.Done())
		wsp.EndErr(err)
		var v interface{}
		if err == nil {
			v, err = jn.f.Result()
		}
		if err != nil {
			out[jn.idx].Bean, out[jn.idx].Err = cb.degraded(jn.key, err)
			continue
		}
		out[jn.idx] = UnitResult{Bean: v.(*UnitBean)}
	}
	return out
}

// fill is one cached miss of a level: the call index it resolves and the
// fill its request leads (an inner-batch slot) or joined.
type fill struct {
	idx int
	key string
	f   *cache.Fill
	d   *descriptor.Unit
}

// levelScratch is CachedBusiness.ComputeUnits' scratch for a level of up
// to four units, made as one value: the results it returns, and the calls
// it passes down with the fills they lead.
type levelScratch struct {
	out     [4]UnitResult
	inner   [4]UnitCall
	leaders [4]fill
}

// newLevelScratch returns the results, and empty call and fill lists of
// capacity n, for a level of n units.
func newLevelScratch(n int) ([]UnitResult, []UnitCall, []fill) {
	if n > 4 {
		return make([]UnitResult, n), make([]UnitCall, 0, n), make([]fill, 0, n)
	}
	s := new(levelScratch)
	return s.out[:n:n], s.inner[:0:n], s.leaders[:0:n]
}
