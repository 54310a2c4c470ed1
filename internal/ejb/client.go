package ejb

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
)

// defaultConnsPerEndpoint is the connection budget per container: a few
// persistent multiplexed connections carry every in-flight frame.
const defaultConnsPerEndpoint = 3

// Deprecated: WireFramed selects nothing — wire v2 is the only protocol.
const WireFramed = "framed"

// RemoteBusiness is the client stub: it implements mvc.Business by
// calling components deployed in one or more remote containers. The
// action classes in the servlet container "call the appropriate business
// objects, which implement the actual application functions" (Section 4).
//
// The stub is the resilience boundary of the tier split: each container
// address gets its own circuit breaker, calls carry the request deadline
// onto the wire and the socket (a hung container can never wedge a
// servlet worker), and idempotent calls (units, pages) transparently
// fail over to the next healthy container. Operations never fail over
// once the request may have reached a container — a write either
// happened or its error surfaces.
//
// Transport: wire protocol v2 (framed, multiplexed binary exchange —
// many frames in flight on a few persistent connections per endpoint,
// plus level-batched unit invocation). A peer that does not complete
// the v2 handshake is a transport error like any other: it counts
// against the endpoint's breaker and the call fails over.
type RemoteBusiness struct {
	// Deprecated: Wire selects nothing — wire v2 is the only protocol.
	Wire string
	// CallLat records per-endpoint remote call latency (created by Dial;
	// always on, atomics only). Registered with the /metrics registry by
	// the app wiring. Each item of a level batch observes its level's
	// exchange.
	CallLat *obs.HistogramVec
	// BatchLat records the wall time of one level-batched frame exchange
	// per endpoint (created by Dial).
	BatchLat *obs.HistogramVec

	framesSent atomic.Int64
	framesRecv atomic.Int64
	stats      *wireStats

	// latency, when positive, injects an artificial network delay per
	// call, as a real machine boundary would add on loopback. A batched
	// level pays it once, not once per unit.
	latency time.Duration
	// conns bounds the persistent multiplexed connections per container
	// (<=0 selects defaultConnsPerEndpoint).
	conns int
	// brkThreshold/brkCooldown apply to endpoints discovered after
	// setBreaker (membership-driven adds inherit the configuration).
	brkThreshold int
	brkCooldown  time.Duration

	mu        sync.Mutex
	endpoints []*endpoint // copy-on-write: replaced wholesale, never mutated in place
	draining  []*endpoint // removed from rotation, still finishing frames
	next      int
	stopWatch func()
}

// endpoint is one container address: its breaker, its connections, and a
// generation counter. Any observed connection failure bumps the
// generation and retires every connection of the old one — the container
// behind them died or restarted, so none can be trusted again (a dead
// connection must never be handed out twice).
type endpoint struct {
	addr string
	brk  *breaker

	rejected atomic.Int64 // calls refused outright by the open breaker
	// inflight counts invocations (calls and batches) currently issued
	// against this endpoint — the client half of the drain handshake: a
	// retiring container is closed only once this reaches zero.
	inflight atomic.Int64

	// dialMu serializes framed dials so a cold or just-failed endpoint
	// is probed by one handshake at a time.
	dialMu sync.Mutex

	mu     sync.Mutex
	mconns []*mconn // multiplexed connections (shared by all calls)
	mnext  int
	gen    uint64
}

// Dial returns a client for the given container addresses (a fixed
// endpoint set — StaticMembership under the hood).
func Dial(addrs ...string) (*RemoteBusiness, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("ejb: no container addresses")
	}
	return DialMembership(StaticMembership(addrs))
}

// DialMembership returns a client whose endpoint set follows the given
// membership: additions become routable endpoints, removals leave the
// rotation immediately (in-flight frames on them finish undisturbed).
// An empty membership is legal — calls fail until an endpoint appears.
func DialMembership(m Membership) (*RemoteBusiness, error) {
	r := &RemoteBusiness{
		CallLat: obs.NewHistogramVec("webml_ejb_call_seconds",
			"Remote EJB call latency by container address.", "addr"),
		BatchLat: obs.NewHistogramVec("webml_ejb_batch_seconds",
			"Level-batched remote unit invocation latency by container address.", "addr"),
	}
	r.stats = &wireStats{
		framesSent: func() { r.framesSent.Add(1) },
		framesRecv: func() { r.framesRecv.Add(1) },
	}
	r.setEndpoints(m.Snapshot())
	r.stopWatch = m.Watch(r.setEndpoints)
	return r, nil
}

// eps returns the current endpoint set. The slice is copy-on-write:
// setEndpoints always installs a fresh slice, so holders iterate a
// stable snapshot without the lock.
func (r *RemoteBusiness) eps() []*endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.endpoints
}

// setEndpoints reconciles the endpoint set against a membership
// snapshot: kept addresses retain their endpoint state (breaker
// history, connections, generation), new addresses get fresh
// endpoints, and removed endpoints leave the rotation. A removed
// endpoint's idle connections are closed; connections with frames in
// flight are left alone — the retiring container answers them and the
// supervisor closes it only once drained.
func (r *RemoteBusiness) setEndpoints(addrs []string) {
	r.mu.Lock()
	old := make(map[string]*endpoint, len(r.endpoints))
	for _, ep := range r.endpoints {
		old[ep.addr] = ep
	}
	next := make([]*endpoint, 0, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if seen[a] {
			continue
		}
		seen[a] = true
		if ep, ok := old[a]; ok {
			next = append(next, ep)
			delete(old, a)
			continue
		}
		next = append(next, &endpoint{addr: a, brk: newBreaker(r.brkThreshold, r.brkCooldown)})
	}
	r.endpoints = next
	// Removed endpoints stay visible on the draining list until their
	// last frame answers, so InFlight keeps reporting them to the
	// supervisor's drain poll.
	keepDraining := r.draining[:0]
	for _, ep := range r.draining {
		if !seen[ep.addr] && ep.inflight.Load() > 0 {
			keepDraining = append(keepDraining, ep)
		}
	}
	r.draining = keepDraining
	for _, ep := range old {
		r.draining = append(r.draining, ep)
	}
	r.mu.Unlock()
	for _, ep := range old {
		ep.quiesce()
	}
}

// quiesce closes a removed endpoint's idle connections: those with no
// frames awaiting replies. Busy connections survive until their frames
// answer; the container's own Close severs them after the drain
// handshake.
func (ep *endpoint) quiesce() {
	ep.mu.Lock()
	var idle []*mconn
	keep := ep.mconns[:0]
	for _, m := range ep.mconns {
		if m.pendingCount() == 0 {
			idle = append(idle, m)
		} else {
			keep = append(keep, m)
		}
	}
	ep.mconns = keep
	ep.mu.Unlock()
	for _, m := range idle {
		m.fail(errConnClosed)
	}
}

// Endpoints returns the current endpoint addresses in rotation order.
func (r *RemoteBusiness) Endpoints() []string {
	eps := r.eps()
	out := make([]string, len(eps))
	for i, ep := range eps {
		out[i] = ep.addr
	}
	return out
}

// InFlight reports how many invocations are currently issued against
// the given endpoint address, counting endpoints removed from the
// rotation but still finishing frames (0 for unknown addresses). The
// supervisor polls it before closing a retiring container.
func (r *RemoteBusiness) InFlight(addr string) int {
	r.mu.Lock()
	eps := r.endpoints
	draining := append([]*endpoint(nil), r.draining...)
	r.mu.Unlock()
	n := 0
	for _, ep := range eps {
		if ep.addr == addr {
			n += int(ep.inflight.Load())
		}
	}
	for _, ep := range draining {
		if ep.addr == addr {
			n += int(ep.inflight.Load())
		}
	}
	return n
}

// setBreaker reconfigures every endpoint's circuit breaker (zero values
// select the defaults: threshold 3, cooldown 200ms). Endpoints added
// later by a membership change inherit the same configuration.
func (r *RemoteBusiness) setBreaker(threshold int, cooldown time.Duration) {
	r.mu.Lock()
	r.brkThreshold, r.brkCooldown = threshold, cooldown
	eps := r.endpoints
	r.mu.Unlock()
	for _, ep := range eps {
		ep.brk = newBreaker(threshold, cooldown)
	}
}

var (
	_ mvc.Business      = (*RemoteBusiness)(nil)
	_ mvc.BatchComputer = (*RemoteBusiness)(nil)
)

// ComputeUnit implements mvc.Business remotely. Unit reads are
// idempotent, so they fail over across containers.
func (r *RemoteBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
	resp, err := r.call(ctx, &request{Kind: "unit", Descriptor: d, Inputs: inputs})
	if err != nil {
		return nil, err
	}
	return resp.Bean, nil
}

// ExecuteOperation implements mvc.Business remotely. Operations fail
// over only while the request provably never left this process (dial
// errors, open breakers) — once it may have reached a container, the
// error surfaces rather than risking a double write.
func (r *RemoteBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.OpResult, error) {
	resp, err := r.call(ctx, &request{Kind: "operation", Descriptor: d, Inputs: inputs})
	if err != nil {
		return nil, err
	}
	return resp.Op, nil
}

// SupportsUnitBatch implements mvc.BatchComputer: the stub is the
// batching transport at the bottom of every decorator chain.
func (r *RemoteBusiness) SupportsUnitBatch() bool { return true }

// ComputeUnits implements mvc.BatchComputer: all unit computations of
// one schedule level travel as a single batch frame and come back as a
// single reply frame — one round trip per level instead of one per unit.
// Reads are idempotent, so on a transport failure the whole level
// re-runs on the next endpoint; per-item application errors are final.
func (r *RemoteBusiness) ComputeUnits(ctx context.Context, calls []mvc.UnitCall) []mvc.UnitResult {
	out := make([]mvc.UnitResult, len(calls))
	if len(calls) == 0 {
		return out
	}
	if r.latency > 0 {
		time.Sleep(r.latency)
	}
	deadline, _ := ctx.Deadline() // zero: unbounded
	bsp := obs.Leaf(ctx, "ejb.batch").Label("units", strconv.Itoa(len(calls)))
	eps := r.eps()
	r.mu.Lock()
	start := r.next
	r.next++
	r.mu.Unlock()
	var lastErr error
	for i := range eps {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		ep := eps[(start+i)%len(eps)]
		if !ep.brk.allow() {
			lastErr = fmt.Errorf("ejb: %s: circuit open", ep.addr)
			ep.rejected.Add(1)
			obs.Leaf(ctx, "ejb.reject").Label("addr", ep.addr).EndErr(lastErr)
			continue
		}
		ep.inflight.Add(1)
		err := r.batchOn(ctx, ep, calls, out, deadline)
		ep.inflight.Add(-1)
		if err == nil {
			bsp.End()
			return out
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("ejb: no container endpoints")
	}
	for i := range out {
		out[i] = mvc.UnitResult{Err: lastErr}
	}
	bsp.EndErr(lastErr)
	return out
}

// batchOn runs the level on one endpoint, retrying once on a fresh
// connection when a persistent one fails (like callOn), and fills out
// from the reply. It returns the transport error that stopped it, if
// any.
func (r *RemoteBusiness) batchOn(ctx context.Context, ep *endpoint, calls []mvc.UnitCall, out []mvc.UnitResult, deadline time.Time) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if !deadline.IsZero() && time.Until(deadline) <= 0 {
			if lastErr == nil {
				lastErr = context.DeadlineExceeded
			}
			return lastErr
		}
		mc, fresh, err := ep.framedConn(r, deadline)
		if err != nil {
			ep.brk.failure()
			if lastErr == nil {
				lastErr = err
			}
			return lastErr
		}
		breq := batchRequest{DeadlineMS: budgetMS(deadline), Calls: make([]batchCall, len(calls))}
		spans := make([]*obs.SpanHandle, len(calls))
		for j := range calls {
			sp := obs.Leaf(ctx, "ejb.call").Label("addr", ep.addr).Label("kind", "unit").Label("batch", "1")
			tid, sid := sp.Wire()
			breq.TraceID = tid
			breq.Calls[j] = batchCall{SpanID: sid, Descriptor: calls[j].D, Inputs: calls[j].Inputs}
			spans[j] = sp
		}
		started := time.Now()
		items, err := mc.batch(&breq, deadline, ctx.Done())
		took := time.Since(started)
		if r.BatchLat != nil {
			r.BatchLat.ObserveErr(ep.addr, took, err != nil)
		}
		if err == nil {
			ep.brk.success()
			for j, resp := range items {
				if r.CallLat != nil {
					r.CallLat.ObserveErr(ep.addr, took, resp.Err != "")
				}
				spans[j].ImportRemote(resp.Spans)
				if resp.Err != "" {
					// Application-level error: the container executed the
					// item; re-running it elsewhere would produce the same
					// answer.
					e := fmt.Errorf("ejb: remote: %s", resp.Err)
					spans[j].EndErr(e)
					out[j] = mvc.UnitResult{Err: e}
				} else {
					spans[j].End()
					out[j] = mvc.UnitResult{Bean: resp.Bean}
				}
			}
			return nil
		}
		for _, sp := range spans {
			sp.EndErr(err)
		}
		if errors.Is(err, context.Canceled) {
			// Abandoned by the caller's context: mc.batch deregistered the
			// frame, the shared connection stays healthy, and the container
			// is blameless — no teardown, no breaker failure.
			return err
		}
		mc.fail(err)
		ep.dropGeneration(mc.gen)
		ep.brk.failure()
		lastErr = err
		if fresh {
			break
		}
	}
	return lastErr
}

// budgetMS is the wire form of the budget left until deadline: whole
// milliseconds, at least 1, and 0 for no deadline. It is computed for
// every frame sent, so a call that fails over hands the next container
// only what is left.
func budgetMS(deadline time.Time) int64 {
	if deadline.IsZero() {
		return 0
	}
	return max(time.Until(deadline).Milliseconds(), 1)
}

// Pages returns a remote page computer over the same connections: the
// whole computePage() runs in the container, one round trip per page.
// The container must have a deployed page service (DeployPages).
func (r *RemoteBusiness) Pages() mvc.PageComputer { return remotePages{rb: r} }

type remotePages struct{ rb *RemoteBusiness }

// ComputePage implements mvc.PageComputer remotely. Page computations
// are idempotent reads and fail over like units.
func (p remotePages) ComputePage(ctx context.Context, pageID string, params map[string]mvc.Value, formState map[string]*mvc.FormState) (*mvc.PageState, error) {
	resp, err := p.rb.call(ctx, &request{Kind: "page", PageID: pageID, Inputs: params, FormState: formState})
	if err != nil {
		return nil, err
	}
	return resp.Page, nil
}

// call routes one invocation: starting from the round-robin cursor, it
// tries each endpoint whose breaker admits the call, failing over on
// transport errors (idempotent kinds only) until an endpoint answers or
// all are exhausted.
func (r *RemoteBusiness) call(ctx context.Context, req *request) (*response, error) {
	if r.latency > 0 {
		time.Sleep(r.latency)
	}
	deadline, _ := ctx.Deadline() // zero: unbounded
	readOnly := req.Kind != "operation"
	eps := r.eps()
	r.mu.Lock()
	start := r.next
	r.next++
	r.mu.Unlock()
	if len(eps) == 0 {
		return nil, fmt.Errorf("ejb: no container endpoints")
	}
	var lastErr error
	for i := 0; i < len(eps); i++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return nil, lastErr
		}
		ep := eps[(start+i)%len(eps)]
		if !ep.brk.allow() {
			lastErr = fmt.Errorf("ejb: %s: circuit open", ep.addr)
			ep.rejected.Add(1)
			// Instant span: the trace shows the breaker decision, not
			// just the absence of a call.
			obs.Leaf(ctx, "ejb.reject").Label("addr", ep.addr).EndErr(lastErr)
			continue
		}
		sp := obs.Leaf(ctx, "ejb.call").Label("addr", ep.addr).Label("kind", req.Kind)
		req.TraceID, req.SpanID = sp.Wire()
		attempt := time.Now()
		ep.inflight.Add(1)
		resp, sent, err := r.callOn(ctx, ep, req, deadline, readOnly)
		ep.inflight.Add(-1)
		if r.CallLat != nil {
			r.CallLat.ObserveErr(ep.addr, time.Since(attempt), err != nil)
		}
		if err == nil {
			sp.ImportRemote(resp.Spans)
			if resp.Err != "" {
				// Application-level error: the container is healthy and
				// already executed the call; failing over would just run
				// it again for the same answer.
				err := fmt.Errorf("ejb: remote: %s", resp.Err)
				sp.EndErr(err)
				return nil, err
			}
			sp.End()
			return resp, nil
		}
		sp.EndErr(err)
		lastErr = err
		if sent && !readOnly {
			return nil, err
		}
	}
	return nil, lastErr
}

// callOn performs one invocation against a single endpoint, retrying
// once on a fresh connection when an existing one fails (the container
// may have restarted since — one fresh dial distinguishes a stale
// connection from a dead endpoint). sent reports whether the request may
// have reached the container (operations must not be resent once it
// did). The call shares a multiplexed connection; its failure fails
// every frame in flight on it, and each affected call runs this same
// failover loop independently.
func (r *RemoteBusiness) callOn(ctx context.Context, ep *endpoint, req *request, deadline time.Time, readOnly bool) (*response, bool, error) {
	sent := false
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if !deadline.IsZero() && time.Until(deadline) <= 0 {
			if lastErr == nil {
				lastErr = context.DeadlineExceeded
			}
			return nil, sent, lastErr
		}
		mc, fresh, err := ep.framedConn(r, deadline)
		if err != nil {
			ep.brk.failure()
			if lastErr == nil {
				lastErr = err
			}
			return nil, sent, lastErr
		}
		req.DeadlineMS = budgetMS(deadline)
		resp, err := mc.call(req, deadline, ctx.Done())
		if err == nil {
			ep.brk.success()
			return resp, true, nil
		}
		if errors.Is(err, context.Canceled) {
			// The caller abandoned the call; mc.call already
			// deregistered the frame and the shared connection stays
			// healthy. Killing it would fail every unrelated in-flight
			// frame and count a breaker failure against a container
			// that did nothing wrong.
			return nil, true, err
		}
		// The frame may have reached the container before the
		// connection died; from here an operation is unsafe to resend.
		sent = true
		mc.fail(err)
		ep.dropGeneration(mc.gen)
		ep.brk.failure()
		lastErr = err
		if fresh || !readOnly {
			break
		}
	}
	return nil, sent, lastErr
}

// framedConn returns a live multiplexed connection for the endpoint:
// round-robin over the persistent set, dialing a new one while under
// the connection budget. fresh reports a just-dialed connection (its
// failure condemns the endpoint attempt rather than warranting a retry).
func (ep *endpoint) framedConn(r *RemoteBusiness, deadline time.Time) (*mconn, bool, error) {
	limit := r.conns
	if limit <= 0 {
		limit = defaultConnsPerEndpoint
	}
	ep.mu.Lock()
	live := ep.mconns[:0]
	for _, m := range ep.mconns {
		if !m.isDead() {
			live = append(live, m)
		}
	}
	ep.mconns = live
	if len(ep.mconns) >= limit {
		ep.mnext++
		m := ep.mconns[ep.mnext%len(ep.mconns)]
		ep.mu.Unlock()
		return m, false, nil
	}
	ep.mu.Unlock()

	// One handshake at a time per endpoint; a waiter re-checks the
	// set its predecessor may have filled.
	ep.dialMu.Lock()
	defer ep.dialMu.Unlock()
	ep.mu.Lock()
	if len(ep.mconns) >= limit {
		ep.mnext++
		m := ep.mconns[ep.mnext%len(ep.mconns)]
		ep.mu.Unlock()
		return m, false, nil
	}
	gen := ep.gen
	ep.mu.Unlock()
	m, err := framedDial(ep.addr, gen, deadline, r.stats)
	if err != nil {
		return nil, false, err
	}
	ep.mu.Lock()
	// The dial itself proved the endpoint live just now, so the
	// connection belongs to the current generation even if the one we
	// started from was retired mid-dial.
	m.gen = ep.gen
	ep.mconns = append(ep.mconns, m)
	ep.mu.Unlock()
	return m, true, nil
}

// dropGeneration retires the generation a failed connection belonged
// to: the counter advances (unless a concurrent failure already did)
// and every connection of a retired generation is failed, so a
// connection whose container died is never handed out again.
func (ep *endpoint) dropGeneration(gen uint64) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if gen == ep.gen {
		ep.gen++
	}
	keep := ep.mconns[:0]
	for _, m := range ep.mconns {
		if m.gen != ep.gen {
			m.fail(errConnClosed)
		} else {
			keep = append(keep, m)
		}
	}
	ep.mconns = keep
}

// EndpointHealth is the client-side view of one container address,
// surfaced through /healthz: the point-in-time breaker state plus its
// transition history — how many times it tripped, when it last opened,
// and when the state last changed.
type EndpointHealth struct {
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Failures int    `json:"failures"`
	// Conns counts live multiplexed connections.
	Conns int `json:"conns"`
	// Opens counts how many times the breaker tripped open since start.
	Opens int64 `json:"opens"`
	// Rejected counts calls refused outright while the breaker was open.
	Rejected int64 `json:"rejected"`
	// LastOpenedAt is when the breaker last tripped (nil = never).
	LastOpenedAt *time.Time `json:"lastOpenedAt,omitempty"`
	// LastTransition is when the state last changed (nil = never left
	// closed).
	LastTransition *time.Time `json:"lastTransition,omitempty"`
}

// Health snapshots every endpoint's breaker state and connection counts.
func (r *RemoteBusiness) Health() []EndpointHealth {
	eps := r.eps()
	out := make([]EndpointHealth, len(eps))
	for i, ep := range eps {
		st := ep.brk.status()
		ep.mu.Lock()
		conns := len(ep.mconns)
		ep.mu.Unlock()
		h := EndpointHealth{
			Addr:     ep.addr,
			State:    st.state,
			Failures: st.failures,
			Conns:    conns,
			Opens:    st.opens,
			Rejected: ep.rejected.Load(),
		}
		if !st.openedAt.IsZero() {
			t := st.openedAt
			h.LastOpenedAt = &t
		}
		if !st.lastChange.IsZero() {
			t := st.lastChange
			h.LastTransition = &t
		}
		out[i] = h
	}
	return out
}

// FrameStats reports the framed transport's counters: frames sent,
// frames received, and frames currently awaiting their reply.
func (r *RemoteBusiness) FrameStats() (sent, recv, inflight int64) {
	for _, ep := range r.eps() {
		ep.mu.Lock()
		for _, m := range ep.mconns {
			inflight += int64(m.pendingCount())
		}
		ep.mu.Unlock()
	}
	return r.framesSent.Load(), r.framesRecv.Load(), inflight
}

// RetryAfter estimates when a caller refused by open breakers should
// retry: the soonest remaining cooldown among open endpoints, rounded
// up to a whole second (minimum 1s) — the value behind /healthz's
// Retry-After header on 503.
func (r *RemoteBusiness) RetryAfter() time.Duration {
	soonest := time.Duration(-1)
	now := time.Now()
	for _, ep := range r.eps() {
		st := ep.brk.status()
		if st.state != BreakerOpen {
			continue
		}
		left := st.cooldown - now.Sub(st.openedAt)
		if left < 0 {
			left = 0
		}
		if soonest < 0 || left < soonest {
			soonest = left
		}
	}
	if soonest < 0 {
		soonest = 0
	}
	// Round up to whole seconds: Retry-After is integral.
	secs := (soonest + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	return secs * time.Second
}

// Close cancels the membership watch and drops all connections
// (draining endpoints included).
func (r *RemoteBusiness) Close() {
	r.mu.Lock()
	stop := r.stopWatch
	r.stopWatch = nil
	eps := append(append([]*endpoint(nil), r.endpoints...), r.draining...)
	r.draining = nil
	r.mu.Unlock()
	if stop != nil {
		stop()
	}
	for _, ep := range eps {
		ep.mu.Lock()
		mcs := ep.mconns
		ep.mconns = nil
		ep.mu.Unlock()
		for _, m := range mcs {
			m.fail(errConnClosed)
		}
	}
}
