package ejb

import (
	"cmp"
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

// Deprecated: WireFramed selects nothing — the framed wire is the only protocol.
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
// Transport: the framed wire (multiplexed binary exchange — many frames
// in flight on a few persistent connections per endpoint). Every
// invocation is one request frame and one reply frame: a level of units
// is one frame of unit items, an operation or a page a frame of one
// item. A peer that does not complete the handshake is a transport error
// like any other: it counts against the endpoint's breaker and the call
// fails over.
type RemoteBusiness struct {
	// Deprecated: Wire selects nothing — the framed wire is the only protocol.
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

	// conns bounds the persistent multiplexed connections per container
	// (<=0 selects defaultConnsPerEndpoint).
	conns int

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
	// inflight counts invocations (request frames) currently issued
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
		next = append(next, &endpoint{addr: a, brk: newBreaker(0, 0)})
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

var (
	_ mvc.Business      = (*RemoteBusiness)(nil)
	_ mvc.BatchComputer = (*RemoteBusiness)(nil)
)

// ComputeUnit implements mvc.Business remotely as a level of one.
func (r *RemoteBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
	res := r.ComputeUnits(ctx, []mvc.UnitCall{{D: d, Inputs: inputs}})[0]
	return res.Bean, res.Err
}

// ExecuteOperation implements mvc.Business remotely. Operations fail
// over only while the request provably never left this process (dial
// errors, open breakers) — once it may have reached a container, the
// error surfaces rather than risking a double write.
func (r *RemoteBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.OpResult, error) {
	resp, err := r.one(ctx, false, batchCall{Kind: kindOperation, Descriptor: d, Inputs: inputs})
	if err != nil {
		return nil, err
	}
	return resp.Op, nil
}

// ComputeUnits implements mvc.BatchComputer: all unit computations of
// one schedule level travel as a single request frame and come back as a
// single reply frame — one round trip per level instead of one per unit.
// Reads are idempotent, so on a transport failure the whole level
// re-runs on the next endpoint; per-item application errors are final.
func (r *RemoteBusiness) ComputeUnits(ctx context.Context, calls []mvc.UnitCall) []mvc.UnitResult {
	out := make([]mvc.UnitResult, len(calls))
	if len(calls) == 0 {
		return out
	}
	bsp := obs.Leaf(ctx, "ejb.batch").Label("units", strconv.Itoa(len(calls)))
	items := make([]batchCall, len(calls))
	for j, c := range calls {
		items[j] = batchCall{Kind: kindUnit, Descriptor: c.D, Inputs: c.Inputs}
	}
	resps, err := r.send(ctx, true, items)
	for j := range out {
		switch {
		case err != nil:
			out[j].Err = err
		case resps[j].Err != "":
			out[j].Err = remoteErr(&resps[j])
		default:
			out[j].Bean = resps[j].Bean
		}
	}
	bsp.EndErr(err)
	return out
}

// one runs a frame of one item: an operation, which is not idempotent,
// or a page. An application error in the reply is the call's error.
func (r *RemoteBusiness) one(ctx context.Context, idempotent bool, call batchCall) (*response, error) {
	resps, err := r.send(ctx, idempotent, []batchCall{call})
	if err != nil {
		return nil, err
	}
	if err := remoteErr(&resps[0]); err != nil {
		return nil, err
	}
	return &resps[0], nil
}

// remoteError is an item's application-level error: the container
// executed the item, so re-running it elsewhere would give the same
// answer. One its deadline caused is a context.DeadlineExceeded, as in
// process.
type remoteError struct {
	msg      string
	deadline bool
}

func (e *remoteError) Error() string { return "ejb: remote: " + e.msg }

func (e *remoteError) Unwrap() error {
	if e.deadline {
		return context.DeadlineExceeded
	}
	return nil
}

func remoteErr(resp *response) error {
	if resp.Err == "" {
		return nil
	}
	return &remoteError{msg: resp.Err, deadline: resp.Deadline}
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
// The container must have a deployed page service (DeployPages) of the
// units the web tier holds: a reply bean leaves out the schema of its
// unit's descriptor there.
func (r *RemoteBusiness) Pages(units *descriptor.Repository) mvc.PageComputer {
	return remotePages{rb: r, units: units}
}

type remotePages struct {
	rb    *RemoteBusiness
	units *descriptor.Repository
}

// ComputePage implements mvc.PageComputer remotely. Page computations
// are idempotent reads and fail over like units.
func (p remotePages) ComputePage(ctx context.Context, pageID string, params map[string]mvc.Value, formState map[string]*mvc.FormState) (*mvc.PageState, error) {
	resp, err := p.rb.one(ctx, true, batchCall{Kind: kindPage, PageID: pageID, Inputs: params, FormState: formState, Units: p.units})
	if err != nil {
		return nil, err
	}
	return resp.Page, nil
}

// errNoEndpoints fails an invocation when there is no container to try.
var errNoEndpoints = errors.New("ejb: no container endpoints")

// send runs one request frame of items and returns the reply frame's
// responses, one per item in item order, or the transport error that
// failed the frame. Starting from the round-robin cursor, it tries each
// endpoint whose breaker admits it, failing over on transport errors
// until an endpoint answers or all are exhausted. A non-idempotent frame
// stops failing over once it may have left the process.
func (r *RemoteBusiness) send(ctx context.Context, idempotent bool, calls []batchCall) ([]response, error) {
	deadline, _ := ctx.Deadline() // zero: unbounded
	eps := r.eps()
	r.mu.Lock()
	start := r.next
	r.next++
	r.mu.Unlock()
	var lastErr error
	for i := range eps {
		if err := ctx.Err(); err != nil {
			return nil, cmp.Or(lastErr, err)
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
		ep.inflight.Add(1)
		resps, sent, err := r.sendOn(ctx, ep, idempotent, deadline, calls)
		ep.inflight.Add(-1)
		if err == nil {
			return resps, nil
		}
		lastErr = err
		if sent && !idempotent {
			return nil, err
		}
	}
	return nil, cmp.Or(lastErr, errNoEndpoints)
}

// sendOn exchanges the frame with a single endpoint, retrying an
// idempotent one once on a fresh connection when an existing one fails
// (the container may have restarted since — one fresh dial
// distinguishes a stale connection from a dead endpoint). sent reports
// whether the frame may have reached the container (an operation must
// not be resent once it did). The exchange shares a multiplexed
// connection; its failure fails every frame in flight on it, and each
// affected frame runs this same failover loop independently. Each item
// gets an ejb.call span labeled with its kind; a frame of units also
// observes BatchLat.
func (r *RemoteBusiness) sendOn(ctx context.Context, ep *endpoint, idempotent bool, deadline time.Time, calls []batchCall) (resps []response, sent bool, err error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if !deadline.IsZero() && time.Until(deadline) <= 0 {
			return nil, sent, cmp.Or(lastErr, context.DeadlineExceeded)
		}
		mc, fresh, err := ep.framedConn(r, deadline)
		if err != nil {
			ep.brk.failure()
			return nil, sent, cmp.Or(lastErr, err)
		}
		breq := batchRequest{DeadlineMS: budgetMS(deadline), Calls: calls}
		spans := make([]*obs.SpanHandle, 0, 8) // on the stack for most frames
		for j := range calls {
			sp := obs.Leaf(ctx, "ejb.call").Label("addr", ep.addr).Label("kind", kindName(calls[j].Kind))
			breq.TraceID, calls[j].SpanID = sp.Wire()
			spans = append(spans, sp)
		}
		started := time.Now()
		resps, err = mc.batch(ctx, &breq)
		took := time.Since(started)
		if r.BatchLat != nil && calls[0].Kind == kindUnit {
			r.BatchLat.ObserveErr(ep.addr, took, err != nil)
		}
		for j, sp := range spans {
			if r.CallLat != nil {
				r.CallLat.ObserveErr(ep.addr, took, err != nil || resps[j].Err != "")
			}
			if err != nil {
				sp.EndErr(err)
				continue
			}
			sp.ImportRemote(resps[j].Spans)
			sp.EndErr(remoteErr(&resps[j]))
		}
		if err == nil {
			ep.brk.success()
			return resps, true, nil
		}
		if errors.Is(err, context.Canceled) {
			// The caller abandoned the frame; mc.batch already
			// deregistered it and the shared connection stays healthy.
			// Killing it would fail every unrelated in-flight frame and
			// count a breaker failure against a container that did
			// nothing wrong.
			return nil, true, err
		}
		// The frame may have reached the container before the
		// connection died; from here an operation is unsafe to resend.
		sent = true
		mc.fail(err)
		ep.dropGeneration(mc.gen)
		ep.brk.failure()
		lastErr = err
		if fresh || !idempotent {
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
