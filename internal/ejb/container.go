package ejb

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
)

// Container hosts the business components and serves remote invocations.
// Its execution capacity (the number of concurrently active component
// instances) adapts at runtime — the elasticity a static set of servlet
// clones cannot offer ("the number of clones must be decided statically,
// and cannot be adapted at runtime", Section 4).
type Container struct {
	business mvc.Business
	// pages serves whole-page computations when a repository is deployed
	// alongside the business tier (DeployPages).
	pages *mvc.PageService

	mu       sync.Mutex
	capacity int
	active   int
	cond     *sync.Cond
	closed   bool

	served    int64
	maxActive int
	// queued counts invocations waiting for an instance slot — the
	// primary scale-up signal the elastic supervisor polls.
	queued    int
	maxQueued int

	// invokeLat records invocation latency by kind (page/unit/operation)
	// — the container half of the per-stage histograms, exposed at the
	// container's own /metrics.
	invokeLat *obs.HistogramVec
	// queueLat records capacity-gate queue wait by kind: the container-
	// side sojourn histogram.
	queueLat *obs.HistogramVec

	// Wire-v2 frame counters: frames read and written across all framed
	// connections, plus frames currently being served.
	framesIn    atomic.Int64
	framesOut   atomic.Int64
	frameActive atomic.Int64

	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewContainer wraps a business tier with the given initial capacity
// (<=0 selects 16).
func NewContainer(business mvc.Business, capacity int) *Container {
	if capacity <= 0 {
		capacity = 16
	}
	c := &Container{
		business: business,
		capacity: capacity,
		invokeLat: obs.NewHistogramVec("webml_container_invoke_seconds",
			"Container invocation latency by request kind.", "kind"),
		queueLat: obs.NewHistogramVec("webml_container_queue_seconds",
			"Capacity-gate queue wait by request kind.", "kind"),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// DeployPages additionally deploys the generic page service (the "Page
// EJBs" of Figure 6), so the web tier can request whole pages in one
// round trip instead of one call per unit. The page service is
// instrumented with the container's per-page/per-unit histograms unless
// it already carries its own.
func (c *Container) DeployPages(pages *mvc.PageService) {
	if pages.PageLat == nil {
		pages.PageLat = obs.NewHistogramVec("webml_page_compute_seconds",
			"Page computation latency by page.", "page")
	}
	if pages.UnitLat == nil {
		pages.UnitLat = obs.NewHistogramVec("webml_unit_compute_seconds",
			"Unit service latency by unit.", "unit")
	}
	c.mu.Lock()
	c.pages = pages
	c.mu.Unlock()
}

// Serve starts accepting connections on addr ("127.0.0.1:0" picks a free
// port) and returns the bound address.
func (c *Container) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.serveOn(ln)
	return ln.Addr().String(), nil
}

// serveOn starts accepting connections on an existing listener; tests
// hand it one that records the connections it accepts.
func (c *Container) serveOn(ln net.Listener) {
	c.ln = ln
	c.wg.Add(1)
	go c.acceptLoop(ln)
}

func (c *Container) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serveConn(conn)
		}()
	}
}

func (c *Container) serveConn(conn net.Conn) {
	defer conn.Close()
	// Track the connection so Close can sever it: an idle keep-alive
	// connection would otherwise pin its handler goroutine in readFrame
	// forever and wedge the container shutdown.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if c.conns == nil {
		c.conns = make(map[net.Conn]struct{})
	}
	c.conns[conn] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()
	// Handshake: the client opens with the magic and gets it echoed
	// back. The wait is bounded — a peer that connects and stays silent
	// must not pin this goroutine until Close — and anything but the
	// magic is closed at once.
	br := bufio.NewReader(conn)
	var hs [6]byte
	conn.SetDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck // failure surfaces on the I/O below
	if _, err := io.ReadFull(br, hs[:]); err != nil || !isHandshake(hs[:]) {
		return
	}
	if _, err := conn.Write(handshakeBytes()); err != nil {
		return
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck // failure surfaces on the I/O below
	c.serveFramed(conn, br)
}

// serveFramed is the wire-v2 loop: every request frame is served by its
// own goroutine (the capacity gate in gated is the actual concurrency
// limiter), so many frames progress concurrently on one connection, and
// each is answered by one reply frame: an ftReply for a call, an
// ftBatchReply for a batch once all its items are computed.
func (c *Container) serveFramed(conn net.Conn, br *bufio.Reader) {
	var wmu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()
	serve := func(id uint64, req *request, breq *batchRequest) {
		c.frameActive.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.frameActive.Add(-1)
			w := getWbuf()
			defer putWbuf(w)
			if breq != nil {
				w.byte(ftBatchReply)
				w.uvarint(id)
				w.batchReply(c.serveBatch(breq))
			} else {
				w.byte(ftReply)
				w.uvarint(id)
				w.response(c.serveOne(req))
			}
			err := w.err
			if err == nil {
				wmu.Lock()
				_, err = conn.Write(w.frame())
				wmu.Unlock()
			}
			if err != nil {
				// Sever the connection so the read loop unblocks; the
				// client fails its in-flight frames over.
				conn.Close()
				return
			}
			c.framesOut.Add(1)
		}()
	}
	for {
		payload, err := readFrame(br)
		if err != nil {
			return
		}
		c.framesIn.Add(1)
		r := rbuf{b: payload}
		ft := r.byte()
		id := r.uvarint()
		switch ft {
		case ftCall:
			req, err := r.request()
			if err != nil {
				return // corrupt stream: drop the connection
			}
			serve(id, req, nil)
		case ftBatch:
			breq, err := r.batchRequest()
			if err != nil {
				return
			}
			serve(id, nil, breq)
		default:
			return // protocol violation: drop the connection
		}
	}
}

// callerContext is a frame's invocation context: bounded by the caller's
// wire deadline when it sent one, so a deadline set in the servlet tier
// bounds work in the application server too.
func callerContext(deadlineMS int64) (context.Context, context.CancelFunc) {
	if deadlineMS > 0 {
		return context.WithTimeout(context.Background(), time.Duration(deadlineMS)*time.Millisecond)
	}
	return context.Background(), func() {}
}

// serveOne serves one call frame.
func (c *Container) serveOne(req *request) *response {
	ctx, cancel := callerContext(req.DeadlineMS)
	defer cancel()
	return c.invoke(ctx, req.TraceID, req.SpanID, req.Kind, func(ctx context.Context) *response {
		return c.compute(ctx, req)
	})
}

// serveBatch serves one level under the batch's one deadline. The items
// run concurrently under the capacity gate, the first on the serving
// goroutine, so the level takes as long as its slowest unit; the
// responses are in call order.
func (c *Container) serveBatch(breq *batchRequest) []*response {
	ctx, cancel := callerContext(breq.DeadlineMS)
	defer cancel()
	out := make([]*response, len(breq.Calls))
	item := func(i int) {
		call := &breq.Calls[i]
		out[i] = c.invoke(ctx, breq.TraceID, call.SpanID, "unit", func(ctx context.Context) *response {
			return c.computeUnit(ctx, call.Descriptor, call.Inputs)
		})
	}
	var wg sync.WaitGroup
	for i := 1; i < len(out); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			item(i)
		}()
	}
	if len(out) > 0 {
		item(0)
	}
	wg.Wait()
	return out
}

// invoke runs one component call under the capacity gate, recording its
// latency and (when traced) a container.invoke span. It reconstructs the
// caller's trace — same trace ID, span IDs offset by the calling span,
// parented under it — and the response carries the spans back for
// client-side stitching, also on the panic path. A panicking component
// (user-supplied custom services run arbitrary code) becomes this
// invocation's error response instead of killing the container process.
func (c *Container) invoke(ctx context.Context, traceID, spanID uint64, kind string, run func(context.Context) *response) (resp *response) {
	var rt *obs.Trace
	defer func() {
		if r := recover(); r != nil {
			resp = &response{Err: fmt.Sprintf("ejb: component panicked: %v", r)}
		}
		if rt != nil && resp != nil {
			resp.Spans = rt.Export()
		}
	}()
	if traceID != 0 {
		rt = obs.NewRemoteTrace(traceID, spanID)
		ctx = obs.ContextWithTrace(ctx, rt, spanID)
	}
	start := time.Now()
	sp := obs.Leaf(ctx, "container.invoke").Label("kind", kind)
	resp = c.gated(ctx, kind, run)
	c.invokeLat.ObserveErr(kind, time.Since(start), resp.Err != "")
	if resp.Err != "" {
		sp.EndErr(errors.New(resp.Err))
	} else {
		sp.End()
	}
	return resp
}

// gated runs the call once an instance slot is free, adding a
// container.queue span whenever it had to wait, so a trace distinguishes
// queueing from computing.
func (c *Container) gated(ctx context.Context, kind string, run func(context.Context) *response) *response {
	c.mu.Lock()
	var qsp *obs.SpanHandle
	var qstart time.Time
	waited := false
	for c.active >= c.capacity && !c.closed && ctx.Err() == nil {
		if !waited {
			waited = true
			qsp = obs.Leaf(ctx, "container.queue")
			qstart = time.Now()
			c.queued++
			if c.queued > c.maxQueued {
				c.maxQueued = c.queued
			}
		}
		c.cond.Wait()
	}
	if waited {
		c.queued--
		c.queueLat.Observe(kind, time.Since(qstart))
	}
	qsp.End()
	if c.closed {
		c.mu.Unlock()
		return &response{Err: "ejb: container closed"}
	}
	if err := ctx.Err(); err != nil {
		// The caller's budget ran out while this invocation queued for
		// capacity; don't burn an instance slot on a dead request — but
		// pass the wakeup on, or the signal that woke this waiter would
		// be lost and a live waiter could sleep through a free slot.
		if waited && c.active < c.capacity {
			c.cond.Signal()
		}
		c.mu.Unlock()
		return &response{Err: err.Error()}
	}
	c.active++
	if c.active > c.maxActive {
		c.maxActive = c.active
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.active--
		c.served++
		c.mu.Unlock()
		c.cond.Signal()
	}()
	return run(ctx)
}

// compute runs a call frame's request.
func (c *Container) compute(ctx context.Context, req *request) *response {
	switch req.Kind {
	case "page":
		if c.pages == nil {
			return &response{Err: "ejb: container has no deployed page service"}
		}
		state, err := c.pages.ComputePage(ctx, req.PageID, req.Inputs, req.FormState)
		if err != nil {
			return &response{Err: err.Error()}
		}
		return &response{Page: state}
	case "unit":
		return c.computeUnit(ctx, req.Descriptor, req.Inputs)
	case "operation":
		res, err := c.business.ExecuteOperation(ctx, req.Descriptor, req.Inputs)
		if err != nil {
			return &response{Err: err.Error()}
		}
		return &response{Op: res}
	default:
		return &response{Err: fmt.Sprintf("ejb: unknown request kind %q", req.Kind)}
	}
}

func (c *Container) computeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) *response {
	bean, err := c.business.ComputeUnit(ctx, d, inputs)
	if err != nil {
		return &response{Err: err.Error()}
	}
	return &response{Bean: bean}
}

// SetCapacity rescales the number of concurrently active component
// instances at runtime.
func (c *Container) SetCapacity(n int) {
	if n <= 0 {
		n = 1
	}
	c.mu.Lock()
	c.capacity = n
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Metrics reports the container's activity counters.
type Metrics struct {
	Capacity  int
	Active    int
	MaxActive int
	Served    int64
	// Queued is the number of invocations currently waiting for an
	// instance slot; MaxQueued is its high-water mark.
	Queued    int
	MaxQueued int
}

// Metrics returns a snapshot of the container's counters.
func (c *Container) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{Capacity: c.capacity, Active: c.active, MaxActive: c.maxActive,
		Served: c.served, Queued: c.queued, MaxQueued: c.maxQueued}
}

// QueueLatency snapshots the capacity-gate queue-wait histogram
// aggregated across request kinds; differencing successive snapshots
// (HistSnapshot.Delta) gives the queue wait of a window.
func (c *Container) QueueLatency() obs.HistSnapshot {
	var agg obs.HistSnapshot
	for _, s := range c.queueLat.Snapshot() {
		agg = agg.Merge(s.Hist)
	}
	return agg
}

// Quiesced reports whether the container holds no work at all: no
// active invocations, no frames being served, and nothing queued for
// capacity. The drain-then-retire handshake closes a container only
// after Quiesced holds across consecutive polls (and the client stub
// reports no in-flight calls against it).
func (c *Container) Quiesced() bool {
	c.mu.Lock()
	idle := c.active == 0 && c.queued == 0
	c.mu.Unlock()
	return idle && c.frameActive.Load() == 0
}

// HealthHandler returns an http.Handler answering /healthz for this
// container: capacity state as JSON, 200 while open and 503 once
// closed — the probe an operator (or load balancer) points at the
// application-server tier.
func (c *Container) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		m := Metrics{Capacity: c.capacity, Active: c.active, MaxActive: c.maxActive,
			Served: c.served, Queued: c.queued, MaxQueued: c.maxQueued}
		closed := c.closed
		c.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		status := http.StatusOK
		ok := true
		if closed {
			status = http.StatusServiceUnavailable
			ok = false
			// A closed container never reopens; tell probes to back off
			// rather than hammer it.
			w.Header().Set("Retry-After", "5")
		}
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]interface{}{ //nolint:errcheck // best-effort probe response
			"ok":        ok,
			"capacity":  m.Capacity,
			"active":    m.Active,
			"maxActive": m.MaxActive,
			"served":    m.Served,
			"queued":    m.Queued,
			"maxQueued": m.MaxQueued,
		})
	})
}

// MetricsRegistry builds the container tier's /metrics exposition:
// capacity gauges, the per-kind invocation histogram, and — when a page
// service is deployed — the per-page/per-unit compute histograms, so
// both tiers answer with the same model-derived series.
func (c *Container) MetricsRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Gauge("webml_container_capacity", "Configured component instance capacity.", nil,
		func() float64 { return float64(c.Metrics().Capacity) })
	reg.Gauge("webml_container_active", "Currently active component instances.", nil,
		func() float64 { return float64(c.Metrics().Active) })
	reg.Gauge("webml_container_max_active", "High-water mark of active instances.", nil,
		func() float64 { return float64(c.Metrics().MaxActive) })
	reg.Counter("webml_container_served_total", "Invocations served since start.", nil,
		func() float64 { return float64(c.Metrics().Served) })
	reg.Gauge("webml_container_queue_depth", "Invocations waiting for an instance slot.", nil,
		func() float64 { return float64(c.Metrics().Queued) })
	reg.Gauge("webml_container_queue_max", "High-water mark of the capacity-gate queue.", nil,
		func() float64 { return float64(c.Metrics().MaxQueued) })
	reg.RegisterVec(c.queueLat)
	reg.Counter("webml_container_frames_in_total", "Wire-v2 frames read since start.", nil,
		func() float64 { return float64(c.framesIn.Load()) })
	reg.Counter("webml_container_frames_out_total", "Wire-v2 frames written since start.", nil,
		func() float64 { return float64(c.framesOut.Load()) })
	reg.Gauge("webml_container_inflight_frames", "Wire-v2 frames currently being served.", nil,
		func() float64 { return float64(c.frameActive.Load()) })
	reg.RegisterVec(c.invokeLat)
	// The page service may be deployed after this registry is built, so
	// its histograms resolve at scrape time.
	reg.Register(func(e *obs.Exposition) {
		c.mu.Lock()
		p := c.pages
		c.mu.Unlock()
		if p != nil {
			if p.PageLat != nil {
				e.Histogram(p.PageLat)
			}
			if p.UnitLat != nil {
				e.Histogram(p.UnitLat)
			}
		}
	})
	return reg
}

// Close stops accepting connections, severs open ones, and unblocks
// waiting invocations.
func (c *Container) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := make([]net.Conn, 0, len(c.conns))
	for cn := range c.conns {
		conns = append(conns, cn)
	}
	c.mu.Unlock()
	c.cond.Broadcast()
	var err error
	if c.ln != nil {
		err = c.ln.Close()
	}
	for _, cn := range conns {
		cn.Close() //nolint:errcheck // shutdown path
	}
	c.wg.Wait()
	return err
}
