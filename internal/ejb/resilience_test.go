package ejb

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
)

// funcBusiness adapts plain functions to mvc.Business so fault scenarios
// can script the container side of a call.
type funcBusiness struct {
	compute func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error)
	execute func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.OpResult, error)
}

func (f *funcBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
	return f.compute(ctx, d, inputs)
}

func (f *funcBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.OpResult, error) {
	return f.execute(ctx, d, inputs)
}

// trackListener records accepted connections so a test can sever them
// mid-call — the "container crashed between request and response" case.
type trackListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackListener) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// TestBreakerTransitions walks the full circuit-breaker state machine on
// a fake clock: closed -> open at the failure threshold, fail-fast while
// open, a single half-open probe after the cooldown, reopening on probe
// failure and closing on probe success.
func TestBreakerTransitions(t *testing.T) {
	b := newBreaker(3, time.Minute)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.failure()
	}
	if s, f := b.snapshot(); s != BreakerClosed || f != 2 {
		t.Fatalf("state = %s/%d below threshold", s, f)
	}
	if !b.allow() {
		t.Fatal("closed breaker refused third call")
	}
	b.failure() // third consecutive failure trips it
	if s, _ := b.snapshot(); s != BreakerOpen {
		t.Fatalf("state = %s after threshold failures", s)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}

	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatal("cooldown elapsed but the half-open probe was refused")
	}
	if b.allow() {
		t.Fatal("second concurrent probe admitted while one is in flight")
	}
	b.failure() // the probe failed: reopen immediately
	if s, _ := b.snapshot(); s != BreakerOpen {
		t.Fatalf("state = %s after failed probe", s)
	}
	if b.allow() {
		t.Fatal("reopened breaker admitted a call")
	}

	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatal("second probe refused")
	}
	b.success()
	if s, f := b.snapshot(); s != BreakerClosed || f != 0 {
		t.Fatalf("state = %s/%d after successful probe", s, f)
	}
	if !b.allow() {
		t.Fatal("recovered breaker refused a call")
	}
}

// TestWireDeadlinePropagates checks the request deadline crosses the
// boundary: the component's context carries a deadline exactly when the
// caller had one.
func TestWireDeadlinePropagates(t *testing.T) {
	var sawDeadline atomic.Bool
	bus := &funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			_, ok := ctx.Deadline()
			sawDeadline.Store(ok)
			return &mvc.UnitBean{UnitID: d.ID, Kind: d.Kind}, nil
		},
	}
	ctr := NewContainer(bus, 4)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	d := &descriptor.Unit{ID: "probe", Kind: "data"}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := client.ComputeUnit(ctx, d, nil); err != nil {
		t.Fatal(err)
	}
	if !sawDeadline.Load() {
		t.Fatal("caller deadline did not reach the component context")
	}
	if _, err := client.ComputeUnit(context.Background(), d, nil); err != nil {
		t.Fatal(err)
	}
	if sawDeadline.Load() {
		t.Fatal("unbounded call grew a deadline in transit")
	}
}

// TestFailoverSendsWhatIsLeft: endpoint 1 holds the frame for 100 ms and
// then drops the connection, so the read fails over to endpoint 2. The
// frame sent there must carry the budget left after those 100 ms, not
// the one the call started with — for a single call and for a level.
func TestFailoverSendsWhatIsLeft(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var hs [6]byte
				if _, err := io.ReadFull(c, hs[:]); err != nil {
					return
				}
				c.Write(handshakeBytes()) //nolint:errcheck
				if _, err := readFrame(bufio.NewReader(c)); err != nil {
					return
				}
				time.Sleep(100 * time.Millisecond)
			}()
		}
	}()
	left := make(chan time.Duration, 4)
	ctr := NewContainer(&funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			deadline, _ := ctx.Deadline()
			left <- time.Until(deadline)
			return &mvc.UnitBean{UnitID: d.ID}, nil
		},
	}, 4)
	addr2, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	d := &descriptor.Unit{ID: "u", Kind: "data"}
	for name, run := range map[string]func(context.Context, *RemoteBusiness) error{
		"call": func(ctx context.Context, client *RemoteBusiness) error {
			_, err := client.ComputeUnit(ctx, d, nil)
			return err
		},
		"batch": func(ctx context.Context, client *RemoteBusiness) error {
			return client.ComputeUnits(ctx, []mvc.UnitCall{{D: d}})[0].Err
		},
	} {
		client, err := Dial(ln.Addr().String(), addr2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err = run(ctx, client)
		cancel()
		client.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := <-left; got > 950*time.Millisecond {
			t.Fatalf("%s: endpoint 2 was given %v of a 1s budget 100ms after the call began", name, got)
		}
	}
}

// TestCallTimeoutOnHungContainer checks a hung component cannot wedge a
// servlet worker: the request context's deadline (what
// WithRequestTimeout gives every request) reaches the socket and turns
// the stall into a timely error.
func TestCallTimeoutOnHungContainer(t *testing.T) {
	release := make(chan struct{})
	bus := &funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			<-release
			return &mvc.UnitBean{UnitID: d.ID}, nil
		},
	}
	ctr := NewContainer(bus, 4)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		ctr.Close()
	}()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err = client.ComputeUnit(ctx, &descriptor.Unit{ID: "hang", Kind: "data"}, nil)
	if err == nil {
		t.Fatal("call to hung container succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout not enforced: call took %v", elapsed)
	}
}

// TestUnitFailoverOnMidCallKill is the acceptance scenario: the container
// dies after the request was sent but before the response arrives, and
// the idempotent unit read fails over to a second container without an
// error reaching the caller.
func TestUnitFailoverOnMidCallKill(t *testing.T) {
	_, seedClient, db, art := startApp(t, 4)
	seedClient.Close()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	busyA := &funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			entered <- struct{}{}
			<-release
			return nil, fmt.Errorf("never reached")
		},
	}
	ctrA := NewContainer(busyA, 4)
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackListener{Listener: lnA}
	ctrA.serveOn(tl)
	defer func() {
		close(release)
		ctrA.Close()
	}()

	ctrB := NewContainer(mvc.NewLocalBusiness(db), 4)
	addrB, err := ctrB.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrB.Close()

	client, err := Dial(tl.Addr().String(), addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	d := art.Repo.Unit("volumeData")

	type result struct {
		bean *mvc.UnitBean
		err  error
	}
	done := make(chan result, 1)
	go func() {
		b, err := client.ComputeUnit(context.Background(), d, map[string]mvc.Value{"volume": int64(1)})
		done <- result{b, err}
	}()
	<-entered     // the request reached container A...
	tl.closeAll() // ...which now dies before answering
	res := <-done
	if res.err != nil {
		t.Fatalf("mid-call kill surfaced instead of failing over: %v", res.err)
	}
	if res.bean == nil || res.bean.Nodes[0].Values[1].Value() != "TODS Volume 27" {
		t.Fatalf("failover bean = %+v", res.bean)
	}
	if ctrB.Metrics().Served == 0 {
		t.Fatal("surviving container never used")
	}
}

// TestOperationNotResentAfterMidCallKill pins the write-safety rule: once
// an operation may have reached a container, it is never resent — the
// error surfaces rather than risking a double write.
func TestOperationNotResentAfterMidCallKill(t *testing.T) {
	_, seedClient, db, art := startApp(t, 4)
	seedClient.Close()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	busyA := &funcBusiness{
		execute: func(ctx context.Context, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.OpResult, error) {
			entered <- struct{}{}
			<-release
			return &mvc.OpResult{OK: true}, nil
		},
	}
	ctrA := NewContainer(busyA, 4)
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackListener{Listener: lnA}
	ctrA.serveOn(tl)
	defer func() {
		close(release)
		ctrA.Close()
	}()

	ctrB := NewContainer(mvc.NewLocalBusiness(db), 4)
	addrB, err := ctrB.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrB.Close()

	client, err := Dial(tl.Addr().String(), addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := client.ExecuteOperation(context.Background(), art.Repo.Unit("createVolume"),
			map[string]mvc.Value{"title": "Once Only", "year": int64(2003)})
		errCh <- err
	}()
	<-entered
	tl.closeAll()
	if err := <-errCh; err == nil {
		t.Fatal("operation lost mid-call reported success")
	}
	if served := ctrB.Metrics().Served; served != 0 {
		t.Fatalf("operation was resent to the surviving container (%d calls)", served)
	}
}

// TestDeadPooledConnectionNotReused: after a container restart, the
// persistent connections held against its previous incarnation must not
// poison subsequent calls, and once a failure retires a generation
// (dropGeneration) none of its connections — the failed one or its
// siblings — is ever handed out again.
func TestDeadPooledConnectionNotReused(t *testing.T) {
	ctrA, client, db, art := startApp(t, 4)
	client.conns = 2
	d := art.Repo.Unit("volumeData")
	inputs := map[string]mvc.Value{"volume": int64(1)}
	ep := client.endpoints[0]
	held := func() []*mconn {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return append([]*mconn(nil), ep.mconns...)
	}

	// Fill the connection budget against the first incarnation.
	for i := 0; i < 2; i++ {
		if _, err := client.ComputeUnit(context.Background(), d, inputs); err != nil {
			t.Fatal(err)
		}
	}
	first := held()
	if len(first) != 2 {
		t.Fatalf("warm-up held %d connections, want 2", len(first))
	}
	addr := ctrA.ln.Addr().String()
	ctrA.Close()

	// Restart on the same address: every held connection is now dead.
	ctr2 := NewContainer(mvc.NewLocalBusiness(db), 4)
	if _, err := ctr2.Serve(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer ctr2.Close()

	for i := 0; i < 3; i++ {
		bean, err := client.ComputeUnit(context.Background(), d, inputs)
		if err != nil {
			t.Fatalf("call %d after restart: %v (stale connection handed out)", i, err)
		}
		if bean.Nodes[0].Values[1].Value() != "TODS Volume 27" {
			t.Fatalf("call %d bean = %+v", i, bean)
		}
	}
	if h := client.Health(); h[0].State != BreakerClosed {
		t.Fatalf("breaker = %s after clean recovery", h[0].State)
	}
	second := held()
	for _, m := range second {
		if m == first[0] || m == first[1] {
			t.Fatal("connection to the dead incarnation still in rotation")
		}
	}

	// One observed failure retires the whole generation, exactly as
	// callOn does it: the healthy sibling goes too.
	if len(second) != 2 {
		t.Fatalf("recovery held %d connections, want 2", len(second))
	}
	second[0].fail(errConnClosed)
	ep.dropGeneration(second[0].gen)
	if !second[1].isDead() {
		t.Fatal("sibling of a failed connection survived its generation")
	}
	if left := held(); len(left) != 0 {
		t.Fatalf("%d connections of a retired generation still held", len(left))
	}
	m, fresh, err := ep.framedConn(client, time.Time{})
	if err != nil || !fresh {
		t.Fatalf("framedConn after retirement: fresh=%v err=%v", fresh, err)
	}
	if m == second[0] || m == second[1] || m.gen != second[0].gen+1 {
		t.Fatalf("retired connection handed out again (gen %d after %d)", m.gen, second[0].gen)
	}
	if _, err := client.ComputeUnit(context.Background(), d, inputs); err != nil {
		t.Fatalf("call on the new generation: %v", err)
	}
}

// TestBreakerFailFastAndRecovery: a dead container costs dial errors only
// until the threshold, then calls fail fast with an open circuit; after
// the cooldown a half-open probe rediscovers the restarted container.
func TestBreakerFailFastAndRecovery(t *testing.T) {
	ctr, client, db, art := startApp(t, 4)
	client.setBreaker(2, 50*time.Millisecond)
	addr := ctr.ln.Addr().String()
	ctr.Close()

	d := art.Repo.Unit("volumeData")
	inputs := map[string]mvc.Value{"volume": int64(1)}
	for i := 0; i < 2; i++ {
		if _, err := client.ComputeUnit(context.Background(), d, inputs); err == nil {
			t.Fatalf("call %d to dead container succeeded", i)
		}
	}
	if h := client.Health(); h[0].State != BreakerOpen {
		t.Fatalf("breaker = %s after threshold failures", h[0].State)
	}
	_, err := client.ComputeUnit(context.Background(), d, inputs)
	if err == nil || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("want fail-fast circuit-open error, got %v", err)
	}

	ctr2 := NewContainer(mvc.NewLocalBusiness(db), 4)
	if _, err := ctr2.Serve(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer ctr2.Close()
	time.Sleep(60 * time.Millisecond) // past the cooldown
	if _, err := client.ComputeUnit(context.Background(), d, inputs); err != nil {
		t.Fatalf("half-open probe failed against recovered container: %v", err)
	}
	if h := client.Health(); h[0].State != BreakerClosed {
		t.Fatalf("breaker = %s after successful probe", h[0].State)
	}
}

// TestContainerSurvivesPanickingComponent: a user-supplied component that
// panics becomes that invocation's error; the container process and the
// connection keep serving.
func TestContainerSurvivesPanickingComponent(t *testing.T) {
	_, seedClient, db, art := startApp(t, 4)
	seedClient.Close()

	biz := mvc.NewLocalBusiness(db)
	biz.Custom["explosive"] = mvc.UnitServiceFunc(
		func(_ context.Context, _ *rdb.DB, _ *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			panic("kaboom")
		})
	ctr := NewContainer(biz, 4)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	bad := *art.Repo.Unit("volumeData")
	bad.Service = "explosive"
	_, err = client.ComputeUnit(context.Background(), &bad, nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want the panic surfaced as a component error", err)
	}
	// The container (and its connection) survived the panic.
	bean, err := client.ComputeUnit(context.Background(), art.Repo.Unit("volumeData"),
		map[string]mvc.Value{"volume": int64(1)})
	if err != nil {
		t.Fatalf("container died after component panic: %v", err)
	}
	if bean.Nodes[0].Values[1].Value() != "TODS Volume 27" {
		t.Fatalf("bean = %+v", bean)
	}
	if got := ctr.Metrics().Served; got != 2 {
		t.Fatalf("served = %d, want both invocations accounted", got)
	}
}
