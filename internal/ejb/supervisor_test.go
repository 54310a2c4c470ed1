package ejb

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
)

// spawnCounting returns a Spawn factory whose clones run the given
// business, and a live count of spawned containers.
func spawnCounting(t *testing.T, bus mvc.Business, capacity int) (func() (*Clone, error), *atomic.Int64) {
	t.Helper()
	var spawned atomic.Int64
	return func() (*Clone, error) {
		ctr := NewContainer(bus, capacity)
		addr, err := ctr.Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		spawned.Add(1)
		return &Clone{Addr: addr, Ctr: ctr}, nil
	}, &spawned
}

// TestRetireMidBatchDrains retires a container while a batch is
// executing on it and asserts the drain handshake lets the batch
// finish: every item succeeds, nothing is re-sent to the surviving
// clone, and operations-style exactly-once holds (each unit computed
// exactly once, on the original container).
func TestRetireMidBatchDrains(t *testing.T) {
	var calls1, calls2 atomic.Int64
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	bus1 := &funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			calls1.Add(1)
			started <- struct{}{}
			<-release
			return &mvc.UnitBean{UnitID: d.ID, Kind: "from1"}, nil
		},
	}
	bus2 := &funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			calls2.Add(1)
			return &mvc.UnitBean{UnitID: d.ID, Kind: "from2"}, nil
		},
	}
	mkClone := func(bus mvc.Business) func() (*Clone, error) {
		return func() (*Clone, error) {
			ctr := NewContainer(bus, 8)
			addr, err := ctr.Serve("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			return &Clone{Addr: addr, Ctr: ctr}, nil
		}
	}
	factories := []func() (*Clone, error){mkClone(bus1), mkClone(bus2)}
	var next atomic.Int64
	members := NewFleetMembership()
	sup := NewSupervisor(func() (*Clone, error) {
		return factories[next.Add(1)-1]()
	}, members, 2, 2)
	sup.Interval = time.Hour // no autoscaling during the test
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	client, err := DialMembership(members)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sup.ClientInFlight = client.InFlight

	addrs := members.Snapshot()
	if len(addrs) != 2 {
		t.Fatalf("fleet size = %d, want 2", len(addrs))
	}
	addr1 := addrs[0]

	// Pin the batch to container 1 by making it the only member for the
	// send, then restore container 2.
	addr2 := addrs[1]
	members.Remove(addr2)
	var res []mvc.UnitResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = client.ComputeUnits(context.Background(), []mvc.UnitCall{
			{D: &descriptor.Unit{ID: "a", Kind: "data"}},
			{D: &descriptor.Unit{ID: "b", Kind: "data"}},
			{D: &descriptor.Unit{ID: "c", Kind: "data"}},
		})
	}()
	<-started // batch is executing on container 1
	members.Add(addr2)

	// Retire container 1 while its batch is mid-flight. The membership
	// withdrawal must not sever the pending frame.
	if !sup.Retire(addr1) {
		t.Fatal("Retire(addr1) found no clone")
	}
	// Give the drain poller a chance to (wrongly) close the container
	// while the batch is still blocked inside the business tier.
	time.Sleep(100 * time.Millisecond)
	close(release)

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not complete after retire")
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d failed during retire: %v", i, r.Err)
		}
		if r.Bean == nil || r.Bean.Kind != "from1" {
			t.Fatalf("item %d served by wrong container: %+v", i, r.Bean)
		}
	}
	if got := calls1.Load(); got != 3 {
		t.Fatalf("container 1 computed %d units, want exactly 3 (no re-sends)", got)
	}
	if got := calls2.Load(); got != 0 {
		t.Fatalf("container 2 computed %d units, want 0 (batch must not fail over)", got)
	}
	// The drained clone must actually close once empty.
	waitFor(t, 5*time.Second, func() bool { return client.InFlight(addr1) == 0 })
	if got := sup.FleetSize(); got != 1 {
		t.Fatalf("fleet size after retire = %d, want 1", got)
	}
}

// TestSupervisorScalesUpOnLoadAndDownWhenIdle drives a saturating
// burst through a one-clone fleet and checks the supervisor grows it,
// then shrinks back to min after the burst, without failing any call.
func TestSupervisorScalesUpOnLoadAndDownWhenIdle(t *testing.T) {
	bus := &funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			time.Sleep(5 * time.Millisecond)
			return &mvc.UnitBean{UnitID: d.ID}, nil
		},
	}
	spawn, spawned := spawnCounting(t, bus, 2)
	members := NewFleetMembership()
	sup := NewSupervisor(spawn, members, 1, 3)
	sup.Interval = 5 * time.Millisecond
	sup.Cooldown = 5 * time.Millisecond
	sup.scaleUpQueue = 1
	sup.IdleAfter = 30 * time.Millisecond
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	client, err := DialMembership(members)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sup.ClientInFlight = client.InFlight

	var failed atomic.Int64
	var wg sync.WaitGroup
	stopLoad := time.Now().Add(400 * time.Millisecond)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopLoad) {
				b, err := client.ComputeUnit(context.Background(),
					&descriptor.Unit{ID: "u", Kind: "data"}, nil)
				if err != nil || b == nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d calls failed during scale-up", n)
	}
	if n := spawned.Load(); n < 2 {
		t.Fatalf("fleet never grew: spawned %d clones", n)
	}
	// After the burst the fleet must drain back down to min.
	waitFor(t, 5*time.Second, func() bool { return sup.FleetSize() == 1 })
	st := sup.Stats()
	if st.ScaleUps < 2 || st.ScaleDowns < 1 {
		t.Fatalf("stats = %+v, want >=2 scale-ups (incl. min) and >=1 scale-down", st)
	}
	if len(st.Events) == 0 {
		t.Fatal("no scale events recorded")
	}
}

// TestMembershipPropagatesToClient checks Add/Remove reach a dialed
// client's endpoint rotation without re-dialing.
func TestMembershipPropagatesToClient(t *testing.T) {
	bus := &funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			return &mvc.UnitBean{UnitID: d.ID}, nil
		},
	}
	ctr1 := NewContainer(bus, 4)
	addr1, err := ctr1.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr1.Close()
	ctr2 := NewContainer(bus, 4)
	addr2, err := ctr2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr2.Close()

	members := NewFleetMembership(addr1)
	client, err := DialMembership(members)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if got := client.Endpoints(); len(got) != 1 || got[0] != addr1 {
		t.Fatalf("endpoints = %v, want [%s]", got, addr1)
	}
	members.Add(addr2)
	if got := client.Endpoints(); len(got) != 2 {
		t.Fatalf("endpoints after add = %v, want 2", got)
	}
	members.Remove(addr1)
	if got := client.Endpoints(); len(got) != 1 || got[0] != addr2 {
		t.Fatalf("endpoints after remove = %v, want [%s]", got, addr2)
	}
	// Calls keep flowing against the updated rotation.
	if _, err := client.ComputeUnit(context.Background(), &descriptor.Unit{ID: "x", Kind: "data"}, nil); err != nil {
		t.Fatalf("compute after membership churn: %v", err)
	}
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}
