package ejb

import (
	"bytes"
	"context"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
	"webmlgo/internal/rdb"
)

// setBreaker reconfigures every current endpoint's circuit breaker.
func (r *RemoteBusiness) setBreaker(threshold int, cooldown time.Duration) {
	for _, ep := range r.eps() {
		ep.brk = newBreaker(threshold, cooldown)
	}
}

// snapshot is the breaker's state and consecutive-failure count, as
// status reports them.
func (b *breaker) snapshot() (string, int) {
	st := b.status()
	return st.state, st.failures
}

// startApp deploys the fixture's business tier into a container and
// returns a remote client for it.
func startApp(t *testing.T, capacity int) (*Container, *RemoteBusiness, *rdb.DB, *codegen.Artifacts) {
	t.Helper()
	g, err := codegen.New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	db := rdb.Open()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := fixture.Seed(db); err != nil {
		t.Fatal(err)
	}
	ctr := NewContainer(mvc.NewLocalBusiness(db), capacity)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctr.Close() })
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return ctr, client, db, art
}

func TestRemoteComputeUnit(t *testing.T) {
	_, client, _, art := startApp(t, 4)
	d := art.Repo.Unit("volumeData")
	bean, err := client.ComputeUnit(context.Background(), d, map[string]mvc.Value{"volume": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(bean.Nodes) != 1 || bean.Nodes[0].Values[1].Value() != "TODS Volume 27" {
		t.Fatalf("bean = %+v", bean)
	}
}

func TestRemoteHierarchicalBeanSurvivesWire(t *testing.T) {
	_, client, db, art := startApp(t, 4)
	d := art.Repo.Unit("issuesPapers")
	bean, err := client.ComputeUnit(context.Background(), d, map[string]mvc.Value{"parent": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	// The bean that crossed the wire equals the one computed in process.
	local, err := mvc.NewLocalBusiness(db).ComputeUnit(context.Background(), d, map[string]mvc.Value{"parent": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, bean) {
		t.Fatalf("bean changed in the wire round trip:\nlocal  %+v\nremote %+v", local, bean)
	}
	if len(bean.Nodes) != 2 {
		t.Fatalf("issues = %d", len(bean.Nodes))
	}
	if len(bean.Nodes[0].Children) == 0 {
		t.Fatal("nested papers lost in transport")
	}
}

func TestRemoteOperation(t *testing.T) {
	_, client, db, art := startApp(t, 4)
	d := art.Repo.Unit("createVolume")
	res, err := client.ExecuteOperation(context.Background(), d, map[string]mvc.Value{"title": "Remote Vol", "year": int64(2003)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Outputs["oid"] != int64(3) {
		t.Fatalf("res = %+v", res)
	}
	n, _ := db.RowCount("volume")
	if n != 3 {
		t.Fatalf("volumes = %d", n)
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	_, client, _, art := startApp(t, 4)
	d := art.Repo.Unit("volumeData")
	bad := *d
	bad.Query = "SELECT nothing FROM nowhere"
	_, err := client.ComputeUnit(context.Background(), &bad, map[string]mvc.Value{"volume": int64(1)})
	if err == nil || !strings.Contains(err.Error(), "ejb: remote") {
		t.Fatalf("err = %v", err)
	}
	// The connection survives an application error.
	if _, err := client.ComputeUnit(context.Background(), d, map[string]mvc.Value{"volume": int64(1)}); err != nil {
		t.Fatalf("connection poisoned: %v", err)
	}
}

func TestNonWebClientSharesBusinessLogic(t *testing.T) {
	// Section 4's motivation: a non-Web application (here: a plain Go
	// client, no HTTP controller) calls the same deployed components.
	_, client, _, art := startApp(t, 4)
	d := art.Repo.Unit("manageIndex")
	bean, err := client.ComputeUnit(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bean.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(bean.Nodes))
	}
}

func TestCapacityGateAndElasticScaling(t *testing.T) {
	ctr, client, _, art := startApp(t, 2)
	d := art.Repo.Unit("volumeData")

	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		// Every goroutine needs its own pooled connection; the shared
		// client handles that.
		if _, err := client.ComputeUnit(context.Background(), d, map[string]mvc.Value{"volume": int64(1)}); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go call()
	}
	wg.Wait()
	m := ctr.Metrics()
	if m.Served != 16 {
		t.Fatalf("served = %d", m.Served)
	}
	if m.MaxActive > 2 {
		t.Fatalf("capacity gate leaked: maxActive = %d", m.MaxActive)
	}

	// Scale up at runtime and verify the gate follows.
	ctr.SetCapacity(8)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go call()
	}
	wg.Wait()
	if got := ctr.Metrics().Capacity; got != 8 {
		t.Fatalf("capacity = %d", got)
	}
}

func TestLoadBalancingAcrossClones(t *testing.T) {
	ctr1, client1, db, art := startApp(t, 4)
	// Second clone over the same database.
	ctr2 := NewContainer(mvc.NewLocalBusiness(db), 4)
	addr2, err := ctr2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr2.Close()
	client1.Close()

	client, err := Dial(ctr1.ln.Addr().String(), addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	d := art.Repo.Unit("volumeData")
	// Force fresh dials so both clones are exercised: run concurrent
	// batches larger than the pool refill rate.
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.ComputeUnit(context.Background(), d, map[string]mvc.Value{"volume": int64(1)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if ctr1.Metrics().Served == 0 || ctr2.Metrics().Served == 0 {
		t.Fatalf("load not balanced: %d / %d", ctr1.Metrics().Served, ctr2.Metrics().Served)
	}
}

func TestClosedContainerRefuses(t *testing.T) {
	ctr, client, _, art := startApp(t, 4)
	ctr.Close()
	d := art.Repo.Unit("volumeData")
	if _, err := client.ComputeUnit(context.Background(), d, map[string]mvc.Value{"volume": int64(1)}); err == nil {
		t.Fatal("call to closed container succeeded")
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(); err == nil {
		t.Fatal("empty address list accepted")
	}
}

func TestRemotePageService(t *testing.T) {
	ctr, client, db, art := startApp(t, 4)
	ctr.DeployPages(&mvc.PageService{Repo: art.Repo, Business: mvc.NewLocalBusiness(db)})
	pages := client.Pages(art.Repo)
	state, err := pages.ComputePage(context.Background(), "volumePage", map[string]mvc.Value{"volume": int64(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Beans) != 3 {
		t.Fatalf("beans = %d", len(state.Beans))
	}
	bean := state.Beans["issuesPapers"]
	if bean == nil || len(bean.Nodes) != 2 || len(bean.Nodes[0].Children) == 0 {
		t.Fatalf("hierarchical bean lost: %+v", bean)
	}
	if len(state.Order) != 3 {
		t.Fatalf("order = %v", state.Order)
	}
}

func TestRemotePageServiceWithoutDeploymentFails(t *testing.T) {
	_, client, _, art := startApp(t, 4)
	if _, err := client.Pages(art.Repo).ComputePage(context.Background(), "volumePage", nil, nil); err == nil {
		t.Fatal("undeployed page service accepted")
	}
}

// TestOperationAndPageAreOneFrame: an operation and a page each cross as
// one request frame and come back as one reply frame, traced as one
// ejb.call span labeled with the kind and no ejb.batch span.
func TestOperationAndPageAreOneFrame(t *testing.T) {
	ctr, client, db, art := startApp(t, 4)
	ctr.DeployPages(&mvc.PageService{Repo: art.Repo, Business: mvc.NewLocalBusiness(db)})
	for _, tc := range []struct {
		kind string
		run  func(context.Context) error
	}{
		{"operation", func(ctx context.Context) error {
			_, err := client.ExecuteOperation(ctx, art.Repo.Unit("createVolume"), map[string]mvc.Value{"title": "One Frame", "year": int64(2003)})
			return err
		}},
		{"page", func(ctx context.Context) error {
			_, err := client.Pages(art.Repo).ComputePage(ctx, "volumePage", map[string]mvc.Value{"volume": int64(1)}, nil)
			return err
		}},
	} {
		tr := obs.NewRemoteTrace(1, 0)
		sent0, recv0, _ := client.FrameStats()
		if err := tc.run(obs.ContextWithTrace(context.Background(), tr, 0)); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		sent, recv, inflight := client.FrameStats()
		if sent-sent0 != 1 || recv-recv0 != 1 || inflight != 0 {
			t.Errorf("%s cost %d frames sent, %d received, %d in flight; want 1, 1, 0", tc.kind, sent-sent0, recv-recv0, inflight)
		}
		var calls []obs.Span
		for _, sp := range tr.Spans() {
			switch sp.Name {
			case "ejb.call":
				calls = append(calls, sp)
			case "ejb.batch":
				t.Errorf("%s traced an ejb.batch span: %+v", tc.kind, sp)
			}
		}
		if len(calls) != 1 || !reflect.DeepEqual(calls[0].Labels[2:], []string{"kind", tc.kind}) || calls[0].Err != "" {
			t.Errorf("%s: ejb.call spans = %+v, want one labeled kind=%s", tc.kind, calls, tc.kind)
		}
	}
}

// TestQueueLatencyMergesKinds: with the container's one instance slot
// held, a unit call and an operation call each wait at the capacity gate.
// QueueLatency counts both waits in one histogram across the two kinds,
// and the call that found the slot free is not counted.
func TestQueueLatencyMergesKinds(t *testing.T) {
	c := NewContainer(nil, 1)
	ctx := context.Background()
	holding, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.invoke(ctx, 0, 0, "page", func(context.Context) response {
			close(holding)
			<-release
			return response{}
		})
	}()
	<-holding
	var wg sync.WaitGroup
	for _, kind := range []string{"unit", "operation"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.invoke(ctx, 0, 0, kind, func(context.Context) response { return response{} })
		}()
	}
	for c.Metrics().Queued < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * time.Millisecond)
	close(release)
	wg.Wait()
	<-done

	q := c.QueueLatency()
	if q.Count != 2 {
		t.Fatalf("queue waits counted %d, want 2 (the holder never waited)", q.Count)
	}
	if q.Max < 2*time.Millisecond {
		t.Errorf("longest wait %v, want at least the 2ms the slot was held after both queued", q.Max)
	}
	series := c.queueLat.Snapshot()
	if len(series) != 2 || series[0].LabelValue != "operation" || series[1].LabelValue != "unit" ||
		series[0].Hist.Count != 1 || series[1].Hist.Count != 1 {
		t.Errorf("per-kind series %+v, want one wait each for operation and unit", series)
	}
}

// recordingBusiness answers every unit with a one-row bean and records
// the descriptor pointers it was handed.
type recordingBusiness struct {
	mu   sync.Mutex
	seen map[*descriptor.Unit]bool
}

func (b *recordingBusiness) ComputeUnit(_ context.Context, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
	b.mu.Lock()
	b.seen[d] = true
	b.mu.Unlock()
	return &mvc.UnitBean{UnitID: d.ID, Kind: d.Kind, Fields: []string{"q"}, Nodes: []mvc.Node{{Values: cells(d.Query)}}}, nil
}

func (b *recordingBusiness) ExecuteOperation(context.Context, *descriptor.Unit, map[string]mvc.Value) (*mvc.OpResult, error) {
	return &mvc.OpResult{OK: true}, nil
}

// encodedUnit is d's descriptor body.
func encodedUnit(d *descriptor.Unit) []byte {
	w := getWbuf()
	defer putWbuf(w)
	w.unit(d)
	return append([]byte(nil), w.payload()...)
}

// TestContainerInternsUnitDescriptors: frames carrying the same
// descriptor bytes hand the business one shared descriptor; one that
// differs only in its query (a web tier's override) arrives as itself;
// an insertion past either bound empties the table; and connections
// sending at once share the table safely.
func TestContainerInternsUnitDescriptors(t *testing.T) {
	biz := &recordingBusiness{seen: make(map[*descriptor.Unit]bool)}
	ctr := NewContainer(biz, 8)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	unit := func(query string) *descriptor.Unit {
		return &descriptor.Unit{ID: "idx", Kind: "index", Entity: "paper", Query: query,
			Outputs: []descriptor.FieldDef{{Name: "Title", Column: "title"}}, Reads: []string{"entity:paper"}}
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	handed := func(d *descriptor.Unit) *descriptor.Unit {
		t.Helper()
		biz.mu.Lock()
		clear(biz.seen)
		biz.mu.Unlock()
		bean, err := client.ComputeUnit(context.Background(), d, nil)
		if err != nil || bean.Nodes[0].Values[0].Str != d.Query {
			t.Fatalf("bean %+v, err %v; want the row %q", bean, err, d.Query)
		}
		biz.mu.Lock()
		defer biz.mu.Unlock()
		for got := range biz.seen {
			return got
		}
		t.Fatal("the business saw no descriptor")
		return nil
	}

	t.Run("same bytes, same descriptor", func(t *testing.T) {
		first, second := handed(unit("SELECT 1")), handed(unit("SELECT 1"))
		if first != second {
			t.Fatalf("two frames of equal descriptor bytes handed the business %p and %p", first, second)
		}
		// Compared as encoded: the field names a descriptor computes on
		// first use are no part of what was sent.
		if !bytes.Equal(encodedUnit(first), encodedUnit(unit("SELECT 1"))) {
			t.Fatalf("interned descriptor %+v", first)
		}
	})
	t.Run("query override arrives as itself", func(t *testing.T) {
		base, over := handed(unit("SELECT 1")), handed(unit("SELECT 2"))
		if base == over || over.Query != "SELECT 2" || base.Query != "SELECT 1" {
			t.Fatalf("override handed %+v beside %+v", over, base)
		}
	})
	t.Run("bounds empty the table", func(t *testing.T) {
		var tab unitTable
		for i := 0; i < unitTableEntries; i++ {
			if _, err := tab.unit(encodedUnit(&descriptor.Unit{ID: strconv.Itoa(i)})); err != nil {
				t.Fatal(err)
			}
		}
		if len(tab.m) != unitTableEntries {
			t.Fatalf("%d entries after %d distinct descriptors", len(tab.m), unitTableEntries)
		}
		last := encodedUnit(&descriptor.Unit{ID: "one more"})
		tab.unit(last) //nolint:errcheck // a valid body
		if len(tab.m) != 1 || tab.bytes != len(last) {
			t.Fatalf("past the entry bound: %d entries of %d bytes, want the one of %d", len(tab.m), tab.bytes, len(last))
		}
		big := func(id string) []byte {
			return encodedUnit(&descriptor.Unit{ID: id, Query: strings.Repeat("x", unitTableBytes/3)})
		}
		for _, id := range []string{"a", "b"} {
			tab.unit(big(id)) //nolint:errcheck // a valid body
		}
		if len(tab.m) != 3 {
			t.Fatalf("%d entries under the byte bound, want 3", len(tab.m))
		}
		tab.unit(big("c")) //nolint:errcheck // a valid body
		if len(tab.m) != 1 || tab.bytes != len(big("c")) {
			t.Fatalf("past the byte bound: %d entries of %d bytes, want the one of %d", len(tab.m), tab.bytes, len(big("c")))
		}
		huge := encodedUnit(&descriptor.Unit{ID: "huge", Query: strings.Repeat("x", unitTableBytes)})
		if d, err := tab.unit(huge); err != nil || d.ID != "huge" || len(tab.m) != 1 {
			t.Fatalf("a descriptor past the byte bound: %v, %d entries; want it decoded and not kept", err, len(tab.m))
		}
	})
	t.Run("connections at once", func(t *testing.T) {
		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					d := unit("SELECT " + strconv.Itoa(i%5))
					bean, err := cl.ComputeUnit(context.Background(), d, nil)
					if err != nil || bean.Nodes[0].Values[0].Str != d.Query {
						t.Errorf("bean %+v, err %v; want the row %q", bean, err, d.Query)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestCapacityGateWakesAtDeadline: at capacity 1, with the slot held, a
// frame queued for capacity gets its deadline error when its 50 ms
// budget runs out, not when the slot frees, and the error says the
// deadline caused it.
func TestCapacityGateWakesAtDeadline(t *testing.T) {
	release := make(chan struct{})
	ctr := NewContainer(&funcBusiness{compute: func(_ context.Context, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
		if d.ID == "hold" {
			<-release
		}
		return &mvc.UnitBean{UnitID: d.ID}, nil
	}}, 1)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	defer close(release)
	c, br := rawConn(t, addr)
	unitFrame := func(id uint64, deadlineMS int64, unitID string) []byte {
		return frameOf(ftBatch, id, func(w *wbuf) {
			w.batchRequest(&batchRequest{DeadlineMS: deadlineMS,
				Calls: []batchCall{{Kind: kindUnit, Descriptor: &descriptor.Unit{ID: unitID}}}})
		})
	}
	if _, err := c.Write(unitFrame(1, 0, "hold")); err != nil {
		t.Fatal(err)
	}
	for ctr.Metrics().Active != 1 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if _, err := c.Write(unitFrame(2, 50, "queued")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(start.Add(2 * time.Second)) //nolint:errcheck // the read reports it
	payload, err := readFrame(br)
	took := time.Since(start)
	if err != nil {
		t.Fatalf("no reply to the queued frame after %v: %v", took, err)
	}
	r := rbuf{b: payload}
	if ft, id := r.byte(), r.uvarint(); ft != ftBatchReply || id != 2 {
		t.Fatalf("frame type %d id %d, want the queued frame's reply", ft, id)
	}
	items, err := r.batchReply(nil)
	if err != nil || len(items) != 1 || !items[0].Deadline || !strings.Contains(items[0].Err, "deadline") {
		t.Fatalf("reply %+v (err %v), want one item failed on its deadline", items, err)
	}
	if took >= 500*time.Millisecond {
		t.Fatalf("the queued frame's deadline error took %v, want < 500ms", took)
	}
	t.Logf("deadline error after %v in the capacity queue", took)
}

// TestReplyBytesWidestLevel reports what leaving the schema off the wire
// saves on the widest schedule level of the Figure 1 pages: the level's
// reply body with each bean's own schema (the layout of wire version 7)
// and against its calls' descriptors (version 8).
func TestReplyBytesWidestLevel(t *testing.T) {
	_, _, db, art := startApp(t, 4)
	var page string
	var level []string
	for _, pd := range art.Repo.Pages() {
		sched, err := art.Repo.Schedule(pd.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range sched.Levels {
			if len(l) > len(level) {
				page, level = pd.ID, l
			}
		}
	}
	ps := &mvc.PageService{Repo: art.Repo, Business: mvc.NewLocalBusiness(db)}
	state, err := ps.ComputePage(context.Background(), page,
		map[string]mvc.Value{"volume": int64(1), "issue": int64(1), "paper": int64(1), "kw": "a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]response, len(level))
	calls := make([]batchCall, len(level))
	for i, id := range level {
		items[i].Bean = state.Beans[id]
		calls[i] = batchCall{Kind: kindUnit, Descriptor: art.Repo.Unit(id)}
	}
	size := func(calls []batchCall) int {
		w := getWbuf()
		defer putWbuf(w)
		w.batchReply(items, calls)
		if w.err != nil {
			t.Fatal(w.err)
		}
		return len(w.payload())
	}
	own, lean := size(nil), size(calls)
	if lean >= own {
		t.Fatalf("the reply of %s's widest level is %d bytes against its descriptors, %d with each bean's schema", page, lean, own)
	}
	t.Logf("%s's widest level (%d units): reply body %d bytes with each bean's schema, %d without", page, len(level), own, lean)
}
