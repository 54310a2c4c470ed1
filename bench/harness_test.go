package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// plain is one unshimmed stack shared by the tests that only read from it.
var plain struct {
	once sync.Once
	root string
	st   *stack
	err  error
}

func plainStack(t *testing.T) *stack {
	t.Helper()
	plain.once.Do(func() {
		if plain.root, plain.err = os.MkdirTemp("", "bench-test-"); plain.err == nil {
			plain.st, plain.err = buildStack(plain.root, false, nil)
		}
	})
	if plain.err != nil {
		t.Fatal(plain.err)
	}
	return plain.st
}

func TestMain(m *testing.M) {
	code := m.Run()
	if plain.st != nil {
		if err := plain.st.close(); err != nil {
			fmt.Fprintln(os.Stderr, "closing the shared stack:", err)
			code = 1
		}
	}
	os.RemoveAll(plain.root)
	os.Exit(code)
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	st := plainStack(t)
	for _, spec := range workloads {
		a, err := newStream(st.model, st.app.Repo(), spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newStream(st.model, st.app.Repo(), spec, 7)
		c, _ := newStream(st.model, st.app.Repo(), spec, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different streams", spec.Name)
		}
		if reflect.DeepEqual(a.reqs, c.reqs) {
			t.Errorf("%s: different seeds gave the same requests", spec.Name)
		}
		if !reflect.DeepEqual(a.targets, c.targets) {
			t.Errorf("%s: the seed changed the targets; it may only change the draw", spec.Name)
		}
	}
	if !reflect.DeepEqual(arrivals(500, time.Second, 7), arrivals(500, time.Second, 7)) {
		t.Error("same seed gave different arrivals")
	}
	if reflect.DeepEqual(arrivals(500, time.Second, 7), arrivals(500, time.Second, 8)) {
		t.Error("different seeds gave the same arrivals")
	}
}

// stubDriver returns a driver whose every request is GET /x against
// handler, expecting the body "ok".
func stubDriver(t *testing.T, handler http.Handler) *driver {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln) //nolint:errcheck // closed by the cleanup
	t.Cleanup(func() { srv.Close() })
	v := &verifier{hseed: maphash.MakeSeed(), rows: map[rowKey][]*write{}}
	v.expect = []expectation{{status: 200, n: 2, hash: v.hashOf([]byte("ok"))}}
	v.volatile = []bool{false}
	strm := &stream{targets: []target{{Path: "/x"}}, reqs: []request{{Cookie: -1}}}
	d, err := newDriver(ln.Addr().String(), strm, nil, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	return d
}

// A server that stalls once must cost every request that was due during
// the stall, not only the requests that were being served.
func TestOpenPhaseTimesFromTheDueInstant(t *testing.T) {
	const stall = 150 * time.Millisecond
	var served atomic.Int32
	d := stubDriver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= numClients { // one stall per connection, at the start
			time.Sleep(stall)
		}
		w.Write([]byte("ok")) //nolint:errcheck // test server
	}))
	var due []time.Duration
	for i := 0; i < 20; i++ {
		due = append(due, time.Duration(i)*2*time.Millisecond)
	}
	res := d.open(due)
	if res.OK != len(due) || d.ver.failed.Load() != 0 {
		t.Fatalf("ok %d of %d, failures %v", res.OK, len(due), d.ver.messages)
	}
	for i := numClients; i < len(due); i++ {
		inherited := float64(stall-due[i]) / 1e6
		if res.Lat[i] < inherited-1 {
			t.Errorf("request %d due at %v took %.1f ms; timed from its due instant it inherits %.1f ms of the stall", i, due[i], res.Lat[i], inherited)
		}
	}
	// The generator itself was on time for the requests it could send at once.
	for i := 0; i < numClients; i++ {
		if res.Late[i] > 20 {
			t.Errorf("request %d sent %.1f ms late with a free connection", i, res.Late[i])
		}
	}
}

func TestOracleCatchesAWrongBody(t *testing.T) {
	d := stubDriver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("no")) //nolint:errcheck // test server
	}))
	if good, _ := d.send(0, d.strm.at(0)); good || d.ver.failed.Load() != 1 {
		t.Errorf("a wrong body of the right length passed the oracle")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	s := sortedCopy([]float64{5, 1, 4, 2, 3})
	if quantile(s, 0.5) != 3 || quantile(s, 0.99) != 5 || quantile(s, 0) != 1 {
		t.Errorf("nearest-rank quantiles wrong: %v %v %v", quantile(s, 0.5), quantile(s, 0.99), quantile(s, 0))
	}
}

// p99_ms is the median of the slices' p99s: a stall that fills one slice
// with slow requests moves that slice, not the metric.
func TestSliceMedianP99(t *testing.T) {
	lat := make([]float64, p99Slices*p99MinSamples)
	for i := range lat {
		lat[i] = 1 + float64(i%p99MinSamples)/p99MinSamples // 1.000 .. 1.999 in every slice
	}
	for i := 3 * p99MinSamples; i < 4*p99MinSamples; i++ {
		lat[i] += 100 // the stall
	}
	lat[7] = -1 // a failed request is not a latency
	p99, _ := sliceP99s(lat)
	if len(p99) != p99Slices {
		t.Fatalf("%d slices, want %d", len(p99), p99Slices)
	}
	if got := median(p99); math.Abs(got-1.989) > 0.002 {
		t.Errorf("median of slice p99s = %v, want 1.989 whatever slice 3 did", got)
	}
	if p99[3] < 100 {
		t.Errorf("slice 3's own p99 = %v, want the stall to show there", p99[3])
	}
	if few, _ := sliceP99s(lat[:2500]); len(few) != 2 {
		t.Errorf("%d slices of 2500 latencies, want 2 of at least %d each", len(few), p99MinSamples)
	}
}

func TestSelfTimeGoesToTheDeepestLayer(t *testing.T) {
	spans := []span{
		{Layer: spClient, Start: 0, End: 100},
		{Layer: spHandler, Start: 10, End: 90},
		{Layer: spOrigin, Start: 20, End: 80},
		{Layer: spPages, Start: 25, End: 60},
		{Layer: spUnits, Start: 30, End: 55},
		{Layer: spRemote, Start: 32, End: 52},
		// a level batch fans out in the container: two overlapping spans
		{Layer: spContainer, Start: 35, End: 45},
		{Layer: spContainer, Start: 40, End: 50},
		{Layer: spRender, Start: 62, End: 78},
	}
	got := selfTimes(spans)
	want := [numLayers]int64{}
	want[spClient] = 20    // 0-10, 90-100
	want[spHandler] = 20   // 10-20, 80-90
	want[spOrigin] = 9     // 20-25, 60-62, 78-80
	want[spPages] = 10     // 25-30, 55-60
	want[spUnits] = 5      // 30-32, 52-55
	want[spRemote] = 5     // 32-35, 50-52
	want[spContainer] = 15 // 35-50, the overlap counted once
	want[spRender] = 16
	if got != want {
		t.Errorf("self times\n got %v\nwant %v", got, want)
	}
	var sum int64
	for _, ns := range got {
		sum += ns
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the client span's 100", sum)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	failRatio := metricDef{Name: "fail_ratio", Better: "lower", Bound: 0.001}
	steady := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x, x * 1.005} }
	cases := []struct {
		def       metricDef
		absolute  bool
		base, new []float64
		want      string
	}{
		{lower, false, steady(1), steady(1.03), "same"},
		{lower, false, steady(1), steady(1.2), "worse"},
		{lower, false, steady(1), steady(0.8), "better"},
		{higher, false, steady(100), steady(80), "worse"},
		{higher, false, steady(100), steady(120), "better"},
		{lower, false, []float64{1, 1.5, 0.7, 1.2, 0.9}, steady(1.2), "unresolved"},
		{failRatio, true, []float64{0, 0, 0}, []float64{0, 0, 0}, "same"},
		{failRatio, true, []float64{0, 0, 0}, []float64{0.002, 0.002, 0.003}, "worse"},
	}
	for _, c := range cases {
		if _, _, _, got := verdict(c.def, c.absolute, c.base, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Name, c.base, c.new, got, c.want)
		}
	}
}

func fetch(t *testing.T, addr, path, cookie string) []byte {
	t.Helper()
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	status, body, err := c.do(path, cookie)
	if err != nil || status != 200 {
		t.Fatalf("GET %s: status %d, %v", path, status, err)
	}
	return append([]byte(nil), body...)
}

// The shims must not change what is served: same bytes with and without,
// on the edge path and on the cookie path.
func TestShimsAreTransparent(t *testing.T) {
	plain := plainStack(t)
	rec := newRecorder()
	rec.on.Store(true)
	shimmed, err := buildStack(t.TempDir(), false, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shimmed.close(); err != nil {
			t.Error(err)
		}
	}()
	strm, err := newStream(plain.model, plain.app.Repo(), workloads[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	cookiesA, err := issueCookies(plain.addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	cookiesB, err := issueCookies(shimmed.addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range strm.targets[:12] {
		for pass := 0; pass < 2; pass++ { // edge miss, then edge hit
			if a, b := fetch(t, plain.addr, tg.Path, ""), fetch(t, shimmed.addr, tg.Path, ""); !bytes.Equal(a, b) {
				t.Errorf("%s differs through the edge with shims on (%d vs %d bytes)", tg.Path, len(a), len(b))
			}
		}
		if a, b := fetch(t, plain.addr, tg.Path, cookiesA[0]), fetch(t, shimmed.addr, tg.Path, cookiesB[0]); !bytes.Equal(a, b) {
			t.Errorf("%s differs on the cookie path with shims on (%d vs %d bytes)", tg.Path, len(a), len(b))
		}
	}
	var batched, calls int64
	for _, s := range rec.spans {
		if s.Layer == spRemote {
			calls++
			batched += int64(s.N)
		}
	}
	if calls == 0 || batched <= calls {
		t.Errorf("with shims on the scheduler sent %d units in %d remote calls; level batches must survive the shims", batched, calls)
	}
}

func shortConfig(t *testing.T, spec workloadSpec, trace bool) runConfig {
	return runConfig{Spec: spec, Seed: 3, Seconds: 0.4, Trace: trace, Setups: 1, Replay: replayBlock,
		Root: filepath.Join(t.TempDir(), "run")}
}

// Every workload runs once, short, and must end without a failure:
// session_hot traced, in TestTracedRunSeparatesLayers, the others here.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, spec := range workloads {
		if spec.Name == "session_hot" {
			continue
		}
		rep, err := run(shortConfig(t, spec, false))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %v", spec.Name, rep.Failed, rep.Attempted, rep.Failures)
		}
		for _, def := range endToEnd {
			if m, ok := rep.Metrics[def.Name]; !ok || !(m.Value > 0) || m.Unit != def.Unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", spec.Name, def.Name, m, def.Unit)
			}
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics printed, want the %d end-to-end ones", spec.Name, len(rep.Metrics), len(endToEnd))
		}
		for _, d := range demoted {
			m, ok := rep.Demoted[d.Name]
			switch {
			case d.Name == "op_p50_ms" && spec.WriteShare == 0:
				if ok {
					t.Errorf("%s: op_p50_ms = %v on a workload without operations", spec.Name, m.Value)
				}
			case d.Name == "fail_ratio":
				if !ok || m.Value != 0 {
					t.Errorf("%s: fail_ratio = %+v, want 0", spec.Name, m)
				}
			case !ok || !(m.Value > 0) || m.Unit != d.Unit:
				t.Errorf("%s: demoted metric %s = %+v, want a positive value in %s", spec.Name, d.Name, m, d.Unit)
			}
		}
		if spec.WriteShare > 0 && rep.Samples["reopened_rows_checked"] == 0 {
			t.Errorf("%s: no written row was checked after reopen", spec.Name)
		}
	}
}

func TestTracedRunSeparatesLayers(t *testing.T) {
	spec, _ := findWorkload("session_hot")
	rep, err := run(shortConfig(t, spec, true))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("failures: %v", rep.Failures)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics printed, want the %d per-layer ones", len(rep.Metrics), len(perLayer))
	}
	m := func(name string) float64 { return rep.Metrics[name].Value }
	if m("ejb.units_per_call") <= 1 {
		t.Errorf("ejb.units_per_call = %v, want level batches (> 1)", m("ejb.units_per_call"))
	}
	if m("edge.hit_ratio") != 0 || m("edge.origin_fetches_per_req") != 1 {
		t.Errorf("cookie traffic must bypass the edge: hit ratio %v, origin fetches per request %v", m("edge.hit_ratio"), m("edge.origin_fetches_per_req"))
	}
	if m("cache.hit_ratio") <= 0 {
		t.Errorf("cache.hit_ratio = %v, want bean hits on the hot set", m("cache.hit_ratio"))
	}
	// A driver's run must stay within 0.1 of 1; this one replays an eighth
	// as many requests and may share the box with other tests.
	if r := m("trace.sum_ratio"); math.Abs(r-1) > 0.25 {
		t.Errorf("trace.sum_ratio = %v, want the layers and the HTTP probe to add up to the traced latency", r)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what a run prints. They must name the same things.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n json %+v\n code %+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
}
