package webmlgo

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// deepObsApp assembles a traced app with the flight recorder capturing
// every query (nothing runs faster than a nanosecond).
func deepObsApp(t *testing.T, extra ...Option) *App {
	t.Helper()
	opts := append([]Option{
		WithObservability(time.Hour, time.Nanosecond),
	}, extra...)
	app := newApp(t, opts...)
	t.Cleanup(app.Close)
	return app
}

// TestDebugEndpointParamValidation: malformed query parameters on the
// three debug endpoints answer 400 with a usage hint instead of being
// silently coerced.
func TestDebugEndpointParamValidation(t *testing.T) {
	app := deepObsApp(t, WithElasticFleet(1, 2, 8))
	for _, tc := range []struct {
		name    string
		handler http.Handler
		path    string
		wantOK  bool
	}{
		{"traces ok", app.TracesHandler(), "/debug/traces?min=100ms&slow=1&limit=5", true},
		{"traces negative min", app.TracesHandler(), "/debug/traces?min=-5ms", false},
		{"traces non-duration min", app.TracesHandler(), "/debug/traces?min=abc", false},
		{"traces absurd min", app.TracesHandler(), "/debug/traces?min=99999h", false},
		{"traces negative limit", app.TracesHandler(), "/debug/traces?limit=-1", false},
		{"traces non-numeric limit", app.TracesHandler(), "/debug/traces?limit=ten", false},
		{"traces absurd limit", app.TracesHandler(), "/debug/traces?limit=99999999", false},
		{"traces bad slow flag", app.TracesHandler(), "/debug/traces?slow=maybe", false},
		{"queries ok", app.QueriesHandler(), "/debug/queries?min=1ms&limit=3", true},
		{"queries negative min", app.QueriesHandler(), "/debug/queries?min=-1s", false},
		{"queries non-duration min", app.QueriesHandler(), "/debug/queries?min=fast", false},
		{"queries negative limit", app.QueriesHandler(), "/debug/queries?limit=-2", false},
		{"queries absurd limit", app.QueriesHandler(), "/debug/queries?limit=10001", false},
		{"fleet ok", app.FleetHandler(), "/debug/fleet?limit=4", true},
		{"fleet negative limit", app.FleetHandler(), "/debug/fleet?limit=-1", false},
		{"fleet non-numeric limit", app.FleetHandler(), "/debug/fleet?limit=x", false},
	} {
		rr, body := request(t, tc.handler, tc.path, "")
		if tc.wantOK {
			if rr.Code != 200 {
				t.Errorf("%s: code = %d, want 200: %s", tc.name, rr.Code, body)
			}
			continue
		}
		if rr.Code != 400 {
			t.Errorf("%s: code = %d, want 400", tc.name, rr.Code)
		}
		if !strings.Contains(body, "usage:") {
			t.Errorf("%s: 400 body lacks usage hint: %q", tc.name, body)
		}
	}
}

// TestQueriesHandlerDisabled: without a slow-query threshold, traced
// or not, the endpoint answers 404; same for /debug/fleet without
// WithElasticFleet.
func TestQueriesHandlerDisabled(t *testing.T) {
	app := newApp(t)
	if rr, _ := request(t, app.QueriesHandler(), "/debug/queries", ""); rr.Code != 404 {
		t.Fatalf("disabled /debug/queries = %d, want 404", rr.Code)
	}
	traced := newApp(t, WithObservability(time.Hour, 0))
	if rr, _ := request(t, traced.QueriesHandler(), "/debug/queries", ""); rr.Code != 404 {
		t.Fatalf("/debug/queries without a slow-query threshold = %d, want 404", rr.Code)
	}
	if rr, _ := request(t, app.FleetHandler(), "/debug/fleet", ""); rr.Code != 404 {
		t.Fatalf("disabled /debug/fleet = %d, want 404", rr.Code)
	}
}

type tracesOut struct {
	Traces []struct {
		ID    string `json:"id"`
		Name  string `json:"name"`
		Spans []struct {
			ID     uint64            `json:"id"`
			Parent uint64            `json:"parent"`
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
		} `json:"spans"`
	} `json:"traces"`
}

type queriesOut struct {
	Threshold string `json:"threshold"`
	Captured  uint64 `json:"captured"`
	Queries   []struct {
		TraceID    string  `json:"trace_id"`
		SQL        string  `json:"sql"`
		PlanCached bool    `json:"plan_cached"`
		Rows       int64   `json:"rows"`
		ElapsedMS  float64 `json:"elapsed_ms"`
		Plan       string  `json:"plan"`
	} `json:"queries"`
}

// TestDataTierSpansStitchedIntoTrace: a traced page request yields
// rdb.query spans — labeled with SQL, access path and plan-cache
// outcome — linked under the controller's trace, and the same queries
// land in /debug/queries stamped with the owning trace ID.
func TestDataTierSpansStitchedIntoTrace(t *testing.T) {
	app := deepObsApp(t)
	if rr, body := request(t, app.Controller, "/page/volumePage?volume=1", ""); rr.Code != 200 {
		t.Fatalf("page = %d %s", rr.Code, body)
	}

	rr, body := request(t, app.TracesHandler(), "/debug/traces", "")
	if rr.Code != 200 {
		t.Fatalf("/debug/traces = %d", rr.Code)
	}
	var traces tracesOut
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) == 0 {
		t.Fatal("no traces captured")
	}
	tr := traces.Traces[0]
	ids := map[uint64]bool{}
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	var rdbSpans int
	for _, sp := range tr.Spans {
		if sp.Name != "rdb.query" {
			continue
		}
		rdbSpans++
		if sp.Labels["sql"] == "" || sp.Labels["access"] == "" {
			t.Fatalf("rdb.query span lacks sql/access labels: %+v", sp)
		}
		if c := sp.Labels["plan_cache"]; c != "hit" && c != "miss" {
			t.Fatalf("rdb.query span plan_cache = %q", c)
		}
		if sp.Parent == 0 || !ids[sp.Parent] {
			t.Fatalf("rdb.query span not stitched under the trace (parent %d)", sp.Parent)
		}
	}
	if rdbSpans == 0 {
		t.Fatalf("no rdb.query spans in trace; spans: %+v", tr.Spans)
	}

	// The flight recorder captured the same queries, joined by trace ID.
	rr, body = request(t, app.QueriesHandler(), "/debug/queries", "")
	if rr.Code != 200 {
		t.Fatalf("/debug/queries = %d", rr.Code)
	}
	var queries queriesOut
	if err := json.Unmarshal([]byte(body), &queries); err != nil {
		t.Fatal(err)
	}
	if len(queries.Queries) == 0 {
		t.Fatal("flight recorder captured nothing in full-analysis mode")
	}
	var joined bool
	for _, q := range queries.Queries {
		if q.SQL == "" || !strings.Contains(q.Plan, "actual") {
			t.Fatalf("captured query lacks analyzed plan: %+v", q)
		}
		if !strings.Contains(q.Plan, "\nPLAN: ") {
			t.Fatalf("captured plan lacks cache provenance: %q", q.Plan)
		}
		if q.TraceID == tr.ID {
			joined = true
		}
	}
	if !joined {
		t.Fatalf("no captured query carries trace ID %s; queries: %s", tr.ID, body)
	}

	// A traced write: the operation's commit is an rdb.commit span in its
	// trace, labeled with the one row it applied.
	if rr, body := request(t, app.Controller, "/op/createVolume?title=Traced&year=2026", ""); rr.Code != http.StatusFound {
		t.Fatalf("op = %d %s", rr.Code, body)
	}
	_, body = request(t, app.TracesHandler(), "/debug/traces", "")
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	var commits int
	for _, tr := range traces.Traces {
		for _, sp := range tr.Spans {
			if sp.Name == "rdb.commit" {
				commits++
				if sp.Labels["ops"] != "1" || sp.Labels["wal_append"] == "" {
					t.Fatalf("rdb.commit span labels = %v, want ops 1 and a wal_append time", sp.Labels)
				}
			}
		}
	}
	if commits != 1 {
		t.Fatalf("%d rdb.commit spans after one write, want 1; traces: %s", commits, body)
	}
}

// TestAdmissionWaitSpanInTrace: with admission control on, traced
// requests carry an admission.wait span labeled with the priority
// class.
func TestAdmissionWaitSpanInTrace(t *testing.T) {
	app := deepObsApp(t, WithAdmission(8, 16))
	if rr, body := request(t, app.Controller, "/page/volumePage?volume=1", ""); rr.Code != 200 {
		t.Fatalf("page = %d %s", rr.Code, body)
	}
	rr, body := request(t, app.TracesHandler(), "/debug/traces", "")
	if rr.Code != 200 {
		t.Fatalf("/debug/traces = %d", rr.Code)
	}
	var traces tracesOut
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, tr := range traces.Traces {
		for _, sp := range tr.Spans {
			if sp.Name == "admission.wait" {
				found = true
				if sp.Labels["class"] == "" {
					t.Fatalf("admission.wait span lacks class label: %+v", sp)
				}
			}
		}
	}
	if !found {
		t.Fatal("no admission.wait span on a traced request")
	}
}

// TestFleetEndpointShape: /debug/fleet reports the supervisor's shape
// and the scale-event ring.
func TestFleetEndpointShape(t *testing.T) {
	app := deepObsApp(t, WithElasticFleet(1, 2, 8))
	rr, body := request(t, app.FleetHandler(), "/debug/fleet", "")
	if rr.Code != 200 {
		t.Fatalf("/debug/fleet = %d %s", rr.Code, body)
	}
	var out struct {
		Fleet struct {
			Size int `json:"size"`
			Min  int `json:"min"`
			Max  int `json:"max"`
		} `json:"fleet"`
		Events []struct {
			Dir  string `json:"dir"`
			Addr string `json:"addr"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Fleet.Size < 1 || out.Fleet.Min != 1 || out.Fleet.Max != 2 {
		t.Fatalf("fleet shape wrong: %+v", out.Fleet)
	}
}

// TestTraceStitchingAcrossFleetChurn: requests keep flowing — and
// their traces stay fully stitched, container spans included — while a
// clone is drained and retired mid-traffic. Run under -race in CI.
func TestTraceStitchingAcrossFleetChurn(t *testing.T) {
	app := deepObsApp(t, WithElasticFleet(2, 3, 4))
	addrs := app.Members.Snapshot()
	if len(addrs) < 2 {
		t.Fatalf("fleet did not start 2 clones: %v", addrs)
	}

	const workers, perWorker = 4, 6
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rr, body := request(t, app.Controller, "/page/volumePage?volume=1", "")
				if rr.Code != 200 {
					errs <- body
					return
				}
			}
		}(w)
	}
	// Retire one clone mid-traffic: it leaves the membership first,
	// drains its in-flight work, then closes — no request may fail.
	time.Sleep(5 * time.Millisecond)
	if !app.Fleet.Retire(addrs[0]) {
		t.Fatalf("retire of %s refused", addrs[0])
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("request failed during churn: %s", e)
	}

	// The retirement landed in the scale-event ring.
	var sawDown bool
	for _, ev := range app.Fleet.Events() {
		if ev.Dir == "down" && ev.Addr == addrs[0] {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatalf("no scale-down event for %s: %+v", addrs[0], app.Fleet.Events())
	}

	// Every trace is fully stitched: no dangling parents, and the
	// remote tier contributed spans.
	rr, body := request(t, app.TracesHandler(), "/debug/traces?limit=100", "")
	if rr.Code != 200 {
		t.Fatalf("/debug/traces = %d", rr.Code)
	}
	var traces tracesOut
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) < workers*perWorker {
		t.Fatalf("captured %d traces, want %d", len(traces.Traces), workers*perWorker)
	}
	var containerSpans int
	for _, tr := range traces.Traces {
		ids := map[uint64]bool{}
		for _, sp := range tr.Spans {
			ids[sp.ID] = true
		}
		for _, sp := range tr.Spans {
			if sp.Parent != 0 && !ids[sp.Parent] {
				t.Fatalf("trace %s: span %q has dangling parent %d", tr.ID, sp.Name, sp.Parent)
			}
			if sp.Name == "container.invoke" {
				containerSpans++
			}
		}
	}
	if containerSpans == 0 {
		t.Fatal("no container-side spans stitched across the churned fleet")
	}
}
