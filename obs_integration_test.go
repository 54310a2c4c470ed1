package webmlgo

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/ejb"
	"webmlgo/internal/fixture"
)

// obsStack assembles the full three-tier stack with observability on:
// an edge surrogate in front of a web tier whose business calls go to a
// remote container over the wire.
func obsStack(t *testing.T) (*App, *ejb.Container) {
	t.Helper()
	backend, err := New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixture.Seed(backend.DB); err != nil {
		t.Fatal(err)
	}
	ctr, addr, err := DeployContainer(fixture.Figure1Model(), backend.DB, 8, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctr.Close() })

	app, err := New(fixture.Figure1Model(),
		WithAppServer(addr),
		WithBeanCache(1024),
		WithEdgeCache(1024, time.Minute),
		WithObservability(time.Hour, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { app.Remote.Close(); app.Edge.Close() })
	return app, ctr
}

// TestStitchedTraceAcrossTiers: one request through edge + controller +
// remote container yields a single trace whose spans cover the edge
// assembly, the controller dispatch, the remote EJB calls, and the
// container-side invoke spans shipped back over the wire — all
// linked to one root covering the full wall time.
func TestStitchedTraceAcrossTiers(t *testing.T) {
	app, _ := obsStack(t)

	if rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", ""); rr.Code != 200 {
		t.Fatalf("page = %d %s", rr.Code, body)
	}

	rr, body := request(t, app.TracesHandler(), "/debug/traces", "")
	if rr.Code != 200 {
		t.Fatalf("/debug/traces = %d %s", rr.Code, body)
	}
	var out struct {
		Started int64 `json:"started"`
		Traces  []struct {
			ID    string  `json:"id"`
			Name  string  `json:"name"`
			DurMS float64 `json:"dur_ms"`
			Spans []struct {
				ID      uint64            `json:"id"`
				Parent  uint64            `json:"parent"`
				Name    string            `json:"name"`
				Labels  map[string]string `json:"labels"`
				StartUS int64             `json:"start_us"`
				DurUS   int64             `json:"dur_us"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Started < 1 || len(out.Traces) < 1 {
		t.Fatalf("no traces captured: started=%d traces=%d", out.Started, len(out.Traces))
	}

	// Find the edge-rooted page trace. Every tier must have contributed
	// spans, including the container-side ones stitched in from the
	// response.
	tr := out.Traces[0]
	for _, cand := range out.Traces {
		if strings.HasPrefix(cand.Name, "edge:") {
			tr = cand
			break
		}
	}
	if !strings.HasPrefix(tr.Name, "edge:") {
		t.Fatalf("no edge-rooted trace among %d traces (first name %q)", len(out.Traces), out.Traces[0].Name)
	}
	names := map[string]int{}
	ids := map[uint64]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name]++
		if ids[sp.ID] {
			t.Fatalf("duplicate span ID %d (client/container collision)", sp.ID)
		}
		ids[sp.ID] = true
	}
	for _, want := range []string{"request", "edge.resolve", "controller", "ejb.call", "container.invoke"} {
		if names[want] == 0 {
			t.Fatalf("trace lacks %q span; got %v", want, names)
		}
	}

	// Stitched spans link into the tree: every non-root parent is a span
	// of this same trace.
	var rootDurUS int64
	for _, sp := range tr.Spans {
		if sp.Parent == 0 {
			if sp.Name == "request" && sp.DurUS > rootDurUS {
				rootDurUS = sp.DurUS
			}
			continue
		}
		if !ids[sp.Parent] {
			t.Fatalf("span %q has dangling parent %d", sp.Name, sp.Parent)
		}
	}

	// Coverage: the root span accounts for >= 95% of the trace's wall
	// time (the acceptance bar for "the trace explains the request").
	if float64(rootDurUS) < 0.95*tr.DurMS*1000 {
		t.Fatalf("root span covers %dus of %.0fus", rootDurUS, tr.DurMS*1000)
	}

	// Container-side spans carry the request kind from the wire.
	for _, sp := range tr.Spans {
		if sp.Name == "container.invoke" && sp.Labels["kind"] == "" {
			t.Fatalf("container span lacks kind label: %+v", sp)
		}
	}
}

// TestMetricsExpositionBothTiers: /metrics on the web tier exposes
// per-action, per-page, per-unit and per-endpoint latency quantiles
// plus cache and edge counters; the container tier exposes its own
// invoke histograms — the same model-derived label vocabulary on both
// sides of the wire.
func TestMetricsExpositionBothTiers(t *testing.T) {
	app, ctr := obsStack(t)

	// Drive one request through the edge and one directly against the
	// controller (the whole-page path that feeds the page histogram).
	if rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", ""); rr.Code != 200 {
		t.Fatalf("edge page = %d %s", rr.Code, body)
	}
	if rr, body := request(t, app.Controller, "/page/volumePage?volume=2", ""); rr.Code != 200 {
		t.Fatalf("controller page = %d %s", rr.Code, body)
	}

	rr, body := request(t, app.MetricsHandler(), "/metrics", "")
	if rr.Code != 200 {
		t.Fatalf("/metrics = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE webml_action_seconds histogram",
		`webml_action_seconds_bucket{action="page/volumePage",le="+Inf"}`,
		`webml_action_seconds_quantile{action="page/volumePage",q="0.95"}`,
		`webml_page_compute_seconds_quantile{page="volumePage",q="0.99"}`,
		`webml_unit_compute_seconds_quantile{q="0.5",unit="volumeData"}`,
		"webml_ejb_call_seconds_bucket",
		`webml_cache_hits_total{cache="bean"}`,
		`webml_edge_resolutions_total{disposition="miss"}`,
		"webml_breaker_open{",
		"webml_traces_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("web-tier /metrics lacks %q\n%s", want, body)
		}
	}

	// Quantiles are ordered: p50 <= p95 <= p99 for the page action.
	var p50, p95, p99 float64
	n := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `webml_action_seconds_quantile{action="page/volumePage"`) {
			continue
		}
		parts := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscan(parts[len(parts)-1], &v); err != nil {
			t.Fatalf("bad quantile line %q: %v", line, err)
		}
		switch {
		case strings.Contains(line, `q="0.5"`):
			p50 = v
		case strings.Contains(line, `q="0.95"`):
			p95 = v
		case strings.Contains(line, `q="0.99"`):
			p99 = v
		}
		n++
	}
	if n != 3 {
		t.Fatalf("want 3 page-action quantile lines, got %d", n)
	}
	if p50 <= 0 || p50 > p95 || p95 > p99 {
		t.Fatalf("quantiles out of order: p50=%g p95=%g p99=%g", p50, p95, p99)
	}

	// Container tier: its own registry exposes the invoke histogram
	// keyed by request kind plus capacity gauges.
	rr2, ctrBody := request(t, ctr.MetricsRegistry(), "/metrics", "")
	if rr2.Code != 200 {
		t.Fatalf("container /metrics = %d", rr2.Code)
	}
	for _, want := range []string{
		"webml_container_capacity 8",
		"webml_container_served_total",
		`webml_container_invoke_seconds_bucket{kind="unit"`,
		`webml_container_invoke_seconds_quantile{kind="unit",q="0.95"}`,
	} {
		if !strings.Contains(ctrBody, want) {
			t.Fatalf("container /metrics lacks %q\n%s", want, ctrBody)
		}
	}
}

// TestTracesHandlerDisabled: without WithObservability the traces
// endpoint answers 404 rather than an empty ring.
func TestTracesHandlerDisabled(t *testing.T) {
	app := newApp(t)
	rr, _ := request(t, app.TracesHandler(), "/debug/traces", "")
	if rr.Code != 404 {
		t.Fatalf("disabled /debug/traces = %d", rr.Code)
	}
	if rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", ""); rr.Code != 200 {
		t.Fatalf("page = %d %s", rr.Code, body)
	}
	rr2, body := request(t, app.MetricsHandler(), "/metrics", "")
	if rr2.Code != 200 || !strings.Contains(body, "webml_action_seconds") {
		t.Fatalf("metrics without observability = %d\n%s", rr2.Code, body)
	}
}
