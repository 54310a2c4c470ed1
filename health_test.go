package webmlgo

import (
	"context"
	"encoding/json"
	"strconv"
	"testing"
	"time"

	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
)

// TestHealthzBreakerTransitionsAndRetryAfter: the web tier's /healthz
// reports per-endpoint breaker transitions (opens count, last-opened
// timestamp) and, once every circuit is open, answers 503 with a
// Retry-After derived from the breaker cooldown.
func TestHealthzBreakerTransitionsAndRetryAfter(t *testing.T) {
	backend, err := New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixture.Seed(backend.DB); err != nil {
		t.Fatal(err)
	}
	ctr, addr, err := backend.DeployContainer(8, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	app, err := New(fixture.Figure1Model(), WithAppServer(addr), WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Remote.Close()

	// Healthy: 200, no Retry-After, endpoint closed with zero opens.
	rr, body := request(t, app.HealthHandler(), "/healthz", "")
	if rr.Code != 200 {
		t.Fatalf("healthy probe = %d %s", rr.Code, body)
	}
	if got := rr.Header().Get("Retry-After"); got != "" {
		t.Fatalf("healthy probe set Retry-After %q", got)
	}
	var h struct {
		OK        bool `json:"ok"`
		Endpoints []struct {
			Addr         string     `json:"addr"`
			State        string     `json:"state"`
			Opens        int64      `json:"opens"`
			Rejected     int64      `json:"rejected"`
			LastOpenedAt *time.Time `json:"lastOpenedAt"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || len(h.Endpoints) != 1 || h.Endpoints[0].State != "closed" ||
		h.Endpoints[0].Opens != 0 || h.Endpoints[0].LastOpenedAt != nil {
		t.Fatalf("healthy snapshot = %+v", h)
	}

	// Kill the only container; three retry attempts are three breaker
	// failures, tripping the single endpoint's circuit open.
	ctr.Close()
	before := time.Now()
	d := app.Artifacts.Repo.Unit("volumeData")
	if _, err := app.Business.ComputeUnit(context.Background(), d,
		map[string]mvc.Value{"volume": int64(1)}); err == nil {
		t.Fatal("unit read succeeded against a dead container")
	}

	rr2, body2 := request(t, app.HealthHandler(), "/healthz", "")
	if rr2.Code != 503 {
		t.Fatalf("outage probe = %d %s", rr2.Code, body2)
	}
	ra, err := strconv.Atoi(rr2.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("outage Retry-After = %q (want whole seconds >= 1)", rr2.Header().Get("Retry-After"))
	}
	if err := json.Unmarshal([]byte(body2), &h); err != nil {
		t.Fatal(err)
	}
	ep := h.Endpoints[0]
	if h.OK || ep.State != "open" || ep.Opens < 1 {
		t.Fatalf("outage snapshot = %+v", h)
	}
	if ep.LastOpenedAt == nil || ep.LastOpenedAt.Before(before) || ep.LastOpenedAt.After(time.Now()) {
		t.Fatalf("lastOpenedAt = %v (breaker tripped after %v)", ep.LastOpenedAt, before)
	}
}

// TestHealthzWithoutAppServer: an in-process app has no endpoints and
// never goes unhealthy through the breaker path.
func TestHealthzWithoutAppServer(t *testing.T) {
	app := newApp(t)
	rr, body := request(t, app.HealthHandler(), "/healthz", "")
	if rr.Code != 200 {
		t.Fatalf("probe = %d %s", rr.Code, body)
	}
	var h map[string]interface{}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h["ok"] != true {
		t.Fatalf("ok = %v", h["ok"])
	}
	if _, present := h["endpoints"]; present {
		t.Fatalf("in-process app reported endpoints: %s", body)
	}
}

// TestContainerHealthHandler: the container tier's /healthz reports
// capacity state as JSON, and flips to 503 with Retry-After once the
// container closes.
func TestContainerHealthHandler(t *testing.T) {
	backend, err := New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixture.Seed(backend.DB); err != nil {
		t.Fatal(err)
	}
	ctr, _, err := backend.DeployContainer(4, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rr, body := request(t, ctr.HealthHandler(), "/healthz", "")
	if rr.Code != 200 {
		t.Fatalf("open container probe = %d %s", rr.Code, body)
	}
	var h struct {
		OK       bool `json:"ok"`
		Capacity int  `json:"capacity"`
		Active   int  `json:"active"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Capacity != 4 {
		t.Fatalf("open snapshot = %+v", h)
	}

	ctr.Close()
	rr2, body2 := request(t, ctr.HealthHandler(), "/healthz", "")
	if rr2.Code != 503 {
		t.Fatalf("closed container probe = %d %s", rr2.Code, body2)
	}
	if got := rr2.Header().Get("Retry-After"); got != "5" {
		t.Fatalf("closed container Retry-After = %q", got)
	}
	if err := json.Unmarshal([]byte(body2), &h); err != nil {
		t.Fatal(err)
	}
	if h.OK {
		t.Fatal("closed container still reports ok")
	}
}
