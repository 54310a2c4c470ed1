package webmlgo

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"webmlgo/internal/admit"
	"webmlgo/internal/ejb"
	"webmlgo/internal/fault"
)

// Health is the web tier's /healthz snapshot: circuit-breaker state per
// container endpoint, admission-control pressure, fleet size,
// resilience counters, and cache degradation — the operator's view of
// whether the tier split is currently absorbing failures or surfacing
// them.
type Health struct {
	OK bool `json:"ok"`
	// Endpoints is the client-side view of each container address
	// (empty without WithAppServer or WithElasticFleet).
	Endpoints []ejb.EndpointHealth `json:"endpoints,omitempty"`
	// Admission is the limiter snapshot (WithAdmission): active slots,
	// queue depth, standing-queue flag, per-class shed counters.
	Admission *admit.Stats `json:"admission,omitempty"`
	// Fleet is the supervisor snapshot (WithElasticFleet): current
	// size, draining clones, and recent scale events.
	Fleet *ejb.FleetStats `json:"fleet,omitempty"`
	// Retries counts unit-read retry attempts (WithRetries).
	Retries int64 `json:"retries,omitempty"`
	// DegradedHits counts stale beans served while the business tier
	// was failing (WithDegradedServing).
	DegradedHits int64 `json:"degradedHits,omitempty"`
	// Faults counts the chaos fired in this App's business tier
	// (WithFaults), wherever that tier runs.
	Faults *fault.Counts `json:"faults,omitempty"`
	// Recorder is the slow-query flight recorder snapshot
	// (WithObservability with a slow-query threshold): capture threshold and how many queries the
	// ring has seen.
	Recorder *RecorderHealth `json:"recorder,omitempty"`
}

// RecorderHealth summarizes the slow-query flight recorder.
type RecorderHealth struct {
	Threshold string `json:"threshold"`
	Captured  uint64 `json:"captured"`
}

// Health snapshots the application's resilience state. OK is false only
// when every container endpoint's breaker is open — the web tier can
// still answer from cache (degraded), but new business work will fail.
// Admission pressure (even a standing queue) does not flip OK: a
// shedding tier is degraded by policy, not down.
func (a *App) Health() Health {
	h := Health{OK: true}
	if a.Remote != nil {
		h.Endpoints = a.Remote.Health()
		allOpen := len(h.Endpoints) > 0
		for _, ep := range h.Endpoints {
			if ep.State != ejb.BreakerOpen {
				allOpen = false
			}
		}
		h.OK = !allOpen
	}
	if a.Admission != nil {
		s := a.Admission.Stats()
		h.Admission = &s
	}
	if a.Fleet != nil {
		s := a.Fleet.Stats()
		h.Fleet = &s
	}
	if a.Resilient != nil {
		h.Retries = a.Resilient.Retries.Load()
	}
	if a.BeanCache != nil {
		h.DegradedHits = a.BeanCache.Stats().DegradedHits
	}
	if a.Faults != nil {
		c := a.Faults.Counts()
		h.Faults = &c
	}
	if enabled, threshold := a.DB.RecorderEnabled(); enabled {
		h.Recorder = &RecorderHealth{
			Threshold: threshold.String(),
			Captured:  a.DB.Stats().QueriesRecorded,
		}
	}
	return h
}

// retryAfter is the back-off the web tier advertises on a 503: the
// larger of the soonest breaker recovery (failing containers) and the
// admission queue's drain estimate (overload) — whichever condition
// clears later governs when a retry can actually succeed.
func (a *App) retryAfter() time.Duration {
	retry := time.Second
	if a.Remote != nil {
		if d := a.Remote.RetryAfter(); d > retry {
			retry = d
		}
	}
	if a.Admission != nil {
		if d := a.Admission.RetryAfter(); d > retry {
			retry = d
		}
	}
	return retry
}

// HealthHandler returns the /healthz endpoint: Health as JSON, 200
// while at least one path to the business tier works, 503 once every
// breaker is open. The 503 carries a Retry-After header covering both
// the soonest breaker cooldown and the admission queue's measured
// drain time, so load balancers back off for exactly as long as
// requests would keep failing or shedding.
func (a *App) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := a.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.OK {
			w.Header().Set("Retry-After", strconv.Itoa(int(a.retryAfter()/time.Second)))
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h) //nolint:errcheck // best-effort probe response
	})
}
