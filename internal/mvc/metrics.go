package mvc

import (
	"time"

	"webmlgo/internal/obs"
)

// ActionStats aggregates the Controller's activity for one action — the
// operational visibility a centralized Controller makes trivial compared
// to scattered page templates. Statistics are derived from a per-action
// latency histogram, so beyond the classical count/total the snapshot
// carries the distribution: min, max and the p50/p95/p99 quantiles.
type ActionStats struct {
	Action string
	Count  int64
	Errors int64 // responses with status >= 400
	Total  time.Duration
	Min    time.Duration
	Max    time.Duration
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
}

// Mean returns the average service time of the action.
func (s ActionStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// metrics is the live per-action accumulator: one lock-free histogram
// per action, shared with the /metrics exposition.
type metrics struct {
	vec obs.HistogramVec
}

func (m *metrics) record(action string, d time.Duration, failed bool) {
	m.vec.ObserveErr(action, d, failed)
}

func (m *metrics) snapshot() []ActionStats {
	out := make([]ActionStats, 0, 16)
	for _, s := range m.vec.Snapshot() {
		out = append(out, ActionStats{
			Action: s.LabelValue,
			Count:  int64(s.Hist.Count),
			Errors: int64(s.Hist.Errs),
			Total:  s.Hist.Sum,
			Min:    s.Hist.Min,
			Max:    s.Hist.Max,
			P50:    s.Hist.Quantile(0.5),
			P95:    s.Hist.Quantile(0.95),
			P99:    s.Hist.Quantile(0.99),
		})
	}
	return out
}

// Metrics returns per-action statistics collected since startup, sorted
// by action name.
func (c *Controller) Metrics() []ActionStats { return c.metrics.snapshot() }

// ActionHistograms exposes the per-action latency histograms backing
// Metrics() — app wiring registers this with the /metrics registry. The
// family metadata is stamped here (not on the hot path, which never
// reads it).
func (c *Controller) ActionHistograms() *obs.HistogramVec {
	v := &c.metrics.vec
	v.Name = "webml_action_seconds"
	v.Help = "Controller action service time by mapped action."
	v.Label = "action"
	return v
}
