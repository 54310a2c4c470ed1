package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// numBuckets covers ~1µs to ~137s with power-of-two boundaries: bucket i
// holds observations <= 1<<(minExp+i) nanoseconds, the last bucket is
// +Inf. Fixed log-spaced boundaries mean the hot path is one bits.Len64
// plus an atomic add — no locks, no allocation.
const (
	numBuckets = 28
	minExp     = 10 // smallest boundary: 1<<10 ns ≈ 1µs
)

// bucketBound returns the upper bound of bucket i in nanoseconds, or
// +Inf for the overflow bucket.
func bucketBound(i int) float64 {
	if i >= numBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1) << (minExp + i))
}

// bucketIndex maps a duration in nanoseconds to its bucket.
func bucketIndex(ns uint64) int {
	if ns == 0 {
		return 0
	}
	// bits.Len64 gives the exponent of the next power of two >= ns.
	e := bits.Len64(ns - 1)
	if e <= minExp {
		return 0
	}
	i := e - minExp
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// Histogram is a fixed-boundary latency histogram with atomic counters:
// zero locks and zero allocations on the observe path.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	errs    atomic.Uint64
	min     atomic.Uint64 // 0 = unset
	max     atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.observe(d, false) }

// ObserveErr records one duration and, when failed, counts it toward
// the series' error total.
func (h *Histogram) ObserveErr(d time.Duration, failed bool) { h.observe(d, failed) }

func (h *Histogram) observe(d time.Duration, failed bool) {
	ns := uint64(d.Nanoseconds())
	if ns == 0 {
		ns = 1 // keep 0 free as the "unset" sentinel for min
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	if failed {
		h.errs.Add(1)
	}
	for {
		cur := h.min.Load()
		if cur != 0 && cur <= ns {
			break
		}
		if h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= ns {
			break
		}
		if h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram, safe to quantile
// and expose without racing the hot path.
type HistSnapshot struct {
	Buckets [numBuckets]uint64
	Count   uint64
	Sum     time.Duration
	Errs    uint64
	Min     time.Duration
	Max     time.Duration
}

// Snapshot copies the counters. Counts are read bucket-by-bucket, so a
// snapshot taken under concurrent writes can be off by in-flight
// observations — fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Errs = h.errs.Load()
	s.Min = time.Duration(h.min.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}

// Merge returns the element-wise sum of two snapshots — one histogram
// covering both series.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := s
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i]
	}
	out.Count += o.Count
	out.Sum += o.Sum
	out.Errs += o.Errs
	if s.Count == 0 || (o.Count > 0 && o.Min < s.Min) {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	return out
}

// Delta returns the observations recorded in s but not in prev — the
// window between two snapshots of the same histogram, for windowed
// quantiles (a benchmark reading one phase's p99 rather than
// since-startup p99). Min/Max carry over from s: the log buckets bound
// the quantile well enough for threshold decisions.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	out := s
	for i := range out.Buckets {
		if prev.Buckets[i] <= out.Buckets[i] {
			out.Buckets[i] -= prev.Buckets[i]
		} else {
			out.Buckets[i] = 0
		}
	}
	if prev.Count <= out.Count {
		out.Count -= prev.Count
	} else {
		out.Count = 0
	}
	if prev.Sum <= out.Sum {
		out.Sum -= prev.Sum
	} else {
		out.Sum = 0
	}
	if prev.Errs <= out.Errs {
		out.Errs -= prev.Errs
	} else {
		out.Errs = 0
	}
	return out
}

// Mean returns the average observation.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the bucket containing the rank, clamped to the observed
// min/max so coarse log buckets can't report impossible values.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		lo := float64(0)
		if i > 0 {
			lo = bucketBound(i - 1)
		}
		hi := bucketBound(i)
		if math.IsInf(hi, 1) {
			hi = float64(s.Max)
		}
		frac := (rank - float64(prev)) / float64(n)
		est := time.Duration(lo + (hi-lo)*frac)
		if est < s.Min {
			est = s.Min
		}
		if s.Max > 0 && est > s.Max {
			est = s.Max
		}
		return est
	}
	return s.Max
}

// HistogramVec is a family of histograms keyed by one model-derived
// label (page ID, unit ID, entity...). Series are created on first
// observation; steady-state observes are one lock-free sync.Map load
// plus the atomic histogram update.
type HistogramVec struct {
	Name  string // metric family name, e.g. webml_page_compute_seconds
	Help  string
	Label string // label key, e.g. "page"

	m sync.Map // label value -> *Histogram
}

// NewHistogramVec names a histogram family keyed by the given label.
func NewHistogramVec(name, help, label string) *HistogramVec {
	return &HistogramVec{Name: name, Help: help, Label: label}
}

// Get returns the series for a label value, creating it on first use.
func (v *HistogramVec) Get(labelValue string) *Histogram {
	if h, ok := v.m.Load(labelValue); ok {
		return h.(*Histogram)
	}
	h, _ := v.m.LoadOrStore(labelValue, &Histogram{})
	return h.(*Histogram)
}

// Observe records one duration for a label value.
func (v *HistogramVec) Observe(labelValue string, d time.Duration) {
	v.Get(labelValue).Observe(d)
}

// ObserveErr records one duration for a label value with error status.
func (v *HistogramVec) ObserveErr(labelValue string, d time.Duration, failed bool) {
	v.Get(labelValue).ObserveErr(d, failed)
}

// SeriesSnapshot is one labeled series' snapshot.
type SeriesSnapshot struct {
	LabelValue string
	Hist       HistSnapshot
}

// Snapshot copies every series, sorted by label value for stable output.
func (v *HistogramVec) Snapshot() []SeriesSnapshot {
	var out []SeriesSnapshot
	v.m.Range(func(k, h any) bool {
		out = append(out, SeriesSnapshot{LabelValue: k.(string), Hist: h.(*Histogram).Snapshot()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].LabelValue < out[j].LabelValue })
	return out
}
