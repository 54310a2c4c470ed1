// Package admit is the web tier's overload-survival layer: a
// concurrency limiter with a bounded, priority-ordered admission queue
// and a CoDel-style adaptive queue timeout. Section 4's servlet tier
// accepts unbounded work by construction — under sustained overload an
// unlimited accept loop queues to death, latency grows without bound,
// and goodput (responses that still arrive within their SLO) collapses
// even though the server is "serving" at full speed. The limiter turns
// that failure mode into controlled degradation: a fixed number of
// requests compute concurrently, a bounded queue absorbs bursts, and
// everything beyond it is shed fast with a 503 and an honest
// Retry-After derived from the measured drain rate.
//
// Two ideas do the heavy lifting:
//
//   - CoDel-style sojourn control instead of a fixed queue cap. The
//     queue is healthy as long as waiters keep draining quickly: while
//     any admission within the last interval (100ms) waited less than
//     the target (10ms), waiters are given the generous interval
//     timeout (bursts ride through). Once the minimum sojourn over a
//     full interval stays above the target, the queue is *standing* —
//     it no longer buffers a burst, it just adds latency — and new
//     waiters get the aggressive target timeout until the queue drains
//     again. This keeps the queue short exactly when shortening it
//     helps.
//
//   - Priority classes. Operations (writes) outrank interactive reads,
//     which outrank crawler/bulk traffic. Admission always grants the
//     highest-priority waiter first; when the queue is full a new
//     arrival displaces the newest waiter of the lowest class below its
//     own; and once the limiter is in the standing-queue regime, bulk
//     arrivals are shed on sight. Under saturation the limiter thus
//     sheds crawlers before readers and readers before writers — never
//     the reverse.
package admit

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/obs"
)

// Priority orders request classes from most to least sheddable.
type Priority int

const (
	// Bulk is crawler/batch traffic: first to shed, last to admit.
	Bulk Priority = iota
	// Interactive is a human waiting on a read.
	Interactive
	// Operations are writes: shed only when nothing lower remains.
	Operations

	numPriorities
)

// String names the class for metrics labels and health snapshots.
func (p Priority) String() string {
	switch p {
	case Bulk:
		return "bulk"
	case Interactive:
		return "interactive"
	case Operations:
		return "operations"
	}
	return "unknown"
}

// Shed errors. All unwrap to ErrShed so callers can map any admission
// refusal to one response shape.
var (
	// ErrShed is the common sentinel behind every admission refusal.
	ErrShed = errors.New("admit: shed")
	// ErrQueueFull reports a full queue with nothing lower-priority to
	// displace.
	ErrQueueFull = errors.New("admit: shed: queue full")
	// ErrTimedOut reports a waiter that outlived its queue timeout.
	ErrTimedOut = errors.New("admit: shed: queue timeout")
	// ErrDisplaced reports a waiter evicted by a higher-priority arrival.
	ErrDisplaced = errors.New("admit: shed: displaced by higher priority")
	// ErrOverloaded reports a bulk arrival refused on sight while the
	// queue is standing.
	ErrOverloaded = errors.New("admit: shed: standing queue")
)

// IsShed reports whether err is any admission refusal.
func IsShed(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTimedOut) ||
		errors.Is(err, ErrDisplaced) || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShed)
}

// waiter is one queued admission request.
type waiter struct {
	pri Priority
	enq time.Time
	ch  chan error // buffered 1: nil grants, an error sheds
	// removed marks the waiter as no longer in the queue (granted,
	// displaced, timed out, or canceled); guarded by the limiter mutex.
	removed bool
}

// Limiter is the admission controller. Configure the exported knobs
// before serving; Acquire and Release are safe for concurrent use.
type Limiter struct {
	// MaxConcurrency is the number of requests allowed to compute at
	// once (the instance pool of the web tier).
	MaxConcurrency int
	// MaxQueue bounds the total waiters across all classes.
	MaxQueue int
	// target is the acceptable queue sojourn. While the minimum sojourn
	// over a full interval stays above it, the queue is standing and
	// waiters time out after target instead of interval.
	target time.Duration
	// interval is the sojourn observation window and the generous queue
	// timeout applied while the queue is healthy.
	interval time.Duration

	mu         sync.Mutex
	active     int
	queues     [numPriorities][]*waiter
	queued     int
	queuedHW   int
	aboveSince time.Time // first grant whose sojourn exceeded target, zero when healthy
	standing   bool

	// Drain-rate estimate: completions bucketed into one-second windows;
	// the previous full window is the rate behind Retry-After.
	winStart  time.Time
	winCount  int
	prevCount int

	admitted      [numPriorities]atomic.Int64
	shedFull      [numPriorities]atomic.Int64
	shedTimeout   [numPriorities]atomic.Int64
	shedDisplaced [numPriorities]atomic.Int64
	shedOverload  [numPriorities]atomic.Int64

	// Sojourn records queue wait per class (label "class"), registered
	// with /metrics by the app wiring.
	Sojourn *obs.HistogramVec
}

// NewLimiter returns a limiter admitting maxConcurrency concurrent
// requests over a queue of maxQueue waiters (<=0 selects
// 4×maxConcurrency), with the CoDel parameters target 10ms and
// interval 100ms.
func NewLimiter(maxConcurrency, maxQueue int) *Limiter {
	if maxConcurrency <= 0 {
		maxConcurrency = 1
	}
	if maxQueue <= 0 {
		maxQueue = 4 * maxConcurrency
	}
	return &Limiter{
		MaxConcurrency: maxConcurrency,
		MaxQueue:       maxQueue,
		target:         10 * time.Millisecond,
		interval:       100 * time.Millisecond,
		Sojourn: obs.NewHistogramVec("webml_admission_sojourn_seconds",
			"Admission queue wait by priority class.", "class"),
	}
}

// Slot is one admitted request's hold on a concurrency slot. AcquireSlot
// fills it and Release frees it; the zero Slot holds nothing. A caller
// keeps it with the request, so a release costs no allocation.
type Slot struct {
	l    *Limiter
	held atomic.Bool
}

// Release frees the slot if it is held. It is idempotent and safe to call
// from several goroutines: only the first call releases.
func (s *Slot) Release() {
	if s.held.CompareAndSwap(true, false) {
		s.l.release()
	}
}

// hold records a granted admission in s.
func (s *Slot) hold(l *Limiter) {
	s.l = l
	s.held.Store(true)
}

// Acquire admits one request of the given priority: it returns a
// release function to call when the request finishes, or a shed error.
// The release function is idempotent. ctx cancellation while queued
// returns ctx.Err() without counting a shed.
func (l *Limiter) Acquire(ctx context.Context, pri Priority) (func(), error) {
	s := new(Slot)
	if err := l.AcquireSlot(ctx, pri, s); err != nil {
		return nil, err
	}
	return s.Release, nil
}

// AcquireSlot is Acquire holding the admission in s, which must not be
// held: on success s holds the slot until its Release.
func (l *Limiter) AcquireSlot(ctx context.Context, pri Priority, s *Slot) error {
	if pri < Bulk || pri >= numPriorities {
		pri = Interactive
	}
	l.mu.Lock()
	if l.active < l.MaxConcurrency && l.queued == 0 {
		l.active++
		// An empty queue with free slots is by definition not standing.
		l.standing = false
		l.aboveSince = time.Time{}
		l.mu.Unlock()
		l.admitted[pri].Add(1)
		l.Sojourn.Observe(pri.String(), 0)
		s.hold(l)
		return nil
	}
	now := time.Now()
	if l.standing && pri == Bulk {
		// Standing queue: bulk traffic is refused on sight rather than
		// spending queue slots it would be displaced out of anyway.
		l.mu.Unlock()
		l.shedOverload[pri].Add(1)
		return ErrOverloaded
	}
	if l.queued >= l.MaxQueue && !l.displaceLocked(pri) {
		l.mu.Unlock()
		l.shedFull[pri].Add(1)
		return ErrQueueFull
	}
	w := &waiter{pri: pri, enq: now, ch: make(chan error, 1)}
	l.queues[pri] = append(l.queues[pri], w)
	l.queued++
	if l.queued > l.queuedHW {
		l.queuedHW = l.queued
	}
	timeout := l.interval
	if l.standing {
		timeout = l.target
	}
	l.mu.Unlock()

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-w.ch:
		if err != nil {
			return err
		}
	case <-t.C:
		if l.cancelWaiter(w) {
			l.shedTimeout[pri].Add(1)
			return ErrTimedOut
		}
		// Lost the race against a grant or displacement: the verdict is
		// already in the buffered channel.
		if err := <-w.ch; err != nil {
			return err
		}
	case <-ctx.Done():
		if l.cancelWaiter(w) {
			return ctx.Err()
		}
		if err := <-w.ch; err != nil {
			return err
		}
		// Granted a slot the caller no longer wants: hand it back.
		l.release()
		return ctx.Err()
	}
	s.hold(l)
	return nil
}

// release finishes one admitted request: it records a completion for
// the drain-rate estimate, then hands the slot to the
// highest-priority waiter (updating the CoDel state from its sojourn)
// or frees it.
func (l *Limiter) release() {
	now := time.Now()
	l.mu.Lock()
	l.recordCompletionLocked(now)
	w := l.popLocked()
	if w == nil {
		l.active--
		l.standing = false
		l.aboveSince = time.Time{}
		l.mu.Unlock()
		return
	}
	soj := now.Sub(w.enq)
	l.observeSojournLocked(soj, now)
	pri := w.pri
	l.mu.Unlock()
	l.admitted[pri].Add(1)
	l.Sojourn.Observe(pri.String(), soj)
	w.ch <- nil
}

// popLocked removes and returns the oldest waiter of the highest
// non-empty class, discarding tombstones of canceled waiters.
func (l *Limiter) popLocked() *waiter {
	for p := numPriorities - 1; p >= 0; p-- {
		q := l.queues[p]
		for len(q) > 0 {
			w := q[0]
			q = q[1:]
			if w.removed {
				continue
			}
			w.removed = true
			l.queued--
			l.queues[p] = q
			return w
		}
		l.queues[p] = q[:0]
	}
	return nil
}

// observeSojournLocked updates the CoDel standing-queue detector with
// one grant's queue wait: the queue is standing once a full interval
// passes without any sojourn under target.
func (l *Limiter) observeSojournLocked(soj time.Duration, now time.Time) {
	if soj < l.target || l.queued == 0 {
		l.aboveSince = time.Time{}
		l.standing = false
		return
	}
	if l.aboveSince.IsZero() {
		l.aboveSince = now
		return
	}
	if now.Sub(l.aboveSince) >= l.interval {
		l.standing = true
	}
}

// displaceLocked evicts the newest waiter of the lowest class strictly
// below pri, making room in a full queue. Reports whether a victim was
// found.
func (l *Limiter) displaceLocked(pri Priority) bool {
	for p := Bulk; p < pri; p++ {
		q := l.queues[p]
		for i := len(q) - 1; i >= 0; i-- {
			w := q[i]
			if w.removed {
				continue
			}
			w.removed = true
			l.queued--
			l.shedDisplaced[p].Add(1)
			w.ch <- ErrDisplaced
			return true
		}
	}
	return false
}

// cancelWaiter removes a waiter that timed out or was canceled.
// Reports whether the waiter was still queued (false means a verdict
// already landed in its channel).
func (l *Limiter) cancelWaiter(w *waiter) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w.removed {
		return false
	}
	w.removed = true
	l.queued--
	return true
}

// recordCompletionLocked buckets one completion into the current
// one-second drain window.
func (l *Limiter) recordCompletionLocked(now time.Time) {
	if l.winStart.IsZero() {
		l.winStart = now
	}
	if d := now.Sub(l.winStart); d >= time.Second {
		if d >= 2*time.Second {
			// A gap: the previous window carries no signal.
			l.prevCount = 0
		} else {
			l.prevCount = l.winCount
		}
		l.winStart = now
		l.winCount = 0
	}
	l.winCount++
}

// RetryAfter estimates how long a shed caller should back off: the
// queue depth divided by the measured drain rate, rounded up to whole
// seconds and clamped to [1s, 30s] — an honest figure instead of a
// constant, so load balancers and clients pace their retries to the
// server's actual throughput.
func (l *Limiter) RetryAfter() time.Duration {
	l.mu.Lock()
	queued := l.queued
	rate := l.prevCount
	if rate == 0 {
		rate = l.winCount
	}
	l.mu.Unlock()
	if rate <= 0 {
		return time.Second
	}
	secs := (queued + rate) / rate // ceil((queued+1)/rate) for queued >= 0
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// ClassStats is one priority class's admission counters.
type ClassStats struct {
	Admitted      int64 `json:"admitted"`
	Shed          int64 `json:"shed"`
	ShedFull      int64 `json:"shedFull,omitempty"`
	ShedTimeout   int64 `json:"shedTimeout,omitempty"`
	ShedDisplaced int64 `json:"shedDisplaced,omitempty"`
	ShedOverload  int64 `json:"shedOverload,omitempty"`
}

// Stats is a point-in-time snapshot of the limiter, surfaced through
// /healthz and /metrics.
type Stats struct {
	MaxConcurrency  int                   `json:"maxConcurrency"`
	MaxQueue        int                   `json:"maxQueue"`
	Active          int                   `json:"active"`
	Queued          int                   `json:"queued"`
	QueuedHighWater int                   `json:"queuedHighWater"`
	Standing        bool                  `json:"standingQueue"`
	RetryAfter      float64               `json:"retryAfterSeconds"`
	Classes         map[string]ClassStats `json:"classes"`
}

// Stats snapshots the limiter.
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		MaxConcurrency:  l.MaxConcurrency,
		MaxQueue:        l.MaxQueue,
		Active:          l.active,
		Queued:          l.queued,
		QueuedHighWater: l.queuedHW,
		Standing:        l.standing,
		Classes:         make(map[string]ClassStats, int(numPriorities)),
	}
	l.mu.Unlock()
	s.RetryAfter = l.RetryAfter().Seconds()
	for p := Bulk; p < numPriorities; p++ {
		cs := ClassStats{
			Admitted:      l.admitted[p].Load(),
			ShedFull:      l.shedFull[p].Load(),
			ShedTimeout:   l.shedTimeout[p].Load(),
			ShedDisplaced: l.shedDisplaced[p].Load(),
			ShedOverload:  l.shedOverload[p].Load(),
		}
		cs.Shed = cs.ShedFull + cs.ShedTimeout + cs.ShedDisplaced + cs.ShedOverload
		s.Classes[p.String()] = cs
	}
	return s
}

// Classify maps a request to its priority class: operations (POSTs and
// /op/ actions) outrank interactive reads, which outrank declared-bulk
// and crawler traffic (X-Webml-Priority: bulk, or a crawler
// User-Agent).
func Classify(r *http.Request) Priority {
	path := strings.TrimPrefix(r.URL.Path, "/")
	if strings.HasPrefix(path, "op/") || r.Method == http.MethodPost {
		return Operations
	}
	switch strings.ToLower(r.Header.Get("X-Webml-Priority")) {
	case "bulk", "low":
		return Bulk
	case "operations", "high":
		return Operations
	}
	ua := r.UserAgent()
	for _, marker := range []string{"bot", "crawler", "spider", "slurp"} {
		if containsFold(ua, marker) {
			return Bulk
		}
	}
	return Interactive
}

// containsFold reports whether s contains the lower-case ASCII substr in
// any case, without making a lower-cased copy of s.
func containsFold(s, substr string) bool {
	for i := 0; i+len(substr) <= len(s); i++ {
		if strings.EqualFold(s[i:i+len(substr)], substr) {
			return true
		}
	}
	return false
}
