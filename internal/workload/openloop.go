package workload

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/fault"
	"webmlgo/internal/obs"
)

// OpenLoop is an open-loop session generator: sessions arrive by a
// Poisson process at Rate regardless of how the system is coping —
// unlike a closed loop, slow responses do not slow the offered load
// down, which is exactly the regime where an unprotected server
// queue-collapses. Each session walks Clicks requests with
// exponentially distributed think time, mixing interactive page views,
// operations, and crawler-tagged bulk reads.
type OpenLoop struct {
	// Handler receives every request in-process (no socket overhead, so
	// a single test binary can offer millions of sessions).
	Handler http.Handler
	// Rate is the base session arrival rate per second.
	Rate float64
	// Duration bounds the arrival window; in-flight sessions finish
	// after it closes.
	Duration time.Duration
	// Surge optionally shapes Rate over elapsed time (overload ramps).
	Surge *fault.Surge
	// ThinkTime is the mean think time between clicks (0 = none).
	ThinkTime time.Duration
	// Clicks is the number of requests per session (<=0 selects 3).
	Clicks int
	// Pages are the interactive GET paths sessions browse.
	Pages []string
	// Ops are the operation paths (side-effecting, highest priority).
	Ops []string
	// OpShare is the fraction of clicks that are operations.
	OpShare float64
	// CrawlerShare is the fraction of sessions that present a crawler
	// user agent (lowest priority, first to shed).
	CrawlerShare float64
	// SLO is the per-request latency objective; a 200 above it counts
	// against goodput.
	SLO time.Duration
	// Seed drives deterministic arrivals, think times, and path choice.
	Seed int64
	// MaxSessions caps total arrivals (0 = unlimited).
	MaxSessions int64
}

// ClassCounts breaks one outcome down by priority class.
type ClassCounts struct {
	Interactive int64 `json:"interactive"`
	Operations  int64 `json:"operations"`
	Crawler     int64 `json:"crawler"`
}

func (c *ClassCounts) add(crawler, op bool) {
	switch {
	case op:
		atomic.AddInt64(&c.Operations, 1)
	case crawler:
		atomic.AddInt64(&c.Crawler, 1)
	default:
		atomic.AddInt64(&c.Interactive, 1)
	}
}

// Report is one open-loop run's outcome.
type Report struct {
	Sessions int64         `json:"sessions"`
	Offered  int64         `json:"offered"` // requests sent
	Elapsed  time.Duration `json:"elapsed"`
	// Lag is how far the last arrival fell behind its Poisson schedule.
	Lag time.Duration `json:"lag"`

	OK            int64 `json:"ok"`            // 2xx/3xx responses
	Shed          int64 `json:"shed"`          // 503 with the shed marker (or Retry-After)
	Errors        int64 `json:"errors"`        // everything else
	Stale         int64 `json:"stale"`         // OK served from stale edge/bean fallback
	SLOViolations int64 `json:"sloViolations"` // OK but slower than SLO

	ShedByClass ClassCounts `json:"shedByClass"`
	OKByClass   ClassCounts `json:"okByClass"`

	P50 time.Duration `json:"p50"`
	P95 time.Duration `json:"p95"`
	P99 time.Duration `json:"p99"`

	// Goodput is within-SLO successes per offered request.
	Goodput float64 `json:"goodput"`
	// GoodputPerSec is within-SLO successes per wall second.
	GoodputPerSec float64 `json:"goodputPerSec"`
	// RetryAfterP50 is the median Retry-After advertised on sheds.
	RetryAfterP50 time.Duration `json:"retryAfterP50"`
}

// Run offers load until the duration elapses (or ctx cancels), waits
// for in-flight sessions, and reports.
func (o *OpenLoop) Run(ctx context.Context) Report {
	clicks := o.Clicks
	if clicks <= 0 {
		clicks = 3
	}
	master := rand.New(rand.NewSource(o.Seed))
	var (
		rep     Report
		lat     obs.Histogram
		retries obs.Histogram
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(o.Duration)
	var sessions int64
	var schedule time.Duration // the running sum of the arrival gaps
	for {
		now := time.Now()
		if now.After(deadline) || ctx.Err() != nil {
			break
		}
		if o.MaxSessions > 0 && sessions >= o.MaxSessions {
			break
		}
		rate := o.Rate
		if o.Surge != nil {
			rate *= o.Surge.At(now.Sub(start))
		}
		if rate <= 0 {
			rate = 1
		}
		// Poisson arrivals: exponential inter-arrival gap at the current
		// (possibly surged) rate.
		gap := time.Duration(master.ExpFloat64() / rate * float64(time.Second))
		schedule += gap
		if gap > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(gap):
			}
		}
		rep.Lag = time.Since(start) - schedule
		sessions++
		seed := master.Int63()
		crawler := master.Float64() < o.CrawlerShare
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.session(ctx, rand.New(rand.NewSource(seed)), crawler, clicks, &rep, &lat, &retries)
		}()
	}
	wg.Wait()
	rep.Sessions = sessions
	rep.Elapsed = time.Since(start)
	snap := lat.Snapshot()
	rep.P50 = snap.Quantile(0.50)
	rep.P95 = snap.Quantile(0.95)
	rep.P99 = snap.Quantile(0.99)
	if rep.Offered > 0 {
		rep.Goodput = float64(rep.OK-rep.SLOViolations) / float64(rep.Offered)
	}
	if s := rep.Elapsed.Seconds(); s > 0 {
		rep.GoodputPerSec = float64(rep.OK-rep.SLOViolations) / s
	}
	rep.RetryAfterP50 = retries.Snapshot().Quantile(0.50)
	return rep
}

// session walks one visitor's clicks, classifying every response.
func (o *OpenLoop) session(ctx context.Context, rng *rand.Rand, crawler bool, clicks int, rep *Report, lat, retries *obs.Histogram) {
	for i := 0; i < clicks && ctx.Err() == nil; i++ {
		op := len(o.Ops) > 0 && !crawler && rng.Float64() < o.OpShare
		var path string
		if op {
			path = o.Ops[rng.Intn(len(o.Ops))]
		} else if len(o.Pages) > 0 {
			path = o.Pages[rng.Intn(len(o.Pages))]
		} else {
			return
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if crawler {
			req.Header.Set("User-Agent", "openloop-crawler-bot/1.0")
		}
		rr := httptest.NewRecorder()
		t0 := time.Now()
		o.Handler.ServeHTTP(rr, req)
		d := time.Since(t0)
		atomic.AddInt64(&rep.Offered, 1)
		switch {
		case rr.Code < 400:
			lat.Observe(d)
			atomic.AddInt64(&rep.OK, 1)
			rep.OKByClass.add(crawler, op)
			if rr.Header().Get("X-Cache") == "STALE" || rr.Header().Get("X-Webml-Stale") != "" {
				atomic.AddInt64(&rep.Stale, 1)
			}
			if o.SLO > 0 && d > o.SLO {
				atomic.AddInt64(&rep.SLOViolations, 1)
			}
		case rr.Code == http.StatusServiceUnavailable &&
			(rr.Header().Get("X-Webml-Shed") != "" || rr.Header().Get("Retry-After") != ""):
			atomic.AddInt64(&rep.Shed, 1)
			rep.ShedByClass.add(crawler, op)
			if ra, err := strconv.Atoi(rr.Header().Get("Retry-After")); err == nil {
				retries.Observe(time.Duration(ra) * time.Second)
			}
		default:
			atomic.AddInt64(&rep.Errors, 1)
		}
		if o.ThinkTime > 0 && i < clicks-1 {
			think := time.Duration(rng.ExpFloat64() * float64(o.ThinkTime))
			if think > 4*o.ThinkTime {
				think = 4 * o.ThinkTime
			}
			select {
			case <-ctx.Done():
			case <-time.After(think):
			}
		}
	}
}
