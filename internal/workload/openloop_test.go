package workload

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/fault"
)

// stubHandler serves pages instantly, sheds crawler traffic, and slows
// operations past the SLO — a fixed surface the report must classify
// correctly.
func stubHandler(slow time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.Contains(r.UserAgent(), "bot"):
			w.Header().Set("X-Webml-Shed", "1")
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
		case strings.HasPrefix(r.URL.Path, "/op/"):
			time.Sleep(slow)
			w.WriteHeader(http.StatusOK)
		default:
			w.WriteHeader(http.StatusOK)
		}
	})
}

func TestOpenLoopClassifiesOutcomes(t *testing.T) {
	o := &OpenLoop{
		Handler:      stubHandler(20 * time.Millisecond),
		Rate:         300,
		Duration:     300 * time.Millisecond,
		Clicks:       2,
		Pages:        []string{"/page/a", "/page/b"},
		Ops:          []string{"/op/x"},
		OpShare:      0.3,
		CrawlerShare: 0.2,
		SLO:          10 * time.Millisecond,
		Seed:         42,
	}
	rep := o.Run(context.Background())
	if rep.Sessions == 0 || rep.Offered == 0 {
		t.Fatalf("no load offered: %+v", rep)
	}
	if rep.Offered != rep.OK+rep.Shed+rep.Errors {
		t.Fatalf("outcome accounting broken: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("stub never errors, got %d", rep.Errors)
	}
	if rep.Shed == 0 || rep.ShedByClass.Crawler != rep.Shed {
		t.Fatalf("crawler sheds misclassified: shed=%d byClass=%+v", rep.Shed, rep.ShedByClass)
	}
	if rep.OKByClass.Operations == 0 {
		t.Fatal("no operations offered despite OpShare")
	}
	// Every operation is slower than the SLO; every page is faster.
	if rep.SLOViolations != rep.OKByClass.Operations {
		t.Fatalf("SLO accounting: violations=%d ops=%d", rep.SLOViolations, rep.OKByClass.Operations)
	}
	if rep.Goodput <= 0 || rep.Goodput >= 1 {
		t.Fatalf("goodput out of range: %v", rep.Goodput)
	}
	if rep.RetryAfterP50 < time.Second {
		t.Fatalf("Retry-After not captured: %v", rep.RetryAfterP50)
	}
}

func TestOpenLoopDeterministicArrivalCount(t *testing.T) {
	mk := func() Report {
		o := &OpenLoop{
			Handler:     stubHandler(0),
			Rate:        500,
			Duration:    200 * time.Millisecond,
			Clicks:      1,
			Pages:       []string{"/page/a"},
			Seed:        7,
			MaxSessions: 50,
		}
		return o.Run(context.Background())
	}
	a, b := mk(), mk()
	if a.Sessions != 50 || b.Sessions != 50 {
		t.Fatalf("MaxSessions cap not honored: %d, %d", a.Sessions, b.Sessions)
	}
	if a.Offered != b.Offered || a.OK != b.OK {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestOpenLoopSurgeRaisesOfferedLoad(t *testing.T) {
	run := func(s *fault.Surge) Report {
		o := &OpenLoop{
			Handler:  stubHandler(0),
			Rate:     200,
			Duration: 300 * time.Millisecond,
			Clicks:   1,
			Pages:    []string{"/page/a"},
			Seed:     3,
			Surge:    s,
		}
		return o.Run(context.Background())
	}
	base := run(nil)
	surged := run((&fault.Surge{Base: 1}).Step(0, 4))
	if surged.Offered < base.Offered*2 {
		t.Fatalf("4x surge offered %d, base %d — surge not applied", surged.Offered, base.Offered)
	}
}

// TestOpenLoopReportsLag: with a trivial handler nothing holds the arrival
// loop back, so the last arrival lags its Poisson schedule by timer slack
// only: more than zero, since a timer never fires early, and well under
// the schedule itself, which Elapsed also spans.
func TestOpenLoopReportsLag(t *testing.T) {
	o := &OpenLoop{
		Handler:     stubHandler(0),
		Rate:        100,
		Duration:    10 * time.Second,
		Clicks:      1,
		Pages:       []string{"/page/a"},
		Seed:        11,
		MaxSessions: 20,
	}
	rep := o.Run(context.Background())
	if rep.Sessions != 20 {
		t.Fatalf("sessions %d, want the MaxSessions cap of 20", rep.Sessions)
	}
	if rep.Lag <= 0 || rep.Lag >= rep.Elapsed/2 {
		t.Fatalf("lag %v over %v elapsed: the loop fell behind its schedule", rep.Lag, rep.Elapsed)
	}
	t.Logf("lag %v over %v elapsed", rep.Lag, rep.Elapsed)
}
