package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo"
	"webmlgo/internal/fault"
	"webmlgo/internal/workload"
)

// e13 — overload survival (ISSUE 8): admission control with priority
// load-shedding, and an elastic container fleet, both measured under an
// open-loop arrival process that does not slow down when the server
// does.
//
// Four phases over the same fixture application:
//
//  1. capacity: a closed loop with exactly the admission width measures
//     what the container tier can actually serve (req/s).
//  2. collapse baseline: open-loop at 3x capacity against the SAME
//     topology with no admission gate — the container queue stands,
//     sojourn explodes past the SLO, goodput collapses.
//  3. admission at 3x: same offered load through the limiter — excess
//     is shed with an honest Retry-After, admitted requests stay within
//     SLO, and goodput holds >= 90% of measured capacity.
//  4. autoscale: a 10x Surge ramp against a 1..3 elastic fleet —
//     clones spawn on queue-depth/utilization signals, p99 stays within SLO,
//     the ramp's tail drains the fleet back to one clone, and no
//     in-flight call is lost to a retirement.
func e13() {
	const (
		adm       = 4               // admission width = container capacity
		slo       = 1 * time.Second // per-request latency objective
		loadFor   = 2 * time.Second
		reqBudget = 5 * time.Second
	)
	pages := []string{"/page/volumePage?volume=1", "/page/volumesPage", "/page/paperPage?paper=1"}

	// A deterministic 5ms of work per business call makes service time
	// dominate scheduling noise: a 4-slot container has a stable
	// ~800 req/s ceiling regardless of host speed, so capacity ratios
	// are reproducible.
	work := webmlgo.WithFaults(fault.Schedule{Seed: 7, LatencyProb: 1, Latency: 5 * time.Millisecond})

	fixedFleet := func(admission bool) *webmlgo.App {
		opts := []webmlgo.Option{
			webmlgo.WithElasticFleet(1, 1, adm),
			webmlgo.WithRemotePages(),
			webmlgo.WithRequestTimeout(reqBudget),
			work,
		}
		if admission {
			opts = append(opts, webmlgo.WithAdmission(adm, 2*adm))
		}
		return fixtureApp(opts...)
	}

	// Phase 1 — measured capacity: a closed loop as wide as the
	// admission gate, so every slot is always busy and nothing queues.
	protected := fixedFleet(true)
	capacity := closedLoopRate(protected.Handler(), pages, adm, loadFor)
	fmt.Printf("capacity (closed loop, %d workers over a %d-slot container): %.0f req/s\n",
		adm, adm, capacity)

	overload := 3 * capacity
	mkLoad := func(h http.Handler, rate float64, d time.Duration, surge *fault.Surge) workload.Report {
		gen := &workload.OpenLoop{
			Handler:      h,
			Rate:         rate,
			Duration:     d,
			Surge:        surge,
			Clicks:       1,
			Pages:        pages,
			Ops:          []string{"/op/createVolume?title=Load&year=2004"},
			OpShare:      0.02,
			CrawlerShare: 0.25,
			SLO:          slo,
			Seed:         2003,
		}
		return gen.Run(context.Background())
	}

	// Phase 2 — open-loop collapse: same topology, no admission gate.
	baseline := fixedFleet(false)
	brep := mkLoad(baseline.Handler(), overload, loadFor, nil)
	baseline.Close()
	fmt.Printf("baseline (no admission) at 3x: offered %d (lag %v), goodput %.0f req/s (%.0f%% of capacity), p99 %v, errors %d\n",
		brep.Offered, brep.Lag.Round(time.Millisecond), brep.GoodputPerSec, 100*brep.GoodputPerSec/capacity, brep.P99.Round(time.Millisecond), brep.Errors)

	// Phase 3 — admission at the same 3x offered load.
	arep := mkLoad(protected.Handler(), overload, loadFor, nil)
	fmt.Printf("admission at 3x: offered %d (lag %v), goodput %.0f req/s (%.0f%% of capacity), p99 %v, shed %d (crawler %d, interactive %d, ops %d), Retry-After p50 %v\n",
		arep.Offered, arep.Lag.Round(time.Millisecond), arep.GoodputPerSec, 100*arep.GoodputPerSec/capacity,
		arep.P99.Round(time.Millisecond), arep.Shed,
		arep.ShedByClass.Crawler, arep.ShedByClass.Interactive, arep.ShedByClass.Operations,
		arep.RetryAfterP50)
	fmt.Printf("collapse ratio (admission goodput / baseline goodput): %.1fx\n", arep.GoodputPerSec/brep.GoodputPerSec)
	check("goodput >= 90% of capacity at 3x overload", arep.GoodputPerSec >= 0.9*capacity)
	check("no priority inversion (ops never shed while crawler admitted)",
		arep.ShedByClass.Operations == 0 || arep.ShedByClass.Crawler > 0)
	protected.Close()

	// Phase 4 — elastic fleet under a 10x ramp. The supervisor reacts
	// to queue depth and utilization; the ramp's cold tail drains the
	// fleet back down with zero in-flight loss.
	elastic := fixtureApp(
		webmlgo.WithElasticFleet(1, 3, adm),
		webmlgo.WithRemotePages(),
		webmlgo.WithRequestTimeout(reqBudget),
		webmlgo.WithAdmission(3*adm, 6*adm),
		work)
	elastic.Fleet.Interval = 20 * time.Millisecond
	elastic.Fleet.Cooldown = 100 * time.Millisecond
	elastic.Fleet.IdleAfter = 300 * time.Millisecond
	ramp := (&fault.Surge{Base: 1}).Ramp(0, 2*time.Second, 1, 10, 8).Step(2*time.Second, 0.05)
	erep := mkLoad(elastic.Handler(), capacity/2, 3500*time.Millisecond, ramp)
	peak := 1
	for _, ev := range elastic.Fleet.Events() {
		if ev.To > peak {
			peak = ev.To
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for elastic.Fleet.FleetSize() > 1 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	final := elastic.Fleet.FleetSize()
	st := elastic.Fleet.Stats()
	fmt.Printf("autoscale under 10x ramp: fleet 1 -> %d -> %d (%d scale-ups, %d scale-downs), offered %d (lag %v), p99 %v, shed %d, errors %d\n",
		peak, final, st.ScaleUps, st.ScaleDowns, erep.Offered, erep.Lag.Round(time.Millisecond), erep.P99.Round(time.Millisecond), erep.Shed, erep.Errors)
	check("fleet scaled up under the ramp", peak > 1)
	check("fleet drained back to min after the ramp", final == 1)
	check("autoscale keeps p99 within SLO through 10x ramp", erep.P99 <= slo)
	check("scale-down lost zero in-flight calls", erep.Errors == 0)
	elastic.Close()
}

// closedLoopRate hammers the handler with n synchronized workers and
// returns the sustained OK rate — the classical closed-loop capacity
// measurement (offered load self-limits to what the server completes).
func closedLoopRate(h http.Handler, pages []string, n int, d time.Duration) float64 {
	var ok atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				code, _ := get(h, pages[(w+i)%len(pages)])
				if code == http.StatusOK {
					ok.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(ok.Load()) / d.Seconds()
}
