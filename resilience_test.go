package webmlgo

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
)

// TestResilienceUnderFlappingContainer is the end-to-end acceptance run
// of the fault-tolerant business tier (a compact, -race-friendly version
// of experiment E7b): three containers serve one web tier while one of
// them flaps — killed and restarted on the same address in a loop — and
// the request stream must stay essentially clean, absorbed by circuit
// breaking, failover, and retries.
func TestResilienceUnderFlappingContainer(t *testing.T) {
	backend, err := New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixture.Seed(backend.DB); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 3)
	flapper, addr0, err := backend.DeployContainer(8, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs[0] = addr0
	for i := 1; i < 3; i++ {
		ctr, addr, err := backend.DeployContainer(8, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ctr.Close()
		addrs[i] = addr
	}

	app, err := New(fixture.Figure1Model(),
		WithAppServer(addrs...),
		WithBeanCache(1024),
		WithRetries(3),
		WithRequestTimeout(2*time.Second),
		WithDegradedServing(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Remote.Close()
	h := app.Handler()

	// Flap container 0: close it, wait, restart on the same address.
	stop := make(chan struct{})
	var flapWg sync.WaitGroup
	flapWg.Add(1)
	go func() {
		defer flapWg.Done()
		ctr := flapper
		for {
			select {
			case <-stop:
				if ctr != nil {
					ctr.Close()
				}
				return
			default:
			}
			time.Sleep(30 * time.Millisecond)
			if ctr != nil {
				ctr.Close()
				ctr = nil
			}
			time.Sleep(30 * time.Millisecond)
			if nc, _, err := backend.DeployContainer(8, addrs[0]); err == nil {
				ctr = nc
			}
		}
	}()

	var total, failures int
	var lastCreated string
	deadline := time.Now().Add(1500 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		var path string
		switch {
		case i%25 == 24:
			path = fmt.Sprintf("/op/createVolume?title=Flap%d&year=2004", i)
		case i%2 == 0:
			path = "/page/volumePage?volume=1"
		default:
			path = "/page/volumesPage"
		}
		rr, _ := request(t, h, path, "")
		total++
		if rr.Code >= 500 {
			failures++
		} else if strings.HasPrefix(path, "/op/") {
			lastCreated = fmt.Sprintf("Flap%d", i)
		}
	}
	close(stop)
	flapWg.Wait()

	if total < 50 {
		t.Fatalf("driver starved: only %d requests issued", total)
	}
	rate := float64(total-failures) / float64(total)
	if rate < 0.99 {
		t.Fatalf("success rate %.4f (%d/%d requests) under a flapping container, want >= 0.99",
			rate, total-failures, total)
	}
	// Writes that reported success are durable and visible through the
	// uncached volume index — availability never came from serving
	// written-over data.
	if lastCreated != "" {
		_, body := request(t, h, "/page/volumesPage", "")
		if !strings.Contains(body, lastCreated) {
			t.Fatalf("successful write %s not visible after the storm", lastCreated)
		}
	}
}

// TestHealthzAndDegradedServingUnderFullOutage: with every container
// down, cached unit reads within the staleness bound still answer
// (counted as degraded hits), and /healthz flips to 503 once all
// breakers are open.
func TestHealthzAndDegradedServingUnderFullOutage(t *testing.T) {
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

	app, err := New(fixture.Figure1Model(),
		WithAppServer(addr),
		WithBeanCache(1024),
		WithRetries(3),
		WithDegradedServing(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Remote.Close()

	// Healthy: the probe reports OK.
	rr, body := request(t, app.HealthHandler(), "/healthz", "")
	if rr.Code != 200 || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("healthy probe = %d %s", rr.Code, body)
	}

	// Warm the bean cache through a real page, then age the volumeData
	// bean past its TTL so only degraded mode can serve it.
	if rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", ""); rr.Code != 200 {
		t.Fatalf("warmup failed: %d %s", rr.Code, body)
	}
	d := app.Artifacts.Repo.Unit("volumeData")
	key := cache.Key("volumeData", map[string]string{"volume": mvc.FormatParam(int64(1))})
	v, ok := app.BeanCache.Get(key)
	if !ok {
		t.Fatal("warmup did not cache volumeData")
	}
	app.BeanCache.Put(key, v, d.Reads, time.Millisecond)
	time.Sleep(5 * time.Millisecond)

	// Total outage.
	ctr.Close()

	bean, err := app.Business.ComputeUnit(context.Background(), d, map[string]mvc.Value{"volume": int64(1)})
	if err != nil {
		t.Fatalf("degraded serving failed during outage: %v", err)
	}
	if bean.Nodes[0].Values[1].Value() != "TODS Volume 27" {
		t.Fatalf("degraded bean = %+v", bean)
	}
	health := app.Health()
	if health.DegradedHits == 0 {
		t.Fatal("degraded hit not surfaced in health")
	}
	// The three retry attempts were three breaker failures: the single
	// endpoint's circuit is open, so the probe flips to 503.
	rr2, body2 := request(t, app.HealthHandler(), "/healthz", "")
	if rr2.Code != 503 || !strings.Contains(body2, `"ok":false`) {
		t.Fatalf("outage probe = %d %s", rr2.Code, body2)
	}
	if !strings.Contains(body2, `"degradedHits"`) {
		t.Fatalf("probe lacks degraded counter: %s", body2)
	}
}
