package webmlgo

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
)

// sleepyModel is a one-page model with a "sleepy" plug-in unit, whose
// spec is registered for the test's lifetime.
func sleepyModel(t *testing.T) *webml.Model {
	t.Helper()
	if err := RegisterPlugin(PluginSpec{Kind: "sleepy", Description: "outlasts any request budget"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { webml.UnregisterPlugin("sleepy") })
	b := NewBuilder("sleepy", fixture.ACMSchema())
	b.SiteView("sv", "SV").Page("home", "Home").Plugin("nap", "sleepy", nil)
	model, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// registerSleepyService gives the sleepy unit a component that waits a
// second, or until its context is done, and counts its runs.
func registerSleepyService(t *testing.T, app *App, runs *atomic.Int64) {
	t.Helper()
	app.LocalBusiness().RegisterUnitService("sleepy", mvc.UnitServiceFunc(
		func(ctx context.Context, _ *rdb.DB, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			runs.Add(1)
			select {
			case <-time.After(time.Second):
				return &mvc.UnitBean{UnitID: d.ID, Kind: d.Kind}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}))
}

// checkDeadline504 requests the sleepy page of web under a 50 ms budget
// with 3 attempts: the request answers 504 when its budget runs out, and
// the unit ran once, since a deadline is not retried.
func checkDeadline504(t *testing.T, web *App, runs *atomic.Int64) {
	t.Helper()
	start := time.Now()
	rr, body := request(t, web.Handler(), "/page/home", "")
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d after %v, want 504: %s", rr.Code, time.Since(start), body)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("a 50 ms budget answered after %v", took)
	}
	// Give a retry that should not happen the time a backoff would take.
	time.Sleep(20 * time.Millisecond)
	if n := runs.Load(); n != 1 {
		t.Fatalf("the unit ran %d times under WithRetries(3), want 1", n)
	}
}

// TestRequestDeadlineIs504Local: in process, a unit outlasting the
// request budget answers 504 and is not retried.
func TestRequestDeadlineIs504Local(t *testing.T) {
	var runs atomic.Int64
	web, err := New(sleepyModel(t), WithRequestTimeout(50*time.Millisecond), WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	registerSleepyService(t, web, &runs)
	checkDeadline504(t, web, &runs)
}

// TestRequestDeadlineIs504Remote: through an application server, the
// deadline crosses the wire as a deadline: 504, as in process, and no
// retry.
func TestRequestDeadlineIs504Remote(t *testing.T) {
	var runs atomic.Int64
	model := sleepyModel(t)
	backend, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	registerSleepyService(t, backend, &runs)
	ctr, addr, err := backend.DeployContainer(4, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close() //nolint:errcheck // test teardown
	web, err := New(model, WithAppServer(addr), WithRequestTimeout(50*time.Millisecond), WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	defer web.Close()
	checkDeadline504(t, web, &runs)
}
