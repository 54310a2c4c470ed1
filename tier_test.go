package webmlgo

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/fault"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/render"
	"webmlgo/internal/webml"
)

// stampModel is a one-page model with a "stamp" plug-in unit, whose
// spec is registered for the test's lifetime.
func stampModel(t *testing.T) *webml.Model {
	t.Helper()
	if err := RegisterPlugin(PluginSpec{Kind: "stamp", Description: "a fixed label"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { webml.UnregisterPlugin("stamp") })
	b := NewBuilder("stamped", fixture.ACMSchema())
	pb := b.SiteView("sv", "SV").Page("home", "Home")
	pb.Index("volIdx", "Volume", "Title")
	pb.Plugin("stamp1", "stamp", map[string]string{"label": "tier-owned"})
	model, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// registerStampService gives the stamp unit its runtime component on
// the business tier app owns.
func registerStampService(t *testing.T, app *App) {
	t.Helper()
	lb := app.LocalBusiness()
	if lb == nil {
		t.Error("the app that owns the business tier has no LocalBusiness")
		return
	}
	lb.RegisterUnitService("stamp", mvc.UnitServiceFunc(
		func(_ context.Context, _ *rdb.DB, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
			label, _ := d.Prop("label")
			return &mvc.UnitBean{UnitID: d.ID, Kind: d.Kind, Props: map[string]string{"label": label}}, nil
		}))
}

// registerStampTag gives the stamp unit its rendition on app's web tier.
func registerStampTag(app *App) {
	app.Renderer.RegisterTag("stamp", func(_ *render.Context, w *bytes.Buffer, bean *mvc.UnitBean) {
		w.WriteString(`<div class="stamp">` + bean.Props["label"] + `</div>`)
	})
}

// TestPluginUnitServedWhereTheTierRuns: a plug-in unit service
// registered on the App that owns the business tier answers wherever
// that tier runs — in the containers it deployed, through per-unit
// level batches and through whole remote pages, and in its elastic
// fleet's clones.
func TestPluginUnitServedWhereTheTierRuns(t *testing.T) {
	model := stampModel(t)
	backend, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	registerStampService(t, backend)
	ctr, addr, err := backend.DeployContainer(8, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()

	fleet, err := New(model, WithElasticFleet(1, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	registerStampService(t, fleet)

	webs := map[string]*App{"fleet": fleet}
	for name, opts := range map[string][]Option{
		"per-unit batches": {WithAppServer(addr)},
		"remote pages":     {WithAppServer(addr), WithRemotePages()},
	} {
		web, err := New(model, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer web.Remote.Close()
		webs[name] = web
	}
	for name, web := range webs {
		registerStampTag(web)
		rr, body := request(t, web.Handler(), "/page/home", "")
		if rr.Code != http.StatusOK || !strings.Contains(body, `<div class="stamp">tier-owned</div>`) {
			t.Errorf("%s: status %d, plug-in rendition missing:\n%s", name, rr.Code, body)
		}
	}
}

// TestQueryOverrideReachesContainer: a hand-tuned query set on the App
// that deployed a container is the query that container's page service
// runs (Section 6's overrides hold across the tier split).
func TestQueryOverrideReachesContainer(t *testing.T) {
	backend := newApp(t)
	ctr, addr, err := backend.DeployContainer(8, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	web, err := New(fixture.Figure1Model(), WithAppServer(addr), WithRemotePages())
	if err != nil {
		t.Fatal(err)
	}
	defer web.Remote.Close()
	if err := backend.Repo().OverrideQuery("volumeData",
		"SELECT t.oid, t.title, t.year FROM volume t WHERE t.oid <> ?"); err != nil {
		t.Fatal(err)
	}
	rr, body := request(t, web.Handler(), "/page/volumePage?volume=1", "")
	if rr.Code != http.StatusOK || !strings.Contains(body, "TODS Volume 26") || strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("status %d, want the overridden query's volume 26, not 27:\n%s", rr.Code, body)
	}
}

// TestFaultsFireWhereTheTierRuns: WithFaults injects into the App's own
// business tier wherever that tier runs — in process, in its elastic
// fleet's clones, and in a container it deployed for a WithAppServer web
// tier — and is refused on a WithAppServer App, which has no tier of
// its own to inject into.
func TestFaultsFireWhereTheTierRuns(t *testing.T) {
	sched := fault.Schedule{Seed: 3, LatencyProb: 1, Latency: time.Millisecond}
	cases := []struct {
		name string
		// serve returns the App that owns the faulted tier and the
		// handler a request goes through.
		serve func(t *testing.T) (*App, http.Handler)
	}{
		{"local", func(t *testing.T) (*App, http.Handler) {
			app := newApp(t, WithFaults(sched))
			return app, app.Handler()
		}},
		{"elastic fleet", func(t *testing.T) (*App, http.Handler) {
			app := newApp(t, WithFaults(sched), WithElasticFleet(1, 1, 4))
			t.Cleanup(app.Close)
			return app, app.Handler()
		}},
		{"deployed container", func(t *testing.T) (*App, http.Handler) {
			faulted := newApp(t, WithFaults(sched))
			ctr, addr, err := faulted.DeployContainer(4, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ctr.Close() })
			web, err := New(fixture.Figure1Model(), WithAppServer(addr))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(web.Close)
			if _, _, err := web.DeployContainer(4, "127.0.0.1:0"); err == nil {
				t.Fatal("a WithAppServer app deployed a container")
			}
			return faulted, web.Handler()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			owner, h := tc.serve(t)
			rr, body := request(t, h, "/page/volumePage?volume=1", "")
			if rr.Code != http.StatusOK || !strings.Contains(body, "TODS Volume 27") {
				t.Fatalf("status %d:\n%s", rr.Code, body)
			}
			if c := owner.Faults.Counts(); c.Latencies == 0 {
				t.Fatalf("no latency fired in the owner's tier: %+v", c)
			}
		})
	}
	_, err := New(fixture.Figure1Model(), WithAppServer("127.0.0.1:1"), WithFaults(sched))
	if err == nil || !strings.Contains(err.Error(), "the chaos belongs to the App that deploys the containers") {
		t.Fatalf("WithFaults with WithAppServer: err %v", err)
	}
}
