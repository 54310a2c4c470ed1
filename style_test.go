package webmlgo

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/render"
	"webmlgo/internal/style"
	"webmlgo/internal/workload"
)

// styleOptions are WithCompiledStyle over the three shapes of rule set,
// each holding the given one: plain, for a site view, for a device.
var styleOptions = []struct {
	name string
	opt  func(*StyleRuleSet) Option
	vary string // the Vary header of a page or fragment response
}{
	{"plain", WithCompiledStyle, ""},
	{"site views", func(rs *StyleRuleSet) Option {
		base := IntranetStyle()
		base.SiteViews = map[string]*StyleRuleSet{"public": rs}
		return WithCompiledStyle(base)
	}, ""},
	{"devices", func(rs *StyleRuleSet) Option {
		base := IntranetStyle()
		base.Devices = []style.DeviceProfile{{Name: "tv", UAContains: []string{"SmartTV"}, Rules: rs}}
		return WithCompiledStyle(base)
	}, "User-Agent"},
}

// TestStyleRuleErrorsFailNew: in every shape of rule set, a rule that
// does not parse or lacks its placeholder fails New, before any page is
// served.
func TestStyleRuleErrorsFailNew(t *testing.T) {
	broken := map[string]*StyleRuleSet{
		"unit rule without slot":    {Name: "broken", UnitRules: []style.UnitRule{{Kind: "data", Template: `<div class="box"/>`}}},
		"page rule without content": {Name: "broken", PageRules: []style.PageRule{{Template: `<div class="grid"/>`}}},
		"rule does not parse":       {Name: "broken", UnitRules: []style.UnitRule{{Kind: "index", Template: `<div><webml:slot/></p>`}}},
	}
	for _, o := range styleOptions {
		if _, err := New(fixture.Figure1Model(), o.opt(B2BStyle())); err != nil {
			t.Fatalf("%s: a sound rule set refused: %v", o.name, err)
		}
		for what, rs := range broken {
			if _, err := New(fixture.Figure1Model(), o.opt(rs)); err == nil {
				t.Errorf("%s: %s accepted by New", o.name, what)
			}
		}
	}
}

// TestVaryOnlyUnderRuntimeStyle: page and fragment responses announce
// Vary: User-Agent under request-time styling (a rule set with device
// profiles) only.
func TestVaryOnlyUnderRuntimeStyle(t *testing.T) {
	for _, o := range styleOptions {
		app := newApp(t, o.opt(B2CStyle()), WithEdgeCache(1024, time.Minute))
		for _, path := range []string{"/page/volumePage?volume=1", "/fragment/volumePage/volumeData?volume=1"} {
			rr, body := request(t, app.Controller, path, "Mozilla/5.0 (X11; Linux)")
			if rr.Code != 200 || rr.Header().Get("Vary") != o.vary {
				t.Errorf("%s %s: status %d, Vary %q, want %q\n%s", o.name, path, rr.Code, rr.Header().Get("Vary"), o.vary, body)
			}
		}
		if app.Edge.VaryUserAgent != (o.vary != "") {
			t.Errorf("%s: edge keys on the user agent: %v", o.name, app.Edge.VaryUserAgent)
		}
		app.Close()
	}
}

// TestDeviceVariantsCompileApart: each device profile gets its own page
// programs, keyed by the profile's name, even when its rule set has no
// name or the name of another; a profile without a name of its own is
// refused by New.
func TestDeviceVariantsCompileApart(t *testing.T) {
	unit := func(class string) []style.UnitRule {
		return []style.UnitRule{{Kind: "data", Template: `<div class="` + class + `"><webml:slot/></div>`}}
	}
	rs := &StyleRuleSet{UnitRules: unit("desk-unit"), Devices: []style.DeviceProfile{
		{Name: "tv", UAContains: []string{"SmartTV"}, Rules: &StyleRuleSet{UnitRules: unit("tv-unit")}},
		{Name: "watch", UAContains: []string{"Watch"}, Rules: &StyleRuleSet{UnitRules: unit("watch-unit")}},
	}}
	app := newApp(t, WithCompiledStyle(rs))
	for _, c := range []struct{ ua, want string }{
		{"Mozilla/5.0 (X11; Linux)", "desk-unit"},
		{"Mozilla/5.0 (SMART-TV; SmartTV)", "tv-unit"},
		{"Mozilla/5.0 (Watch OS)", "watch-unit"},
		{"Mozilla/5.0 (X11; Linux)", "desk-unit"},
	} {
		rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", c.ua)
		if rr.Code != 200 || !strings.Contains(body, `class="`+c.want+`"`) {
			t.Errorf("%s: status %d, want %s markup:\n%s", c.ua, rr.Code, c.want, body)
		}
	}
	tv := rs.Devices[0]
	for what, devices := range map[string][]style.DeviceProfile{
		"empty":    {{UAContains: []string{"SmartTV"}, Rules: B2BStyle()}},
		"repeated": {tv, tv},
	} {
		if _, err := New(fixture.Figure1Model(), WithCompiledStyle(&StyleRuleSet{Name: "desk", Devices: devices})); err == nil {
			t.Errorf("%s device profile name accepted by New", what)
		}
	}
}

// TestCompileProgramsConcurrently: every Acer-Euro page program compiled
// by 8 goroutines over one shared styler equals its sequential compile
// byte for byte. Under -race this checks that styling only reads the
// rules the styler parsed once.
func TestCompileProgramsConcurrently(t *testing.T) {
	model, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(model, WithCompiledStyle(B2CStyle()))
	if err != nil {
		t.Fatal(err)
	}
	pages := app.Repo().Pages()
	want := make([][]byte, len(pages))
	for i, pd := range pages {
		if want[i], err = app.Renderer.RenderContainer(pd, &mvc.RequestContext{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(want[i], []byte(`data-style="b2c"`)) {
			t.Fatalf("page %s unstyled:\n%s", pd.ID, want[i])
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		e := render.NewEngine(app.Repo())
		e.Styler = app.Renderer.Styler
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pages {
				i := (k + g*len(pages)/workers) % len(pages)
				got, err := e.RenderContainer(pages[i], &mvc.RequestContext{})
				if err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d, page %s: concurrent compile differs (err %v)", g, pages[i].ID, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
