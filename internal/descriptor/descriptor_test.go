package descriptor

import (
	"strings"
	"testing"
)

func sampleUnit() *Unit {
	return &Unit{
		ID:     "volumeData",
		Kind:   "data",
		Entity: "Volume",
		Query:  "SELECT oid, title, year FROM volume WHERE oid = ?",
		Inputs: []ParamDef{{Name: "volume"}},
		Outputs: []FieldDef{
			{Name: "oid", Column: "oid"},
			{Name: "Title", Column: "title"},
			{Name: "Year", Column: "year"},
		},
		Reads: []string{EntityDep("Volume")},
		Cache: &CachePolicy{Enabled: true, TTLSeconds: 60},
	}
}

func TestUnitRoundTrip(t *testing.T) {
	u := sampleUnit()
	data, err := Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `kind="data"`) {
		t.Fatalf("marshalled: %s", data)
	}
	back, err := UnmarshalUnit(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != u.ID || back.Query != u.Query || len(back.Outputs) != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Cache == nil || !back.Cache.Enabled || back.Cache.TTLSeconds != 60 {
		t.Fatalf("cache policy lost: %+v", back.Cache)
	}
	if back.Reads[0] != "entity:volume" {
		t.Fatalf("reads lost: %v", back.Reads)
	}
}

func TestPageRoundTrip(t *testing.T) {
	p := &Page{
		ID: "volumePage", Name: "Volume Page", SiteView: "public",
		Layout: "two-column", Template: "volumePage",
		Units: []UnitRef{{ID: "volumeData"}, {ID: "issuesPapers"}},
		Edges: []Edge{{From: "volumeData", To: "issuesPapers",
			Params: []EdgeParam{{Source: "oid", Target: "volume"}}}},
	}
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPage(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Units) != 2 || back.Units[1].ID != "issuesPapers" {
		t.Fatalf("units lost: %+v", back.Units)
	}
	if len(back.Edges) != 1 || back.Edges[0].Params[0].Target != "volume" {
		t.Fatalf("edges lost: %+v", back.Edges)
	}
}

func TestConfigRoundTripAndLookup(t *testing.T) {
	c := &Config{App: "acm", Mappings: []Mapping{
		{Action: "page/volumePage", Type: "page", Page: "volumePage", Template: "volumePage"},
		{Action: "op/createVolume", Type: "operation", OK: "page/volumePage", KO: "page/editVolume",
			OKParams: []ForwardParam{{Source: "oid", Target: "volume"}}},
	}}
	data, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	m := back.Mapping("op/createVolume")
	if m == nil || m.OK != "page/volumePage" || len(m.OKParams) != 1 {
		t.Fatalf("mapping lost: %+v", m)
	}
	if back.Mapping("ghost") != nil {
		t.Fatal("ghost mapping found")
	}
}

func TestUnmarshalRejectsMissingID(t *testing.T) {
	if _, err := UnmarshalUnit([]byte(`<unit kind="data"/>`)); err == nil {
		t.Fatal("unit without id accepted")
	}
	if _, err := UnmarshalPage([]byte(`<page/>`)); err == nil {
		t.Fatal("page without id accepted")
	}
	if _, err := UnmarshalUnit([]byte(`not xml`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRepositoryBasics(t *testing.T) {
	r := NewRepository()
	r.PutUnit(sampleUnit())
	r.PutPage(&Page{ID: "p1"})
	r.PutTemplate("p1", "<html/>")
	r.SetConfig(&Config{Mappings: []Mapping{{Action: "page/p1", Type: "page"}}})

	if r.Unit("volumeData") == nil || r.Unit("ghost") != nil {
		t.Fatal("unit lookup broken")
	}
	if r.Page("p1") == nil {
		t.Fatal("page lookup broken")
	}
	if tpl, ok := r.Template("p1"); !ok || tpl != "<html/>" {
		t.Fatal("template lookup broken")
	}
	u, p, tp := r.Counts()
	if u != 1 || p != 1 || tp != 1 {
		t.Fatalf("counts = %d %d %d", u, p, tp)
	}
}

func TestOverrideQueryIsAtomicAndMarksOptimized(t *testing.T) {
	r := NewRepository()
	r.PutUnit(sampleUnit())
	orig := r.Unit("volumeData")
	if err := r.OverrideQuery("volumeData", "SELECT oid, title, year FROM volume WHERE oid = ? -- tuned"); err != nil {
		t.Fatal(err)
	}
	got := r.Unit("volumeData")
	if !got.Optimized || !strings.Contains(got.Query, "tuned") {
		t.Fatalf("override not applied: %+v", got)
	}
	// The original descriptor value must be untouched (copy-on-write), so
	// in-flight requests holding it see a consistent snapshot.
	if orig.Optimized || strings.Contains(orig.Query, "tuned") {
		t.Fatal("override mutated the previous descriptor in place")
	}
	if err := r.OverrideQuery("ghost", "x"); err == nil {
		t.Fatal("override of missing unit accepted")
	}
	if r.OptimizedCount() != 1 {
		t.Fatalf("optimized count = %d", r.OptimizedCount())
	}
}

func TestOverrideService(t *testing.T) {
	r := NewRepository()
	r.PutUnit(sampleUnit())
	if err := r.OverrideService("volumeData", "custom.VolumeService"); err != nil {
		t.Fatal(err)
	}
	if got := r.Unit("volumeData"); got.Service != "custom.VolumeService" || !got.Optimized {
		t.Fatalf("got %+v", got)
	}
}

func TestSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	r := NewRepository()
	r.PutUnit(sampleUnit())
	u2 := sampleUnit()
	u2.ID = "other"
	u2.Optimized = true
	r.PutUnit(u2)
	r.PutPage(&Page{ID: "p1", Template: "p1", Units: []UnitRef{{ID: "volumeData"}}})
	r.PutTemplate("p1", `<html><webml:dataUnit id="volumeData"/></html>`)
	r.SetConfig(&Config{App: "acm", Mappings: []Mapping{{Action: "page/p1", Type: "page", Page: "p1"}}})

	if err := r.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Unit("volumeData") == nil || back.Unit("other") == nil {
		t.Fatal("units lost on disk round trip")
	}
	if !back.Unit("other").Optimized {
		t.Fatal("optimized flag lost")
	}
	if back.Page("p1") == nil || len(back.Page("p1").Units) != 1 {
		t.Fatal("page lost")
	}
	if tpl, ok := back.Template("p1"); !ok || !strings.Contains(tpl, "webml:dataUnit") {
		t.Fatal("template lost")
	}
	if back.Config().Mapping("page/p1") == nil {
		t.Fatal("config lost")
	}
	if back.Config().byAction == nil {
		t.Fatal("a loaded config is not indexed")
	}
	if back.OptimizedCount() != 1 {
		t.Fatalf("optimized count = %d", back.OptimizedCount())
	}
}

func TestLoadDirMissingIsEmptyNotError(t *testing.T) {
	r, err := LoadDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	u, p, tp := r.Counts()
	if u != 0 || p != 0 || tp != 0 {
		t.Fatalf("counts = %d %d %d", u, p, tp)
	}
}

func TestDepTags(t *testing.T) {
	if EntityDep("Volume") != "entity:volume" {
		t.Fatal(EntityDep("Volume"))
	}
	if RelDep("IssueToPaper") != "rel:issuetopaper" {
		t.Fatal(RelDep("IssueToPaper"))
	}
}

func TestUnitProps(t *testing.T) {
	u := &Unit{ID: "x", Props: []Prop{{Name: "feed", Value: "http://x"}}}
	if v, ok := u.Prop("feed"); !ok || v != "http://x" {
		t.Fatal("prop lookup broken")
	}
	if _, ok := u.Prop("nope"); ok {
		t.Fatal("ghost prop found")
	}
}

// TestSetConfigHotSwap: an installed config answers lookups from its
// index, with the first of two mappings for one action winning, and the
// next lookup after a SetConfig sees the new config.
func TestSetConfigHotSwap(t *testing.T) {
	r := NewRepository()
	r.SetConfig(&Config{Mappings: []Mapping{
		{Action: "page/a", Type: "page", Page: "a"},
		{Action: "op/x", Type: "operation", OK: "page/a"},
		{Action: "page/a", Type: "page", Page: "shadowed"},
	}})
	if r.Config().byAction == nil {
		t.Fatal("SetConfig did not index the mappings")
	}
	if m := r.Config().Mapping("page/a"); m == nil || m.Page != "a" {
		t.Fatalf("page/a = %+v, want the first mapping", m)
	}
	if m := r.Config().Mapping("op/x"); m == nil || m.OK != "page/a" {
		t.Fatalf("op/x = %+v", m)
	}
	r.SetConfig(&Config{Mappings: []Mapping{{Action: "page/b", Type: "page", Page: "b"}}})
	if m := r.Config().Mapping("page/a"); m != nil {
		t.Fatalf("swapped-out mapping still found: %+v", m)
	}
	if m := r.Config().Mapping("page/b"); m == nil || m.Page != "b" {
		t.Fatalf("page/b = %+v after the swap", m)
	}
}
