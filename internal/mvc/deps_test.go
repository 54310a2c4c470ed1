package mvc_test

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"webmlgo/internal/cell"
	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

func generatedRepo(t *testing.T, m *webml.Model) *descriptor.Repository {
	t.Helper()
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return art.Repo
}

// beanOf is a bean of the unit showing the objects with the given oids.
func beanOf(d *descriptor.Unit, oids ...int64) *mvc.UnitBean {
	b := &mvc.UnitBean{UnitID: d.ID, Kind: d.Kind}
	for _, f := range d.Outputs {
		b.Fields = append(b.Fields, f.Name)
	}
	at := mvc.FieldIndex(b.Fields, "oid")
	for _, oid := range oids {
		values := make([]cell.Cell, len(b.Fields))
		if at >= 0 {
			values[at] = cell.Int(oid)
		}
		b.Nodes = append(b.Nodes, mvc.Node{Values: values})
	}
	return b
}

// grainOf reads a unit's grain off the tags of a two-row bean: object
// grain names the rows it shows, entity grain is the descriptor's Reads.
func grainOf(t *testing.T, d *descriptor.Unit) string {
	t.Helper()
	tags := mvc.ReadTags(nil, d, beanOf(d, 3, 5))
	if slices.Equal(tags, d.Reads) {
		return "entity"
	}
	entity := descriptor.EntityDep(d.Entity)
	var want []string
	for _, r := range d.Reads {
		if r != entity {
			want = append(want, r)
		}
	}
	want = append(want, entity+"+", entity+"#3", entity+"#5")
	if !slices.Equal(tags, want) {
		t.Fatalf("%s: tags %q are neither its Reads %q nor its object tags %q", d.ID, tags, d.Reads, want)
	}
	return "object"
}

// TestGrainOfGeneratedUnits: every generated unit kind maps to its
// grain. Units listing by oid, alone or scoped by a relationship, have
// object grain; attribute order, LIKE search, nesting and entry units
// keep entity grain.
func TestGrainOfGeneratedUnits(t *testing.T) {
	repo := generatedRepo(t, fixture.Figure1Model())
	for unit, want := range map[string]string{
		"volIndex":      "entity", // ORDER BY year
		"volumeData":    "object", // WHERE t.oid = ?
		"issuesPapers":  "entity", // nested levels
		"enterKeyword":  "entity", // entry: no query
		"paperData":     "object",
		"paperKeywords": "object", // scoped through a bridge table
		"searchIndex":   "entity", // LIKE
		"manageIndex":   "object", // every volume, by oid
		"volForm":       "entity",
		"tagPapers":     "object", // multichoice, by oid
	} {
		d := repo.Unit(unit)
		if d == nil {
			t.Fatalf("no unit %s", unit)
		}
		if got := grainOf(t, d); got != want {
			t.Errorf("%s (%s, %q): grain %s, want %s", unit, d.Kind, d.Query, got, want)
		}
	}

	// Acer-Euro: browse index, scroller pads, detail data, the
	// relationship-scoped index (an FK on either side or a bridge),
	// multidata pads and multichoices list by oid; only the keyword
	// scroller and the entry units keep entity grain.
	acer, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	suffix := regexp.MustCompile(`_(idx|scr|search|pad|data|rel|form|mc)$|^pad_`)
	counts := map[string]int{}
	for _, d := range generatedRepo(t, acer).Units() {
		m := suffix.FindStringSubmatch(d.ID)
		if m == nil || d.Query == "" && d.Kind != string(webml.EntryUnit) {
			continue
		}
		want := "object"
		if m[1] == "scr" || d.Kind == string(webml.EntryUnit) {
			want = "entity"
		}
		if got := grainOf(t, d); got != want {
			t.Errorf("%s (%s, %q): grain %s, want %s", d.ID, d.Kind, d.Query, got, want)
		}
		counts[d.Kind+" "+want]++
	}
	if counts["scroller object"] == 0 || counts["index object"] == 0 || counts["data object"] == 0 || counts["multidata object"] == 0 {
		t.Fatalf("a generated kind is missing from the table: %v", counts)
	}
	t.Logf("Acer-Euro units by kind and grain: %v", counts)
}

// TestOverrideDropsToEntityGrain: a hand-tuned query or a custom
// component makes the unit's rows opaque, so the grain is re-derived
// from the swapped descriptor and falls back to Reads.
func TestOverrideDropsToEntityGrain(t *testing.T) {
	repo := generatedRepo(t, fixture.Figure1Model())
	if got := grainOf(t, repo.Unit("volumeData")); got != "object" {
		t.Fatalf("volumeData grain %s before overrides", got)
	}
	if err := repo.OverrideQuery("volumeData", repo.Unit("volumeData").Query); err != nil {
		t.Fatal(err)
	}
	if got := grainOf(t, repo.Unit("volumeData")); got != "entity" {
		t.Errorf("volumeData grain %s after OverrideQuery, want entity", got)
	}
	if err := repo.OverrideService("paperData", "custom"); err != nil {
		t.Fatal(err)
	}
	if got := grainOf(t, repo.Unit("paperData")); got != "entity" {
		t.Errorf("paperData grain %s after OverrideService, want entity", got)
	}
}

// TestReadTagsBeanShape: a bean of more than 64 rows falls back to Reads,
// one of 64 names each row, and a Missing bean has no tags at all.
func TestReadTagsBeanShape(t *testing.T) {
	d := generatedRepo(t, fixture.Figure1Model()).Unit("manageIndex")
	oids := make([]int64, 65)
	for i := range oids {
		oids[i] = int64(i + 1)
	}
	if tags := mvc.ReadTags(nil, d, beanOf(d, oids...)); !slices.Equal(tags, d.Reads) {
		t.Errorf("65 rows: tags %q, want Reads %q", tags, d.Reads)
	}
	tags := mvc.ReadTags(nil, d, beanOf(d, oids[:64]...))
	if len(tags) != 65 || tags[0] != "entity:volume+" || tags[64] != "entity:volume#64" {
		t.Errorf("64 rows: %d tags %q…, want the membership tag and 64 object tags", len(tags), tags[:2])
	}
	if tags := mvc.ReadTags(nil, d, beanOf(d)); !slices.Equal(tags, []string{"entity:volume+"}) {
		t.Errorf("no rows: tags %q, want the membership tag alone", tags)
	}
	missing := &mvc.UnitBean{UnitID: d.ID, Kind: d.Kind, Missing: true}
	if tags := mvc.ReadTags([]string{"x"}, d, missing); !slices.Equal(tags, []string{"x"}) {
		t.Errorf("Missing bean: tags %q, want none added", tags)
	}
}

// TestWriteTagsByOperationKind: each operation kind publishes its Writes
// plus the object tags its write can change.
func TestWriteTagsByOperationKind(t *testing.T) {
	repo := generatedRepo(t, fixture.Figure1Model())
	acer, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	arepo := generatedRepo(t, acer)
	modify := arepo.Unit("sv01_p002_modify")
	if modify == nil || modify.Kind != string(webml.ModifyUnit) {
		t.Fatalf("no modify operation sv01_p002_modify: %+v", modify)
	}
	e := descriptor.EntityDep(modify.Entity)
	del := repo.Unit("deleteVolume")
	delWrites := strings.Join(del.Writes, " ")
	for _, c := range []struct {
		name   string
		d      *descriptor.Unit
		inputs map[string]mvc.Value
		want   string
	}{
		{"create", repo.Unit("createVolume"), map[string]mvc.Value{"title": "T", "year": int64(2000)},
			"entity:volume entity:volume+"},
		{"modify", modify, map[string]mvc.Value{"oid": int64(7), "name": "N"}, e + " " + e + "#7"},
		{"modify, text oid", modify, map[string]mvc.Value{"oid": "seven", "name": "N"}, e + " " + e + "+"},
		{"modify, no oid", modify, map[string]mvc.Value{"name": "N"}, e + " " + e + "+"},
		{"delete", del, map[string]mvc.Value{"oid": int64(2)}, delWrites + " entity:volume#2 entity:volume+"},
		{"connect", repo.Unit("tagPaper"), map[string]mvc.Value{"from": int64(1), "to": int64(2)}, "rel:paperkeyword"},
	} {
		if got := strings.Join(mvc.WriteTags(c.d, c.inputs), " "); got != c.want {
			t.Errorf("%s: tags %q, want %q", c.name, got, c.want)
		}
	}
	for _, disc := range arepo.Units() {
		if disc.Kind == string(webml.DisconnectUnit) {
			if got := mvc.WriteTags(disc, map[string]mvc.Value{"to": int64(1)}); !slices.Equal(got, disc.Writes) {
				t.Errorf("disconnect %s: tags %q, want its Writes %q", disc.ID, got, disc.Writes)
			}
			break
		}
	}

	// A hand-tuned modify may write any rows, and a custom component
	// anything of its entity: both name the entity's membership instead
	// of an object.
	if err := arepo.OverrideQuery(modify.ID, modify.Query); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(mvc.WriteTags(arepo.Unit(modify.ID), map[string]mvc.Value{"oid": int64(7)}), " "); got != e+" "+e+"+" {
		t.Errorf("hand-tuned modify: tags %q, want %q", got, e+" "+e+"+")
	}
	if err := repo.OverrideService("createVolume", "custom"); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(mvc.WriteTags(repo.Unit("createVolume"), nil)); got != "[entity:volume entity:volume+]" {
		t.Errorf("custom create: tags %s", got)
	}
}
