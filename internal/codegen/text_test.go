package codegen_test

import (
	"math"
	"strings"
	"testing"

	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
	"webmlgo/internal/er"
	"webmlgo/internal/fixture"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

// domSkeleton builds the skeleton as a DOM tree and serializes it: the
// markup Skeleton writes as text must be byte for byte this.
func domSkeleton(p *webml.Page) string {
	root := dom.NewElement("html")
	root.SetAttr("data-page", p.ID)
	if p.Layout != "" {
		root.SetAttr("data-layout", p.Layout)
	}
	head := dom.NewElement("head")
	title := dom.NewElement("title")
	title.AppendChild(dom.NewText(p.Name))
	head.AppendChild(title)
	root.AppendChild(head)
	body := dom.NewElement("body")
	grid := dom.NewElement("table")
	grid.SetAttr("class", "page-grid")
	for _, u := range p.Units {
		tag := dom.NewElement(codegen.TagForKind(u.Kind))
		tag.SetAttr("id", u.ID)
		if u.Name != "" {
			tag.SetAttr("data-name", u.Name)
		}
		td := dom.NewElement("td")
		td.AppendChild(tag)
		tr := dom.NewElement("tr")
		tr.AppendChild(td)
		grid.AppendChild(tr)
	}
	body.AppendChild(grid)
	root.AppendChild(body)
	return root.String()
}

// TestSkeletonParseFixpoint: every Acer-Euro skeleton parses and
// serializes back to itself, and is what the DOM would have written.
func TestSkeletonParseFixpoint(t *testing.T) {
	m, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	pages := m.AllPages()
	if len(pages) != 556 {
		t.Fatalf("pages = %d, want 556", len(pages))
	}
	for _, p := range pages {
		sk := g.Skeleton(p)
		doc, err := dom.Parse(sk)
		if err != nil {
			t.Fatalf("page %s: %v", p.ID, err)
		}
		if got := doc.String(); got != sk {
			t.Fatalf("page %s is not a parse fixpoint:\n%s\n%s", p.ID, sk, got)
		}
		if want := domSkeleton(p); sk != want {
			t.Fatalf("page %s:\n got %s\nwant %s", p.ID, sk, want)
		}
	}
}

// TestSkeletonEscapesNames: markup characters in page and unit names
// come back from a parse as the same text and attribute values.
func TestSkeletonEscapesNames(t *testing.T) {
	const name = `R&D <b>"quoted"</b> 'single' a>b`
	b := webml.NewBuilder("m", fixture.ACMSchema())
	pb := b.SiteView("sv", "SV").Page("p", name).Layout(`two"col`)
	pb.Index("u1", "Volume", "Title").Name = name
	m := b.MustBuild()
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	p := m.PageByID("p")
	sk := g.Skeleton(p)
	if want := domSkeleton(p); sk != want {
		t.Fatalf("got  %s\nwant %s", sk, want)
	}
	doc, err := dom.Parse(sk)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Find(dom.ByTag("title")).Text(); got != name {
		t.Errorf("title text = %q, want %q", got, name)
	}
	if got, _ := doc.Find(dom.ByTag("html")).Attr("data-layout"); got != `two"col` {
		t.Errorf("data-layout = %q", got)
	}
	unit := doc.Find(dom.ByAttr("id", "u1"))
	if unit == nil || unit.Tag != "webml:indexUnit" {
		t.Fatalf("unit tag missing from %s", sk)
	}
	if got, _ := unit.Attr("data-name"); got != name {
		t.Errorf("data-name = %q, want %q", got, name)
	}
	if strings.Contains(sk, "<b>") {
		t.Errorf("a name reached the skeleton as markup: %s", sk)
	}
}

// TestSkeletonEmptyPage: a page without units gets an empty grid, as
// the DOM serializes an element without children.
func TestSkeletonEmptyPage(t *testing.T) {
	g, err := codegen.New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	p := &webml.Page{ID: "empty", Name: "Empty"}
	const want = `<html data-page="empty"><head><title>Empty</title></head><body><table class="page-grid"/></body></html>`
	if got := g.Skeleton(p); got != want || got != domSkeleton(p) {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// TestFloatSelectorLiteral: a float literal in a selector is written in
// positional notation and a negative constant with its sign, so the query
// runs; NaN and infinities have no SQL form and fail generation.
func TestFloatSelectorLiteral(t *testing.T) {
	schema := &er.Schema{Entities: []*er.Entity{{Name: "Product", Attributes: []er.Attribute{
		{Name: "Label", Type: er.String}, {Name: "Price", Type: er.Float},
	}}}}
	build := func(lits ...any) *webml.Model {
		b := webml.NewBuilder("shop", schema)
		pb := b.SiteView("sv", "SV").Page("p", "P")
		for i, v := range lits {
			u := pb.Index("", "Product", "Label")
			op := []string{">", "<"}[i%2]
			u.Selector = []webml.Condition{{Attr: "Price", Op: op, Value: v}}
		}
		return b.MustBuild()
	}
	m := build(1e6, 0.00001, int64(-1), -0.5)
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	db := rdb.Open()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for i, row := range []struct {
		label string
		price float64
	}{{"yacht", 2500000.5}, {"gift", 0}, {"pen", 1.5}, {"refund", -2.5}} {
		if _, err := db.Exec("INSERT INTO product (oid, label, price) VALUES (?, ?, ?)", int64(i+1), row.label, row.price); err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range map[string]string{"u1": "yacht", "u2": "gift refund", "u3": "yacht gift pen", "u4": "refund"} {
		d := art.Repo.Unit(id)
		if strings.Contains(d.Query, "e+") || strings.Contains(d.Query, "e-") {
			t.Errorf("%s: exponent in %q", id, d.Query)
		}
		rows, err := db.Query(d.Query)
		if err != nil {
			t.Fatalf("%s: %q: %v", id, d.Query, err)
		}
		var got []string
		for _, r := range rows.Data {
			got = append(got, r[1].Str)
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s: %q returned %v, want %s", id, d.Query, got, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g, err := codegen.New(build(v))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Generate(); err == nil || !strings.Contains(err.Error(), "no SQL form") {
			t.Errorf("literal %v: err = %v, want a generation error", v, err)
		}
	}
}

// TestPluginPropsSorted: a plug-in unit's props come out sorted by name,
// so its descriptor is the same in every generation.
func TestPluginPropsSorted(t *testing.T) {
	defer webml.UnregisterPlugin("gauge")
	if err := webml.RegisterPlugin(webml.PluginSpec{Kind: "gauge"}); err != nil {
		t.Fatal(err)
	}
	b := webml.NewBuilder("m", fixture.ACMSchema())
	b.SiteView("sv", "SV").Page("p", "P").Plugin("g1", "gauge",
		map[string]string{"zeta": "1", "alpha": "2", "mid": "3"})
	m := b.MustBuild()
	var first string
	for i := 0; i < 20; i++ {
		// Validating again drops the memoized artifacts.
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		d := generate(t, m).Repo.Unit("g1")
		data, err := descriptor.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = string(data)
			var names []string
			for _, p := range d.Props {
				names = append(names, p.Name)
			}
			if got := strings.Join(names, ","); got != "alpha,mid,zeta" {
				t.Fatalf("props in order %s", got)
			}
		} else if string(data) != first {
			t.Fatalf("generation %d differs:\n%s\n%s", i, data, first)
		}
	}
}
