package webml

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/er"
)

// xmlRoundTrips are the models TestModelXMLRoundTrip carries through
// the document, each with a check of the features it must keep.
var xmlRoundTrips = []struct {
	name  string
	build func() *Builder
	check func(t *testing.T, back *Model)
}{
	{"figure1", figure1Builder, func(t *testing.T, back *Model) {
		u := back.UnitByID("issuesPapers")
		if u == nil || u.Kind != IndexUnit || u.Entity != "Issue" {
			t.Fatalf("unit = %+v", u)
		}
		if u.Nest == nil || u.Nest.Relationship != "IssueToPaper" || u.Nest.Display[0] != "Title" {
			t.Fatalf("nesting lost: %+v", u.Nest)
		}
		if u.Selector[0].Op != ">" || u.Selector[0].Value != int64(0) {
			t.Fatalf("typed literal lost: %+v", u.Selector[0])
		}
		if rel := back.Data.Relationship("VolumeToIssue"); rel == nil || rel.FromCard != er.Many || rel.ToCard != er.One {
			t.Fatalf("relationship lost: %+v", rel)
		}
		found := false
		for _, l := range back.LinksFrom("volumeData") {
			if l.Kind == TransportLink {
				found = true
				if l.Params[0].Source != "oid" || l.Params[0].Target != "volume" {
					t.Fatalf("link params lost: %+v", l.Params)
				}
			}
		}
		if !found {
			t.Fatal("transport link lost")
		}
	}},
	{"acm_with_protected_admin", acmBuilder, func(t *testing.T, back *Model) {
		if p := back.PageByID("volumesPage"); !p.Landmark || p.Layout != "one-column" {
			t.Fatalf("page attributes lost: %+v", p)
		}
		if u := back.UnitByID("volIndex"); u.Name != "All volumes" || len(u.Order) != 1 || !u.Order[0].Desc {
			t.Fatalf("unit name or order lost: %+v", u)
		}
		if c := back.UnitByID("volumeData").Cache; c == nil || !c.Enabled || c.TTLSeconds != 60 {
			t.Fatalf("cache lost: %+v", c)
		}
		if s := back.UnitByID("searchIndex"); s.Kind != ScrollerUnit || s.PageSize != 10 || s.Selector[0].Op != "LIKE" {
			t.Fatalf("scroller = %+v", s)
		}
		if f := back.UnitByID("volForm").Fields; len(f) != 2 || !f[0].Required || f[1].Type != er.Int {
			t.Fatalf("entry fields lost: %+v", f)
		}
		if !back.SiteViews[1].Protected {
			t.Fatal("protected flag lost")
		}
		if p := back.PageByID("managePage"); p.Area() == nil || p.Area().Name != "Volumes" {
			t.Fatal("area lost")
		}
		if l := back.LinksFrom("volIndex"); len(l) != 1 || l[0].Label != "details" || l[0].Params[0].Target != "volume" {
			t.Fatalf("link label or params lost: %+v", l)
		}
		if op := back.UnitByID("createVolume"); op.Set["Title"] != "title" || op.Set["Year"] != "year" {
			t.Fatalf("op set = %+v", op.Set)
		}
		if op := back.UnitByID("dropVolume"); op.Kind != DeleteUnit || op.Entity != "Volume" {
			t.Fatalf("delete operation = %+v", op)
		}
	}},
	{"plugin_props", func() *Builder {
		b := NewBuilder("p", acmSchema())
		home := b.SiteView("sv", "SV").Page("home", "Home")
		home.Index("i", "Volume", "Title")
		home.Plugin("t1", "ticker", map[string]string{"symbol": "ACME", "refresh": "30"})
		return b
	}, func(t *testing.T, back *Model) {
		if u := back.UnitByID("t1"); u.Kind != "ticker" || u.Props["symbol"] != "ACME" || u.Props["refresh"] != "30" {
			t.Fatalf("plugin = %+v", u)
		}
	}},
	{"connect_disconnect", func() *Builder {
		b := NewBuilder("c", &er.Schema{
			Entities: []*er.Entity{
				{Name: "A", Attributes: []er.Attribute{{Name: "X", Type: er.Int}}},
				{Name: "B", Attributes: []er.Attribute{{Name: "Y", Type: er.Int}}},
			},
			Relationships: []*er.Relationship{{Name: "AB", From: "A", To: "B",
				FromRole: "ab", ToRole: "ba", FromCard: er.Many, ToCard: er.Many}},
		})
		mc := b.SiteView("sv", "SV").Page("home", "Home").Multichoice("mc", "A", "X")
		for _, op := range []*Unit{b.Connect("wire", "AB"), b.Disconnect("unwire", "AB")} {
			b.Link(mc.ID, op.ID, P("oid", "from"))
			b.OK(op.ID, "home")
		}
		return b
	}, func(t *testing.T, back *Model) {
		if u := back.UnitByID("wire"); u.Kind != ConnectUnit || u.Relationship != "AB" {
			t.Fatalf("connect = %+v", u)
		}
		if u := back.UnitByID("unwire"); u.Kind != DisconnectUnit || u.Relationship != "AB" {
			t.Fatalf("disconnect = %+v", u)
		}
		if rel := back.Data.Relationship("AB"); rel.Kind() != er.ManyToMany || rel.FromRole != "ab" || rel.ToRole != "ba" {
			t.Fatalf("relationship = %+v", rel)
		}
	}},
	{"typed_literals", func() *Builder {
		b := NewBuilder("lits", &er.Schema{Entities: []*er.Entity{{Name: "P", Attributes: []er.Attribute{
			{Name: "Name", Type: er.String, Unique: true}, {Name: "Price", Type: er.Float}, {Name: "Stock", Type: er.Int},
			{Name: "Active", Type: er.Bool}, {Name: "Added", Type: er.Time},
		}}}})
		home := b.SiteView("sv", "SV").Page("home", "Home")
		for _, c := range []struct {
			id   string
			cond Condition
		}{
			{"cheap", Condition{Attr: "Price", Op: "<=", Value: 9.99}},
			{"stocked", Condition{Attr: "Stock", Op: ">", Value: int64(3)}},
			{"named", Condition{Attr: "Name", Op: "=", Value: `Fixed "Name" <&>`}},
			{"actives", Condition{Attr: "Active", Op: "=", Value: true}},
			{"recent", Condition{Attr: "Added", Op: ">=", Value: time.Date(2003, 1, 5, 10, 30, 0, 0, time.UTC)}},
		} {
			home.Index(c.id, "P", "Name").Selector = []Condition{c.cond}
		}
		return b
	}, func(t *testing.T, back *Model) {
		for id, want := range map[string]interface{}{
			"cheap": 9.99, "stocked": int64(3), "named": `Fixed "Name" <&>`, "actives": true,
		} {
			if got := back.UnitByID(id).Selector[0].Value; got != want {
				t.Fatalf("%s literal = %#v, want %#v", id, got, want)
			}
		}
		got, ok := back.UnitByID("recent").Selector[0].Value.(time.Time)
		if !ok || !got.Equal(time.Date(2003, 1, 5, 10, 30, 0, 0, time.UTC)) {
			t.Fatalf("time literal = %#v", back.UnitByID("recent").Selector[0].Value)
		}
		if a := back.Data.Entity("P").Attributes; !a[0].Unique || a[4].Type != er.Time {
			t.Fatalf("attributes = %+v", a)
		}
	}},
	{"nested_areas", func() *Builder {
		b := NewBuilder("areas", acmSchema())
		sv := b.SiteView("sv", "SV")
		sv.AreaPage("Archive", "archive", "Archive").Index("vols", "Volume", "Title")
		inner := &Area{ID: "older", Name: "Older", Pages: []*Page{{ID: "old", Name: "Old",
			Units: []*Unit{{ID: "oldVols", Kind: IndexUnit, Entity: "Volume", Display: []string{"Year"}}}}}}
		outer := sv.View().Areas[0]
		outer.Areas = append(outer.Areas, inner)
		return b
	}, func(t *testing.T, back *Model) {
		outer := back.SiteViews[0].Areas
		if len(outer) != 1 || len(outer[0].Areas) != 1 || outer[0].Areas[0].Name != "Older" {
			t.Fatalf("area tree lost: %+v", outer)
		}
		if p := back.PageByID("old"); p == nil || p.Area() == nil || p.Area().ID != "older" {
			t.Fatal("nested area page lost")
		}
	}},
	{"nesting_with_order", func() *Builder {
		b := NewBuilder("nest", acmSchema())
		vols := b.SiteView("sv", "SV").Page("home", "Home").Index("vols", "Volume", "Title", "Year")
		vols.Order = []OrderKey{{Attr: "Year", Desc: true}, {Attr: "Title"}}
		vols.Nest = &Nesting{Relationship: "VolumeToIssue", Display: []string{"Number"},
			Order: []OrderKey{{Attr: "Number"}},
			Nest: &Nesting{Relationship: "IssueToPaper", Display: []string{"Title", "Abstract"},
				Order: []OrderKey{{Attr: "Title", Desc: true}}}}
		return b
	}, func(t *testing.T, back *Model) {
		u := back.UnitByID("vols")
		if len(u.Order) != 2 || !u.Order[0].Desc || u.Order[1].Desc {
			t.Fatalf("order = %+v", u.Order)
		}
		n := u.Nest
		if n == nil || n.Order[0].Attr != "Number" || n.Nest == nil || !n.Nest.Order[0].Desc || len(n.Nest.Display) != 2 {
			t.Fatalf("nesting = %+v", n)
		}
	}},
}

// acmBuilder is the Figure 1 site view plus a protected administration
// site view: page attributes, unit names, a cache, a scroller, an area,
// create and delete operations, and a labelled link.
func acmBuilder() *Builder {
	b := NewBuilder("acm-dl", acmSchema())
	public := b.SiteView("public", "ACM Digital Library")
	volumes := public.Page("volumesPage", "Volumes").Landmark().Layout("one-column")
	volIndex := volumes.Index("volIndex", "Volume", "Title", "Year")
	volIndex.Name = "All volumes"
	volIndex.Order = []OrderKey{{Attr: "Year", Desc: true}}
	volume := public.Page("volumePage", "Volume Page").Layout("two-column")
	volData := volume.Data("volumeData", "Volume", "Title", "Year")
	volData.Selector = []Condition{{Attr: "oid", Op: "=", Param: "volume"}}
	volData.Cache = &CacheSpec{Enabled: true, TTLSeconds: 60}
	keyword := volume.Entry("enterKeyword", Field{Name: "keyword", Type: er.String, Required: true})
	search := public.Page("searchResults", "Search Results")
	results := search.Scroller("searchIndex", "Paper", 10, "Title")
	results.Selector = []Condition{{Attr: "Title", Op: "LIKE", Param: "kw"}}

	admin := b.SiteView("admin", "Administration").Protected()
	manage := admin.AreaPage("Volumes", "managePage", "Manage")
	manageIndex := manage.Index("manageIndex", "Volume", "Title")
	form := manage.Entry("volForm", Field{Name: "title", Type: er.String, Required: true}, Field{Name: "year", Type: er.Int})
	create := b.Operation("createVolume", CreateUnit, "Volume")
	create.Set = map[string]string{"Title": "title", "Year": "year"}
	drop := b.Operation("dropVolume", DeleteUnit, "Volume")

	b.Link(volIndex.ID, volume.Ref(), P("oid", "volume")).Label = "details"
	b.Link(keyword.ID, search.Ref(), P("keyword", "kw"))
	b.Link(form.ID, create.ID, P("title", "title"), P("year", "year"))
	b.Link(manageIndex.ID, drop.ID, P("oid", "oid"))
	b.OK(create.ID, manage.Ref())
	b.KO(create.ID, manage.Ref())
	b.OK(drop.ID, manage.Ref())
	return b
}

// TestModelXMLRoundTrip: each model of xmlRoundTrips comes back from its
// document with the same statistics and features.
func TestModelXMLRoundTrip(t *testing.T) {
	defer UnregisterPlugin("ticker")
	if err := RegisterPlugin(PluginSpec{Kind: "ticker", RequiredProps: []string{"symbol"}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range xmlRoundTrips {
		t.Run(c.name, func(t *testing.T) {
			orig := c.build().MustBuild()
			data, err := MarshalModel(orig)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), `<webml name="`+orig.Name+`">`) {
				t.Fatalf("document malformed:\n%s", data)
			}
			back, err := UnmarshalModel(data)
			if err != nil {
				t.Fatal(err)
			}
			if as, bs := orig.Stats(), back.Stats(); as != bs {
				t.Fatalf("stats differ: %+v vs %+v", as, bs)
			}
			c.check(t, back)
		})
	}
}

// TestModelXMLFixpoint: carried through its document three times, each
// model of xmlRoundTrips keeps its statistics and re-marshals to the
// bytes of the first document every time.
func TestModelXMLFixpoint(t *testing.T) {
	defer UnregisterPlugin("ticker")
	if err := RegisterPlugin(PluginSpec{Kind: "ticker", RequiredProps: []string{"symbol"}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range xmlRoundTrips {
		t.Run(c.name, func(t *testing.T) {
			m := c.build().MustBuild()
			first, err := MarshalModel(m)
			if err != nil {
				t.Fatal(err)
			}
			data := first
			for round := 1; round <= 3; round++ {
				back, err := UnmarshalModel(data)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if as, bs := m.Stats(), back.Stats(); as != bs {
					t.Fatalf("round %d: stats differ: %+v vs %+v", round, as, bs)
				}
				if data, err = MarshalModel(back); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if !bytes.Equal(first, data) {
					t.Fatalf("round %d: document changed:\n%s\n---\n%s", round, first, data)
				}
				m = back
			}
		})
	}
}

func TestModelXMLWithOperationsAndAreas(t *testing.T) {
	b := figure1Builder()
	sv := b.SiteView("admin", "Admin").Protected()
	page := sv.AreaPage("Ops", "opsPage", "Ops Page")
	form := page.Entry("opForm", Field{Name: "title", Type: 0, Required: true})
	create := b.Operation("mkVol", CreateUnit, "Volume")
	create.Set = map[string]string{"Title": "title"}
	create.Cache = nil
	b.Link(form.ID, create.ID, P("title", "title"))
	b.OK(create.ID, "opsPage")
	b.KO(create.ID, "opsPage")
	orig := b.MustBuild()

	data, err := MarshalModel(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != orig.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", back.Stats(), orig.Stats())
	}
	op := back.UnitByID("mkVol")
	if op == nil || op.Set["Title"] != "title" {
		t.Fatalf("operation lost: %+v", op)
	}
	p := back.PageByID("opsPage")
	if p == nil || p.Area() == nil || p.Area().Name != "Ops" {
		t.Fatal("area structure lost")
	}
	if !back.SiteViews[1].Protected {
		t.Fatal("protected flag lost")
	}
}

// malformedModels names each document of the committed FuzzUnmarshalModel
// corpus with a fragment of the error UnmarshalModel refuses it with.
var malformedModels = []struct{ name, want string }{
	{"truncated", "unexpected EOF"},
	{"wrong-root", "expected element type <webml>"},
	{"old-notation", "no <webml> element"},
	{"unknown-unit-kind", `unknown kind "gizmo"`},
	{"bad-literal-tag", `unknown literal tag "num"`},
	{"bad-cardinality", `unknown cardinality "Q"`},
	{"duplicate-ids", `duplicate ID "volIndex"`},
	{"link-to-unknown-unit", `unknown destination "ghostUnit"`},
	{"deep-nest", "exceeded max depth"},
}

// TestUnmarshalRejectsInvalid: each invalid document, the committed
// FuzzUnmarshalModel corpus included, is refused with an error; a corpus
// document with the error malformedModels names for it, and the corpus
// holds nothing else.
func TestUnmarshalRejectsInvalid(t *testing.T) {
	type invalid struct{ name, doc, want string }
	cases := []invalid{
		{"garbage", "not xml", ""},
		{"bad card", `<webml name="x"><data>
			<entity name="E"><attribute name="A" type="string"/></entity>
			<relationship name="R" from="E" to="E" fromRole="a" toRole="b" fromCard="Q" toCard="1"/>
			</data></webml>`, ""},
		{"bad type", `<webml name="x"><data>
			<entity name="E"><attribute name="A" type="blob"/></entity>
			</data></webml>`, `unknown attribute type "blob"`},
		{"bad link kind", `<webml name="x"><data>
			<entity name="E"><attribute name="A" type="string"/></entity></data>
			<siteView id="sv" name="SV" home="p">
			<page id="p" name="P"><unit id="u" kind="index" entity="E" display="A"/></page>
			</siteView>
			<links><link id="l" kind="weird" from="u" to="p"/></links></webml>`, ""},
		{"semantically invalid", `<webml name="x"><data>
			<entity name="E"><attribute name="A" type="string"/></entity></data>
			<siteView id="sv" name="SV" home="p">
			<page id="p" name="P"><unit id="u" kind="index" entity="Ghost" display="A"/></page>
			</siteView></webml>`, `unknown entity "Ghost"`},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshalModel")
	if files, err := os.ReadDir(dir); err != nil || len(files) != len(malformedModels) {
		t.Errorf("corpus holds %d files (%v), want the %d malformed documents", len(files), err, len(malformedModels))
	}
	for _, c := range malformedModels {
		data, err := os.ReadFile(filepath.Join(dir, c.name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		quoted, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		doc, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("%s: corpus file is not one []byte:\n%.200s", c.name, data)
		}
		cases = append(cases, invalid{c.name, doc, c.want})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := UnmarshalModel([]byte(c.doc)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %.300v, want one containing %q", err, c.want)
			}
		})
	}
}

// FuzzUnmarshalModel: no document panics the decoder, and an accepted
// one re-marshals to a fixpoint that parses again. The seeds are valid
// documents; the committed corpus is the malformed ones.
func FuzzUnmarshalModel(f *testing.F) {
	for _, b := range []*Builder{figure1Builder(), acmBuilder()} {
		doc, err := MarshalModel(b.MustBuild())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalModel(data)
		if err != nil {
			return
		}
		first, err := MarshalModel(m)
		if err != nil {
			t.Fatalf("marshal of an accepted document: %v", err)
		}
		back, err := UnmarshalModel(first)
		if err != nil {
			t.Fatalf("re-marshalled document does not parse: %v", err)
		}
		second, err := MarshalModel(back)
		if err != nil {
			t.Fatalf("marshal of the re-parsed document: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal is not a fixpoint:\n%s\n---\n%s", first, second)
		}
	})
}

func TestLiteralCodec(t *testing.T) {
	vals := []interface{}{int64(5), 1.5, "x:y", true, false, nil}
	for _, v := range vals {
		enc := encodeLiteral(v)
		back, err := decodeLiteral(enc)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if back != v {
			t.Fatalf("round trip %v -> %q -> %v", v, enc, back)
		}
	}
	if _, err := decodeLiteral("nope"); err == nil {
		t.Fatal("tagless literal accepted")
	}
	if _, err := decodeLiteral("bool:maybe"); err == nil {
		t.Fatal("bad bool accepted")
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Fatalf("empty list = %v", got)
	}
	got := splitList("a,b,c")
	if len(got) != 3 || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}
