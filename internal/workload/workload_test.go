package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/render"
	"webmlgo/internal/webml"
)

// small is a laptop-sized spec with the Acer-Euro shape.
func small() Spec {
	return Spec{SiteViews: 3, Pages: 24, Units: 132, Seed: 7}
}

func TestSmallSpecShape(t *testing.T) {
	spec := small()
	m, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.SiteViews != spec.SiteViews || st.Pages != spec.Pages {
		t.Fatalf("stats = %+v", st)
	}
	if st.Units+st.Operations != spec.Units {
		t.Fatalf("units = %d + %d, want %d", st.Units, st.Operations, spec.Units)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	ap, bp := a.AllPages(), b.AllPages()
	if len(ap) != len(bp) {
		t.Fatal("page count differs")
	}
	for i := range ap {
		if ap[i].ID != bp[i].ID || len(ap[i].Units) != len(bp[i].Units) {
			t.Fatalf("page %d differs: %s/%d vs %s/%d", i, ap[i].ID, len(ap[i].Units), bp[i].ID, len(bp[i].Units))
		}
	}
}

func TestBadSpecRejected(t *testing.T) {
	if _, err := Generate(Spec{SiteViews: 0, Pages: 10, Units: 10}); err == nil {
		t.Fatal("zero site views accepted")
	}
	if _, err := Generate(Spec{SiteViews: 10, Pages: 5, Units: 10}); err == nil {
		t.Fatal("fewer pages than site views accepted")
	}
}

// TestAcerEuroShape verifies the paper's exact reported size.
func TestAcerEuroShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation")
	}
	m, err := Generate(AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.SiteViews != 22 || st.Pages != 556 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Units+st.Operations != 3068 {
		t.Fatalf("units = %d", st.Units+st.Operations)
	}
	// All 11 core unit kinds must appear (Section 8 lists them all).
	if st.UnitKinds != len(webml.CoreUnitKinds) {
		t.Fatalf("unit kinds = %d", st.UnitKinds)
	}
	// Generation must yield >3000 SQL queries.
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if art.Stats.Queries <= 3000 {
		t.Fatalf("queries = %d, want > 3000", art.Stats.Queries)
	}
	if art.Stats.GenericUnitServices != 11 || art.Stats.GenericPageServices != 1 {
		t.Fatalf("generic services = %+v", art.Stats)
	}
}

// TestGeneratedAppServesRequests runs the full pipeline on the small
// spec: generate model -> generate code -> create schema -> populate ->
// serve a request mix through the real controller.
func TestGeneratedAppServesRequests(t *testing.T) {
	m, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("DDL: %v", err)
		}
	}
	if err := Populate(db, 20, 7); err != nil {
		t.Fatal(err)
	}
	ctl := mvc.NewController(art.Repo, mvc.NewLocalBusiness(db), render.NewEngine(art.Repo))

	reqs := Requests(m, 100, 20, 7)
	if len(reqs) != 100 {
		t.Fatalf("requests = %d", len(reqs))
	}
	okBodies := 0
	for _, rq := range reqs {
		req := httptest.NewRequest(http.MethodGet, rq.Path, nil)
		rr := httptest.NewRecorder()
		ctl.ServeHTTP(rr, req)
		switch rr.Code {
		case http.StatusOK:
			okBodies++
			if strings.Contains(rr.Body.String(), "webml:") {
				t.Fatalf("unrendered tag in %s", rq.Path)
			}
		case http.StatusUnauthorized:
			// Protected CM site views are expected to refuse anonymous
			// requests.
		default:
			t.Fatalf("%s -> %d: %s", rq.Path, rr.Code, rr.Body.String())
		}
	}
	if okBodies == 0 {
		t.Fatal("no request succeeded")
	}
}

func TestRequestsDeterministic(t *testing.T) {
	m, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	a := Requests(m, 50, 10, 3)
	b := Requests(m, 50, 10, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

// TestAcerEuroAppServesEndToEnd exercises the full 556-page application:
// generate, create schema, populate, and serve a mixed request set
// through the real controller with the two-level cache on.
func TestAcerEuroAppServesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale application")
	}
	m, err := Generate(AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("DDL: %v", err)
		}
	}
	if err := Populate(db, 30, 2003); err != nil {
		t.Fatal(err)
	}
	ctl := mvc.NewController(art.Repo, mvc.NewLocalBusiness(db), render.NewEngine(art.Repo))
	ok := 0
	for _, rq := range Requests(m, 200, 30, 2003) {
		req := httptest.NewRequest(http.MethodGet, rq.Path, nil)
		rr := httptest.NewRecorder()
		ctl.ServeHTTP(rr, req)
		switch rr.Code {
		case http.StatusOK:
			ok++
		case http.StatusUnauthorized:
			// protected CM site views
		default:
			t.Fatalf("%s -> %d: %s", rq.Path, rr.Code, rr.Body.String())
		}
	}
	if ok < 100 {
		t.Fatalf("only %d/200 requests succeeded", ok)
	}
}

// TestAcerEuroXMLRoundTrip: the specification document carries the full
// 556-page, 3068-unit model without loss. The document re-marshals to
// the same bytes, and the round-tripped model generates the same
// artifacts as the original.
func TestAcerEuroXMLRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale model")
	}
	m, err := Generate(AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := webml.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := webml.UnmarshalModel(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != m.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", back.Stats(), m.Stats())
	}
	again, err := webml.MarshalModel(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, again) {
		t.Fatal("re-marshalled document differs")
	}
	if got, want := artifactHash(t, back), artifactHash(t, m); got != want {
		t.Fatalf("artifact hash after the round trip = %s, want %s", got, want)
	}
	t.Logf("XML document: %d bytes for %d pages / %d units", len(doc), m.Stats().Pages, m.Stats().Units+m.Stats().Operations)
}

// artifactHash is the SHA-256 of a model's DDL, every unit, page and
// config descriptor, and every template, each in sorted order.
func artifactHash(t *testing.T, m *webml.Model) string {
	t.Helper()
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, stmt := range art.DDL {
		fmt.Fprintf(h, "%s;\n", stmt)
	}
	var docs []any
	for _, u := range art.Repo.Units() {
		docs = append(docs, u)
	}
	for _, p := range art.Repo.Pages() {
		docs = append(docs, p)
	}
	for _, d := range append(docs, art.Repo.Config()) {
		data, err := descriptor.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	for _, name := range art.Repo.TemplateNames() {
		tpl, _ := art.Repo.Template(name)
		fmt.Fprintf(h, "%s %d\n%s\n", name, len(tpl), tpl)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
