package webmlgo

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webmlgo/internal/fixture"
)

func TestSnapshotRoundTrip(t *testing.T) {
	app := newApp(t)
	var buf bytes.Buffer
	if err := app.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := RestoreDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(fixture.Figure1Model(), WithDatabase(db))
	if err != nil {
		t.Fatal(err)
	}
	rr, body := request(t, restored.Handler(), "/page/volumePage?volume=1", "")
	if rr.Code != http.StatusOK || !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("restored app broken: %d\n%s", rr.Code, body)
	}
}

func TestSnapshotFile(t *testing.T) {
	app := newApp(t)
	path := filepath.Join(t.TempDir(), "app.snap")
	if err := app.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	db, err := RestoreDatabaseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.RowCount("volume")
	if err != nil || n != 2 {
		t.Fatalf("rows = %d err = %v", n, err)
	}
	if _, err := RestoreDatabaseFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// TestSnapshotFileReplaces: a second snapshot to the same path replaces
// the first and leaves no temporary file behind.
func TestSnapshotFileReplaces(t *testing.T) {
	app := newApp(t)
	path := filepath.Join(t.TempDir(), "app.snap")
	if err := app.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := app.DB.Exec(`INSERT INTO volume (title, year) VALUES ('Added', 2004)`); err != nil {
		t.Fatal(err)
	}
	if err := app.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	db, err := RestoreDatabaseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := db.RowCount("volume"); err != nil || n != 3 {
		t.Fatalf("rows = %d err = %v, want the second snapshot's 3", n, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "app.snap" {
		t.Fatalf("directory holds %v, want only app.snap", entries)
	}
}

func TestControllerMetrics(t *testing.T) {
	app := newApp(t)
	request(t, app.Handler(), "/page/volumesPage", "")
	request(t, app.Handler(), "/page/volumesPage", "")
	request(t, app.Handler(), "/page/ghost", "")
	stats := app.Metrics()
	var pageStat, ghostStat bool
	for _, s := range stats {
		if s.Action == "page/volumesPage" {
			pageStat = true
			if s.Count != 2 || s.Errors != 0 || s.Mean() <= 0 {
				t.Fatalf("stats = %+v", s)
			}
		}
		if s.Action == "page/ghost" {
			ghostStat = true
			if s.Errors != 1 {
				t.Fatalf("stats = %+v", s)
			}
		}
	}
	if !pageStat || !ghostStat {
		t.Fatalf("missing actions in %v", stats)
	}
}

func TestExplainUnit(t *testing.T) {
	app := newApp(t)
	plan, err := app.ExplainUnit("volumeData")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "PRIMARY KEY") {
		t.Fatalf("plan = %q", plan)
	}
	// The relationship-scoped index goes through the FK index.
	plan, err = app.ExplainUnit("issuesPapers")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "BY INDEX ON fk_volumetoissue") {
		t.Fatalf("plan = %q", plan)
	}
	if _, err := app.ExplainUnit("ghost"); err == nil {
		t.Fatal("ghost unit accepted")
	}
	if _, err := app.ExplainUnit("enterKeyword"); err == nil {
		t.Fatal("queryless unit accepted")
	}
}

// An operation unit's UPDATE or DELETE is explained like a query: the
// data expert retouching it checks that it still writes through the key.
// An INSERT reads no rows and has no plan to show.
func TestExplainOperationUnits(t *testing.T) {
	schema := &Schema{Entities: []*Entity{
		{Name: "Product", Attributes: []Attribute{{Name: "Name", Type: String, Required: true}}},
	}}
	b := NewBuilder("ops", schema)
	manage := b.SiteView("sv", "SV").Page("manage", "Manage")
	form := manage.Entry("form",
		Field{Name: "oid", Type: Int, Required: true},
		Field{Name: "name", Type: String, Required: true})
	rename := b.Operation("renameProduct", ModifyUnit, "Product")
	rename.Set = map[string]string{"Name": "name"}
	create := b.Operation("createProduct", CreateUnit, "Product")
	create.Set = map[string]string{"Name": "name"}
	drop := b.Operation("dropProduct", DeleteUnit, "Product")
	for _, op := range []string{rename.ID, create.ID, drop.ID} {
		b.Link(form.ID, op, P("oid", "oid"), P("name", "name"))
		b.OK(op, manage.Ref())
		b.KO(op, manage.Ref())
	}
	app, err := New(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for unit, want := range map[string]string{
		"renameProduct": "UPDATE product\nACCESS product BY PRIMARY KEY ON oid",
		"dropProduct":   "DELETE FROM product\nACCESS product BY PRIMARY KEY ON oid",
	} {
		plan, err := app.ExplainUnit(unit)
		if err != nil || !strings.HasPrefix(plan, want) {
			t.Errorf("%s: plan %q, err %v; want prefix %q", unit, plan, err, want)
		}
	}
	if _, err := app.ExplainUnit("createProduct"); err == nil || !strings.Contains(err.Error(), "EXPLAIN supports SELECT, UPDATE and DELETE") {
		t.Errorf("createProduct: %v", err)
	}
}

// TestBootstrapFromExistingDatabase: reverse-engineer a conforming
// database, derive the default hypertext, and browse it — an application
// from nothing but data.
func TestBootstrapFromExistingDatabase(t *testing.T) {
	seeded := newApp(t) // creates + seeds the ACM schema
	app, issues, err := Bootstrap("recovered", seeded.DB, WithCompiledStyle(B2CStyle()))
	if err != nil {
		t.Fatalf("%v (issues %v)", err, issues)
	}
	if len(issues) != 0 {
		t.Fatalf("issues = %v", issues)
	}
	// Browse the derived site: entity list -> detail with relationships.
	rr, body := request(t, app.Handler(), "/page/browseVolume", "")
	if rr.Code != http.StatusOK || !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("browse page broken: %d\n%s", rr.Code, body)
	}
	rr, body = request(t, app.Handler(), "/page/detailVolume?id=1", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("detail page: %d\n%s", rr.Code, body)
	}
	// The detail shows the volume AND its issues through the recovered
	// VolumeToIssue relationship.
	if !strings.Contains(body, "TODS Volume 27") {
		t.Fatalf("volume data missing:\n%s", body)
	}
	if !strings.Contains(body, `href="/page/detailIssue?id=1"`) {
		t.Fatalf("related issues missing:\n%s", body)
	}
	// Landmark menu lists every entity's browse page.
	if !strings.Contains(body, `href="/page/browsePaper"`) {
		t.Fatalf("menu missing:\n%s", body)
	}
}
