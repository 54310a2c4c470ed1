package codegen

import (
	"strings"
	"testing"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/fixture"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
)

func gen(t *testing.T) (*Generator, *Artifacts) {
	t.Helper()
	g, err := New(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return g, art
}

// seededDB runs the generated DDL and loads the fixture content; the
// generated queries must then run against the engine.
func seededDB(t *testing.T, art *Artifacts) *rdb.DB {
	t.Helper()
	db := rdb.Open()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("DDL %q: %v", stmt, err)
		}
	}
	if err := fixture.Seed(db); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGenerateProducesAllArtifacts(t *testing.T) {
	_, art := gen(t)
	units, pages, templates := art.Repo.Counts()
	// 7 public units + 4 admin units + 3 operations.
	if units != 14 {
		t.Fatalf("unit descriptors = %d", units)
	}
	if pages != 6 || templates != 6 {
		t.Fatalf("pages = %d templates = %d", pages, templates)
	}
	if got := len(art.Repo.Config().Mappings); got != 6+3 {
		t.Fatalf("mappings = %d", got)
	}
}

func TestDataUnitQuery(t *testing.T) {
	_, art := gen(t)
	d := art.Repo.Unit("volumeData")
	if d == nil {
		t.Fatal("volumeData descriptor missing")
	}
	if d.Query != "SELECT t.oid, t.title, t.year FROM volume t WHERE t.oid = ?" {
		t.Fatalf("query = %q", d.Query)
	}
	if len(d.Inputs) != 1 || d.Inputs[0].Name != "volume" {
		t.Fatalf("inputs = %+v", d.Inputs)
	}
	if d.Cache == nil || !d.Cache.Enabled {
		t.Fatal("cache tag lost")
	}
	if len(d.Reads) == 0 || d.Reads[0] != "entity:volume" {
		t.Fatalf("reads = %v", d.Reads)
	}
}

func TestRelationshipScopedIndexQuery(t *testing.T) {
	_, art := gen(t)
	d := art.Repo.Unit("issuesPapers")
	if !strings.Contains(d.Query, "t.fk_volumetoissue = ?") {
		t.Fatalf("query = %q", d.Query)
	}
	if d.Inputs[0].Name != ParentParam {
		t.Fatalf("inputs = %+v", d.Inputs)
	}
	if !strings.Contains(d.Query, "ORDER BY t.number") {
		t.Fatalf("query = %q", d.Query)
	}
	// Hierarchical level over IssueToPaper.
	if len(d.Levels) != 1 || d.Levels[0].Entity != "Paper" {
		t.Fatalf("levels = %+v", d.Levels)
	}
	if !strings.Contains(d.Levels[0].Query, "t.fk_issuetopaper = ?") {
		t.Fatalf("level query = %q", d.Levels[0].Query)
	}
	wantReads := map[string]bool{
		"entity:issue": true, "rel:volumetoissue": true,
		"rel:issuetopaper": true, "entity:paper": true,
	}
	for _, r := range d.Reads {
		delete(wantReads, r)
	}
	if len(wantReads) != 0 {
		t.Fatalf("missing reads %v in %v", wantReads, d.Reads)
	}
}

func TestBridgeScopedIndexQuery(t *testing.T) {
	_, art := gen(t)
	d := art.Repo.Unit("paperKeywords")
	if !strings.Contains(d.Query, "JOIN rel_paperkeyword b ON b.to_oid = t.oid") ||
		!strings.Contains(d.Query, "b.from_oid = ?") {
		t.Fatalf("query = %q", d.Query)
	}
}

func TestScrollerQueries(t *testing.T) {
	_, art := gen(t)
	d := art.Repo.Unit("searchIndex")
	if !strings.Contains(d.Query, "LIMIT 10 OFFSET ?") {
		t.Fatalf("query = %q", d.Query)
	}
	if !strings.Contains(d.CountQuery, "SELECT COUNT(*) FROM paper t WHERE t.title LIKE ?") {
		t.Fatalf("count query = %q", d.CountQuery)
	}
	if d.PageSize != 10 {
		t.Fatalf("page size = %d", d.PageSize)
	}
	// Inputs: kw (wildcarded) then offset.
	if len(d.Inputs) != 2 || d.Inputs[0].Name != "kw" || !d.Inputs[0].Wildcard || d.Inputs[1].Name != "offset" {
		t.Fatalf("inputs = %+v", d.Inputs)
	}
}

func TestEntryDescriptor(t *testing.T) {
	_, art := gen(t)
	d := art.Repo.Unit("enterKeyword")
	if d.Query != "" || len(d.Fields) != 1 || d.Fields[0].Name != "keyword" || !d.Fields[0].Required {
		t.Fatalf("descriptor = %+v", d)
	}
}

func TestOperationQueries(t *testing.T) {
	_, art := gen(t)
	c := art.Repo.Unit("createVolume")
	if c.Query != "INSERT INTO volume (title, year) VALUES (?, ?)" {
		t.Fatalf("create query = %q", c.Query)
	}
	if len(c.Inputs) != 2 || c.Inputs[0].Name != "title" || c.Inputs[1].Name != "year" {
		t.Fatalf("create inputs = %+v", c.Inputs)
	}
	if len(c.Writes) != 1 || c.Writes[0] != "entity:volume" {
		t.Fatalf("create writes = %v", c.Writes)
	}

	del := art.Repo.Unit("deleteVolume")
	if del.Query != "DELETE FROM volume WHERE oid = ?" {
		t.Fatalf("delete query = %q", del.Query)
	}
	// Delete severs VolumeToIssue instances too.
	joined := strings.Join(del.Writes, ",")
	if !strings.Contains(joined, "entity:volume") || !strings.Contains(joined, "rel:volumetoissue") {
		t.Fatalf("delete writes = %v", del.Writes)
	}

	conn := art.Repo.Unit("tagPaper")
	if conn.Query != "INSERT INTO rel_paperkeyword (from_oid, to_oid) VALUES (?, ?)" {
		t.Fatalf("connect query = %q", conn.Query)
	}
	if len(conn.Inputs) != 2 || conn.Inputs[0].Name != "from" || conn.Inputs[1].Name != "to" {
		t.Fatalf("connect inputs = %+v", conn.Inputs)
	}
}

func TestConnectOverFKRelationship(t *testing.T) {
	m := fixture.Figure1Model()
	b := webml.NewBuilder("m2", fixture.ACMSchema())
	sv := b.SiteView("sv", "SV")
	page := sv.Page("p", "P")
	idx := page.Index("i", "Issue", "Number")
	move := b.Connect("moveIssue", "VolumeToIssue")
	b.Link(idx.ID, move.ID, webml.P("oid", "to"))
	b.OK(move.ID, page.Ref())
	m2 := b.MustBuild()
	_ = m

	g, err := New(m2)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	d := art.Repo.Unit("moveIssue")
	if d.Query != "UPDATE issue SET fk_volumetoissue = ? WHERE oid = ?" {
		t.Fatalf("query = %q", d.Query)
	}
	if len(d.Inputs) != 2 || d.Inputs[0].Name != "from" || d.Inputs[1].Name != "to" {
		t.Fatalf("inputs = %+v", d.Inputs)
	}
}

// TestGeneratedQueriesExecute is the end-to-end generation contract:
// every generated SQL statement must be accepted by the engine with the
// declared number of parameters.
func TestGeneratedQueriesExecute(t *testing.T) {
	_, art := gen(t)
	db := seededDB(t, art)
	for _, d := range art.Repo.Units() {
		run := func(query string, nArgs int) {
			if query == "" {
				return
			}
			args := make([]rdb.Value, nArgs)
			for i := range args {
				// Pick a type-plausible argument from the parameter name.
				if i < len(d.Inputs) && isTextualParam(d.Inputs[i]) {
					args[i] = "x"
				} else {
					args[i] = int64(1)
				}
			}
			if strings.HasPrefix(query, "SELECT") {
				if _, err := db.Query(query, args...); err != nil {
					t.Errorf("unit %s: query %q: %v", d.ID, query, err)
				}
				return
			}
			// Mutations: run inside a rolled-back transaction so the seed
			// data is untouched for the next descriptor.
			tx := db.Begin()
			if _, err := tx.Exec(query, args...); err != nil &&
				!strings.Contains(err.Error(), "foreign key") &&
				!strings.Contains(err.Error(), "duplicate") {
				t.Errorf("unit %s: exec %q: %v", d.ID, query, err)
			}
			tx.Rollback()
		}
		run(d.Query, len(d.Inputs))
		run(d.CountQuery, countInputs(d))
		for _, lvl := range d.Levels {
			run(lvl.Query, 1)
		}
	}
}

// isTextualParam guesses whether a generated parameter binds a text
// column, from its name and wildcard flag (test-only heuristic over the
// fixture's parameter vocabulary).
func isTextualParam(p descriptor.ParamDef) bool {
	if p.Wildcard {
		return true
	}
	switch p.Name {
	case "title", "keyword", "kw", "word", "month", "abstract":
		return true
	}
	return false
}

// countInputs returns the parameter count of the scroller count query
// (the windowed query's inputs minus the trailing offset).
func countInputs(d *descriptor.Unit) int {
	n := len(d.Inputs)
	if n > 0 && d.Inputs[n-1].Name == "offset" {
		return n - 1
	}
	return n
}

func TestPageDescriptorTopology(t *testing.T) {
	_, art := gen(t)
	pd := art.Repo.Page("volumePage")
	if pd == nil || len(pd.Units) != 3 {
		t.Fatalf("page descriptor = %+v", pd)
	}
	if len(pd.Edges) != 1 || pd.Edges[0].From != "volumeData" || pd.Edges[0].To != "issuesPapers" {
		t.Fatalf("edges = %+v", pd.Edges)
	}
	if pd.Edges[0].Params[0].Source != "oid" || pd.Edges[0].Params[0].Target != "parent" {
		t.Fatalf("edge params = %+v", pd.Edges[0].Params)
	}
	if pd.Layout != "two-column" || pd.Template != "volumePage" {
		t.Fatalf("page attrs = %+v", pd)
	}
}

func TestControllerConfig(t *testing.T) {
	_, art := gen(t)
	cfg := art.Repo.Config()
	pm := cfg.Mapping("page/volumePage")
	if pm == nil || pm.Type != "page" || pm.Template != "volumePage" {
		t.Fatalf("page mapping = %+v", pm)
	}
	om := cfg.Mapping("op/createVolume")
	if om == nil || om.Type != "operation" || om.OK != "page/managePage" || om.KO != "page/managePage" {
		t.Fatalf("op mapping = %+v", om)
	}
	// Operation without explicit KO falls back to its OK target.
	cm := cfg.Mapping("op/tagPaper")
	if cm == nil || cm.KO != cm.OK {
		t.Fatalf("connect mapping = %+v", cm)
	}
}

func TestSkeletonContainsUnitTags(t *testing.T) {
	g, _ := gen(t)
	p := g.Model.PageByID("volumePage")
	sk := g.Skeleton(p)
	for _, want := range []string{
		`<webml:dataUnit id="volumeData"`,
		`<webml:indexUnit id="issuesPapers"`,
		`<webml:entryUnit id="enterKeyword"`,
		`data-layout="two-column"`,
		`class="page-grid"`,
	} {
		if !strings.Contains(sk, want) {
			t.Fatalf("skeleton missing %q:\n%s", want, sk)
		}
	}
}

// kindForTag is the inverse of TagForKind; ok is false for non-unit tags.
func kindForTag(tag string) (webml.UnitKind, bool) {
	k, hasPrefix := strings.CutPrefix(tag, tagPrefix)
	k, hasSuffix := strings.CutSuffix(k, tagSuffix)
	if !hasPrefix || !hasSuffix || k == "" {
		return "", false
	}
	return webml.UnitKind(k), true
}

func TestTagKindRoundTrip(t *testing.T) {
	for _, k := range webml.CoreUnitKinds {
		tag := TagForKind(k)
		back, ok := kindForTag(tag)
		if !ok || back != k {
			t.Fatalf("round trip failed for %q: tag %q -> %q", k, tag, back)
		}
	}
	if _, ok := kindForTag("div"); ok {
		t.Fatal("div is not a unit tag")
	}
	if _, ok := kindForTag("webml:Unit"); ok {
		t.Fatal("empty kind accepted")
	}
}

// TestRegeneratePreservesOptimized verifies the Section 6 contract: the
// developer's hand-tuned descriptor survives model regeneration, while
// untouched descriptors are refreshed.
func TestRegeneratePreservesOptimized(t *testing.T) {
	g, art := gen(t)
	tuned := "SELECT t.oid, t.title, t.year FROM volume t WHERE t.oid = ? -- hand-tuned"
	if err := art.Repo.OverrideQuery("volumeData", tuned); err != nil {
		t.Fatal(err)
	}
	art2, err := g.Regenerate(art.Repo)
	if err != nil {
		t.Fatal(err)
	}
	if got := art2.Repo.Unit("volumeData").Query; got != tuned {
		t.Fatalf("optimized descriptor clobbered: %q", got)
	}
	if !art2.Repo.Unit("volumeData").Optimized {
		t.Fatal("optimized flag lost")
	}
	// A non-optimized descriptor is regenerated fresh.
	if art2.Repo.Unit("issuesPapers").Optimized {
		t.Fatal("unexpected optimized flag")
	}
}

func TestStats(t *testing.T) {
	_, art := gen(t)
	st := art.Stats
	if st.Pages != 6 || st.ContentUnits != 11 || st.Operations != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ConventionalPageClasses != 6 || st.ConventionalUnitClasses != 14 {
		t.Fatalf("conventional = %+v", st)
	}
	if st.GenericPageServices != 1 {
		t.Fatalf("generic page services = %d", st.GenericPageServices)
	}
	// Kinds used: data, index, entry, scroller, multichoice + create,
	// delete, connect = 8.
	if st.GenericUnitServices != 8 {
		t.Fatalf("generic unit services = %d", st.GenericUnitServices)
	}
	if st.Queries == 0 || st.Mappings != 9 {
		t.Fatalf("queries = %d mappings = %d", st.Queries, st.Mappings)
	}
	if !strings.Contains(st.String(), "generic services") {
		t.Fatal("stats string malformed")
	}
}

func TestPluginUnitDescriptor(t *testing.T) {
	defer webml.UnregisterPlugin("feed")
	if err := webml.RegisterPlugin(webml.PluginSpec{Kind: "feed", RequiredProps: []string{"url"}}); err != nil {
		t.Fatal(err)
	}
	b := webml.NewBuilder("m", fixture.ACMSchema())
	b.SiteView("sv", "SV").Page("p", "P").Plugin("f1", "feed", map[string]string{"url": "http://x"})
	g, err := New(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	d := art.Repo.Unit("f1")
	if d == nil || d.Kind != "feed" {
		t.Fatalf("descriptor = %+v", d)
	}
	if v, ok := d.Prop("url"); !ok || v != "http://x" {
		t.Fatalf("props = %+v", d.Props)
	}
	if d.Query != "" {
		t.Fatalf("plug-in descriptor should carry no generated SQL, got %q", d.Query)
	}
}

func TestLandmarkMenuGenerated(t *testing.T) {
	_, art := gen(t)
	// volumesPage is the public site view's landmark; every public page
	// descriptor carries it in its menu.
	pd := art.Repo.Page("paperPage")
	if len(pd.Menu) != 1 || pd.Menu[0].Action != "page/volumesPage" || pd.Menu[0].Label != "Volumes" {
		t.Fatalf("menu = %+v", pd.Menu)
	}
	// The admin site view's landmark is the tag page.
	if m := art.Repo.Page("managePage").Menu; len(m) != 1 || m[0].Action != "page/tagPage" {
		t.Fatalf("admin menu = %+v", m)
	}
}

func TestDiagramStructure(t *testing.T) {
	m := fixture.Figure1Model()
	dot := Diagram(m)
	for _, want := range []string{
		"digraph webml {",
		`label="ACM Digital Library"`,
		`label="Volume Administration (protected)"`,
		`label="Volumes *"`, // landmark marker
		"shape=hexagon",     // operations
		"style=dashed",      // transport link
		`label="OK"`, `label="KO"`,
		"nvolumeData", "nissuesPapers",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("diagram missing %q:\n%s", want, dot)
		}
	}
	// Balanced braces (valid DOT nesting).
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Fatal("unbalanced braces in DOT output")
	}
}

func TestDiagramIdentSanitization(t *testing.T) {
	if got := ident("a-b.c:d"); got != "na_b_c_d" {
		t.Fatalf("ident = %q", got)
	}
}

func TestOrderedIndexDDLGenerated(t *testing.T) {
	_, art := gen(t)
	joined := strings.Join(art.DDL, "\n")
	// volIndex orders by Year; searchIndex orders by Title (paper table);
	// issuesPapers orders by Number and nests papers by Title.
	for _, want := range []string{
		"CREATE ORDERED INDEX ord_volume_year ON volume(year)",
		"CREATE ORDERED INDEX ord_paper_title ON paper(title)",
		"CREATE ORDERED INDEX ord_issue_number ON issue(number)",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in DDL:\n%s", want, joined)
		}
	}
	// And the whole DDL still executes.
	db := seededDB(t, art)
	plan, err := db.Explain(`SELECT t.oid FROM paper t WHERE t.title > 'A'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "RANGE") {
		t.Fatalf("ordered index not usable: %q", plan)
	}
}

// TestGenerationIsDeterministic: two runs over the same model produce
// byte-identical artifacts (required for meaningful diffs of generated
// code under version control).
func TestGenerationIsDeterministic(t *testing.T) {
	marshalAll := func() string {
		g, err := New(fixture.Figure1Model())
		if err != nil {
			t.Fatal(err)
		}
		art, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, stmt := range art.DDL {
			b.WriteString(stmt)
			b.WriteString(";\n")
		}
		for _, u := range art.Repo.Units() {
			data, err := descriptor.Marshal(u)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
		for _, p := range art.Repo.Pages() {
			data, err := descriptor.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
		for _, name := range art.Repo.TemplateNames() {
			tpl, _ := art.Repo.Template(name)
			b.WriteString(tpl)
		}
		cfg, err := descriptor.Marshal(art.Repo.Config())
		if err != nil {
			t.Fatal(err)
		}
		b.Write(cfg)
		return b.String()
	}
	if marshalAll() != marshalAll() {
		t.Fatal("generation not deterministic")
	}
}
