package style

import (
	"strings"
	"testing"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
)

const skeleton = `<html data-page="p1" data-layout="two-column">` +
	`<head><title>Volume Page</title></head>` +
	`<body><table class="page-grid">` +
	`<tr><td><webml:dataUnit id="volumeData" data-name="Volume data"/></td></tr>` +
	`<tr><td><webml:indexUnit id="issuesPapers" data-name="Issues&amp;Papers"/></td></tr>` +
	`</table></body></html>`

func TestApplyWrapsUnitsAndPage(t *testing.T) {
	rs := B2CRuleSet()
	tree := dom.MustParse(skeleton)
	styled, err := rs.Apply(tree)
	if err != nil {
		t.Fatal(err)
	}
	out := styled.String()
	// Unit rules: the titled boxes carry the unit display names, and the
	// custom tags are still inside (the dynamic slot).
	for _, want := range []string{
		`<div class="unit-title">Volume data</div>`,
		`<webml:dataUnit id="volumeData"`,
		`<webml:indexUnit id="issuesPapers"`,
		"unit-box-data", "unit-box-index",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Page rule: the two-column layout wraps the grid; the title is
	// interpolated.
	if !strings.Contains(out, `two-col`) || !strings.Contains(out, "<h1>Volume Page</h1>") {
		t.Fatalf("page rule not applied:\n%s", out)
	}
	// CSS injected into head.
	if !strings.Contains(out, "b2c style sheet") {
		t.Fatalf("CSS missing:\n%s", out)
	}
	if styled.AttrOr("data-style", "") != "b2c" {
		t.Fatal("style marker missing")
	}
	// The input tree is untouched.
	if strings.Contains(tree.String(), "unit-box") {
		t.Fatal("Apply mutated its input")
	}
}

// TestUnitNameIsText: a unit's display name reaches the styled template
// as text, escaped on output, never as markup.
func TestUnitNameIsText(t *testing.T) {
	const name = "R&D <b>x</b>"
	page := dom.MustParse(skeleton)
	page.Find(dom.ByTag("webml:dataUnit")).SetAttr("data-name", name)
	repo := descriptor.NewRepository()
	repo.PutTemplate("p1", page.String())
	if _, err := CompileTemplates(repo, B2CRuleSet()); err != nil {
		t.Fatal(err)
	}
	tpl, _ := repo.Template("p1")
	styled := dom.MustParse(tpl)
	if b := styled.Find(dom.ByTag("b")); b != nil {
		t.Fatalf("unit name injected as markup:\n%s", tpl)
	}
	if title := styled.Find(dom.ByAttr("class", "unit-title")); title == nil || title.Text() != name {
		t.Fatalf("unit title is not the name:\n%s", tpl)
	}
	if !strings.Contains(tpl, `<div class="unit-title">R&amp;D &lt;b&gt;x&lt;/b&gt;</div>`) {
		t.Fatalf("unit name not escaped:\n%s", tpl)
	}
}

func TestDefaultPageRuleFallback(t *testing.T) {
	rs := B2CRuleSet()
	tree := dom.MustParse(strings.ReplaceAll(skeleton, ` data-layout="two-column"`, ""))
	styled, err := rs.Apply(tree)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(styled.String(), `class="site-main"`) {
		t.Fatalf("default layout not applied:\n%s", styled)
	}
}

func TestUnitRuleRequiresSlot(t *testing.T) {
	rs := &RuleSet{
		Name:      "broken",
		UnitRules: []UnitRule{{Kind: "data", Template: `<div>no slot</div>`}},
	}
	if _, err := rs.Apply(dom.MustParse(skeleton)); err == nil {
		t.Fatal("slotless unit rule accepted")
	}
}

func TestPageRuleRequiresContent(t *testing.T) {
	rs := &RuleSet{
		Name:      "broken",
		PageRules: []PageRule{{Layout: "", Template: `<div>no content</div>`}},
	}
	if _, err := rs.Apply(dom.MustParse(skeleton)); err == nil {
		t.Fatal("contentless page rule accepted")
	}
}

func TestCompileTemplatesRewritesRepository(t *testing.T) {
	repo := descriptor.NewRepository()
	repo.PutTemplate("p1", skeleton)
	repo.PutTemplate("p2", strings.ReplaceAll(skeleton, "p1", "p2"))
	n, err := CompileTemplates(repo, B2CRuleSet())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("compiled %d", n)
	}
	tpl, _ := repo.Template("p1")
	if !strings.Contains(tpl, "unit-box") || !strings.Contains(tpl, "site-header") {
		t.Fatalf("compiled template unstyled:\n%s", tpl)
	}
	// The custom tags survive for the renderer.
	if !strings.Contains(tpl, "webml:dataUnit") {
		t.Fatal("dynamic slots lost at compile time")
	}
}

func TestRuntimeStylerDispatchesOnUserAgent(t *testing.T) {
	s := StandardProfiles(B2CRuleSet())
	if got := s.Variant("Mozilla/5.0 (iPhone; Mobile Safari)"); got != "mobile" {
		t.Fatalf("variant = %q", got)
	}
	if got := s.Variant("Mozilla/5.0 (X11; Linux x86_64)"); got != "b2c" {
		t.Fatalf("variant = %q", got)
	}
	tree := dom.MustParse(skeleton)
	mobile, err := s.Apply(tree, "Android 4.0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mobile.String(), `class="m-unit"`) {
		t.Fatalf("mobile rules not applied:\n%s", mobile)
	}
	desktop, err := s.Apply(tree, "Mozilla/5.0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(desktop.String(), `class="m-unit"`) {
		t.Fatal("mobile rules leaked to desktop")
	}
}

func TestThreeRuleSetsHaveDistinctIdentity(t *testing.T) {
	sets := []*RuleSet{B2CRuleSet(), B2BRuleSet(), IntranetRuleSet()}
	seen := map[string]bool{}
	for _, rs := range sets {
		if seen[rs.Name] {
			t.Fatalf("duplicate rule set name %q", rs.Name)
		}
		seen[rs.Name] = true
		styled, err := rs.Apply(dom.MustParse(skeleton))
		if err != nil {
			t.Fatalf("%s: %v", rs.Name, err)
		}
		if styled.AttrOr("data-style", "") != rs.Name {
			t.Fatalf("%s marker missing", rs.Name)
		}
	}
}

func TestComposeCSSIsModularPerKind(t *testing.T) {
	css := ComposeCSS("x", "#123", []string{"index", "data"})
	if !strings.Contains(css, "/* data unit */") || !strings.Contains(css, "/* index unit */") {
		t.Fatalf("missing unit modules:\n%s", css)
	}
	// Deterministic order.
	if strings.Index(css, "/* data unit */") > strings.Index(css, "/* index unit */") {
		t.Fatal("module order not sorted")
	}
	if UnitCSS("entry", "#000") == UnitCSS("data", "#000") {
		t.Fatal("unit CSS not specialized")
	}
}

func TestApplyIdempotentContentPreservation(t *testing.T) {
	// The styled page contains the exact custom tags of the skeleton —
	// no unit lost, no unit duplicated.
	rs := B2CRuleSet()
	styled, err := rs.Apply(dom.MustParse(skeleton))
	if err != nil {
		t.Fatal(err)
	}
	tags := styled.FindAll(dom.ByTagPrefix("webml:"))
	if len(tags) != 2 {
		t.Fatalf("unit tags = %d", len(tags))
	}
}

func TestCompileBySiteView(t *testing.T) {
	repo := descriptor.NewRepository()
	repo.PutPage(&descriptor.Page{ID: "p1", SiteView: "shop", Template: "p1"})
	repo.PutPage(&descriptor.Page{ID: "p2", SiteView: "partners", Template: "p2"})
	repo.PutPage(&descriptor.Page{ID: "p3", SiteView: "cm", Template: "p3"})
	for _, n := range []string{"p1", "p2", "p3"} {
		repo.PutTemplate(n, strings.ReplaceAll(skeleton, "p1", n))
	}
	counts, err := CompileBySiteView(repo, map[string]*RuleSet{
		"shop":     B2CRuleSet(),
		"partners": B2BRuleSet(),
	}, IntranetRuleSet())
	if err != nil {
		t.Fatal(err)
	}
	if counts["b2c"] != 1 || counts["b2b"] != 1 || counts["intranet"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	t1, _ := repo.Template("p1")
	t2, _ := repo.Template("p2")
	t3, _ := repo.Template("p3")
	if !strings.Contains(t1, `data-style="b2c"`) ||
		!strings.Contains(t2, `data-style="b2b"`) ||
		!strings.Contains(t3, `data-style="intranet"`) {
		t.Fatal("per-site-view styling not applied")
	}
	// No default: unmatched site views stay unstyled.
	repo2 := descriptor.NewRepository()
	repo2.PutPage(&descriptor.Page{ID: "p9", SiteView: "ghost", Template: "p9"})
	repo2.PutTemplate("p9", skeleton)
	counts, err = CompileBySiteView(repo2, nil, nil)
	if err != nil || len(counts) != 0 {
		t.Fatalf("counts = %v err = %v", counts, err)
	}
}
