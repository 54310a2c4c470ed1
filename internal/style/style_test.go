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

// mustParse parses static test markup, panicking on an error.
func mustParse(src string) *dom.Node {
	n, err := dom.Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

// apply styles a parsed copy of src with rs in every site view, the way a
// page program is styled.
func apply(t *testing.T, rs *RuleSet, src string) *dom.Node {
	t.Helper()
	s, err := NewStyler(rs)
	if err != nil {
		t.Fatal(err)
	}
	tree := mustParse(src)
	if err := s.Style(&descriptor.Page{}, tree, ""); err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestApplyWrapsUnitsAndPage(t *testing.T) {
	s, err := NewStyler(B2CRuleSet())
	if err != nil {
		t.Fatal(err)
	}
	styled := mustParse(skeleton)
	if err := s.Style(&descriptor.Page{}, styled, ""); err != nil {
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
	// The parsed rules are only read: a second page styles the same.
	again := mustParse(skeleton)
	if err := s.Style(&descriptor.Page{}, again, ""); err != nil || again.String() != out {
		t.Fatalf("second styling differs (err %v):\n%s", err, again)
	}
}

// TestUnitNameIsText: a unit's display name reaches the styled template
// as text, escaped on output, never as markup.
func TestUnitNameIsText(t *testing.T) {
	const name = "R&D <b>x</b>"
	page := mustParse(skeleton)
	page.Find(dom.ByTag("webml:dataUnit")).SetAttr("data-name", name)
	repo := descriptor.NewRepository()
	repo.PutTemplate("p1", page.String())
	if _, err := CompileTemplates(repo, B2CRuleSet()); err != nil {
		t.Fatal(err)
	}
	tpl, _ := repo.Template("p1")
	styled := mustParse(tpl)
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

// TestPageTitleIsText: a page title reaches the styled template as text,
// wherever a page rule puts ${title}, never as markup or attributes.
func TestPageTitleIsText(t *testing.T) {
	const title = `a" onclick="x`
	rs := &RuleSet{Name: "t", PageRules: []PageRule{{Template: `<div title="${title}"><h1>${title}</h1><webml:content/></div>`}}}
	repo := descriptor.NewRepository()
	repo.PutTemplate("p1", strings.ReplaceAll(skeleton, "Volume Page", dom.EscapeText(title)))
	if _, err := CompileTemplates(repo, rs); err != nil {
		t.Fatal(err)
	}
	tpl, _ := repo.Template("p1")
	div := mustParse(tpl).Find(dom.ByAttr("title", title))
	if div == nil || len(div.Attrs) != 1 {
		t.Fatalf("title injected attributes:\n%s", tpl)
	}
	if h1 := div.Find(dom.ByTag("h1")); h1 == nil || h1.Text() != title {
		t.Fatalf("heading is not the title:\n%s", tpl)
	}
}

func TestDefaultPageRuleFallback(t *testing.T) {
	styled := apply(t, B2CRuleSet(), strings.ReplaceAll(skeleton, ` data-layout="two-column"`, ""))
	if !strings.Contains(styled.String(), `class="site-main"`) {
		t.Fatalf("default layout not applied:\n%s", styled)
	}
}

// refused wants a styler to refuse rs wherever a rule set can stand, and
// CompileTemplates to refuse it, before styling a page: a rule is checked
// whether or not a page would use it.
func refused(t *testing.T, rs *RuleSet) {
	t.Helper()
	if _, err := NewStyler(rs); err == nil {
		t.Error("accepted as the rule set")
	}
	if _, err := NewStyler(&RuleSet{Name: "ok", SiteViews: map[string]*RuleSet{"sv": rs}}); err == nil {
		t.Error("accepted for a site view")
	}
	if _, err := NewStyler(&RuleSet{Name: "ok", Devices: []DeviceProfile{{Name: "tv", UAContains: []string{"TV"}, Rules: rs}}}); err == nil {
		t.Error("accepted for a device")
	}
	if _, err := NewStyler(MultiDevice(rs)); err == nil {
		t.Error("accepted under MultiDevice")
	}
	if _, err := CompileTemplates(descriptor.NewRepository(), rs); err == nil {
		t.Error("accepted by CompileTemplates")
	}
}

func TestUnitRuleRequiresSlot(t *testing.T) {
	refused(t, &RuleSet{Name: "broken", UnitRules: []UnitRule{{Kind: "feed", Template: `<div>no slot</div>`}}})
	refused(t, &RuleSet{Name: "broken", UnitRules: []UnitRule{{Kind: "data", Template: `<div><webml:slot/>`}}})
}

func TestPageRuleRequiresContent(t *testing.T) {
	refused(t, &RuleSet{Name: "broken", PageRules: []PageRule{{Layout: "nowhere", Template: `<div>no content</div>`}}})
	refused(t, &RuleSet{Name: "broken", PageRules: []PageRule{{Template: `<div><webml:content/></span>`}}})
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

// TestRuntimeStylerDispatchesOnUserAgent: a rule set with device
// profiles styles per device class; the variant is the matching
// profile's name, and "" for a user agent no profile matches.
func TestRuntimeStylerDispatchesOnUserAgent(t *testing.T) {
	s, err := NewStyler(MultiDevice(B2CRuleSet()))
	if err != nil {
		t.Fatal(err)
	}
	if !s.VariesByUserAgent() {
		t.Fatal("request-time styler does not vary by user agent")
	}
	if got := s.Variant("Mozilla/5.0 (iPhone; Mobile Safari)"); got != "mobile" {
		t.Fatalf("variant = %q", got)
	}
	if got := s.Variant("Mozilla/5.0 (X11; Linux x86_64)"); got != "" {
		t.Fatalf("variant = %q", got)
	}
	mobile, desktop := mustParse(skeleton), mustParse(skeleton)
	if err := s.Style(&descriptor.Page{}, mobile, "Android 4.0"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mobile.String(), `class="m-unit"`) {
		t.Fatalf("mobile rules not applied:\n%s", mobile)
	}
	if err := s.Style(&descriptor.Page{}, desktop, "Mozilla/5.0"); err != nil {
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
		if styled := apply(t, rs, skeleton); styled.AttrOr("data-style", "") != rs.Name {
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
	tags := apply(t, B2CRuleSet(), skeleton).FindAll(dom.ByTagPrefix("webml:"))
	if len(tags) != 2 {
		t.Fatalf("unit tags = %d", len(tags))
	}
}

// TestStylerBySiteView: a page gets its site view's rule set, else the
// set itself; without a set it stays unstyled, and no page varies by
// user agent.
func TestStylerBySiteView(t *testing.T) {
	rs := IntranetRuleSet()
	rs.SiteViews = map[string]*RuleSet{
		"shop":     B2CRuleSet(),
		"partners": B2BRuleSet(),
	}
	s, err := NewStyler(rs)
	if err != nil {
		t.Fatal(err)
	}
	if s.VariesByUserAgent() || s.Variant("Mozilla/5.0 (iPhone) Mobile") != "" {
		t.Fatal("compile-time styler varies by user agent")
	}
	for sv, want := range map[string]string{"shop": "b2c", "partners": "b2b", "cm": "intranet"} {
		tree := mustParse(skeleton)
		if err := s.Style(&descriptor.Page{ID: "p1", SiteView: sv}, tree, ""); err != nil {
			t.Fatal(err)
		}
		if got := tree.AttrOr("data-style", ""); got != want {
			t.Fatalf("site view %s styled %q, want %q", sv, got, want)
		}
	}
	none, err := NewStyler(nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mustParse(skeleton)
	if err := none.Style(&descriptor.Page{ID: "p9", SiteView: "ghost"}, tree, ""); err != nil || tree.String() != skeleton {
		t.Fatalf("unlisted site view without a default was styled (err %v):\n%s", err, tree)
	}
}

// TestStylerDeviceBeforeSiteView: a matching device profile wins over
// the page's site view, which wins over the set itself.
func TestStylerDeviceBeforeSiteView(t *testing.T) {
	rs := MultiDevice(IntranetRuleSet())
	rs.SiteViews = map[string]*RuleSet{"shop": B2CRuleSet()}
	s, err := NewStyler(rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sv, ua, want string }{
		{"shop", "Mozilla/5.0 (iPhone) Mobile", "mobile"},
		{"shop", "Mozilla/5.0 (X11)", "b2c"},
		{"cm", "Mozilla/5.0 (X11)", "intranet"},
	} {
		tree := mustParse(skeleton)
		if err := s.Style(&descriptor.Page{ID: "p1", SiteView: c.sv}, tree, c.ua); err != nil {
			t.Fatal(err)
		}
		if got := tree.AttrOr("data-style", ""); got != c.want {
			t.Errorf("site view %s, %s: styled %q, want %q", c.sv, c.ua, got, c.want)
		}
	}
}
