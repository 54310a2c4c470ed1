// Package style implements the presentation management of Section 5:
// page layout rules and unit layout rules that transform the generated
// template skeletons into final page templates, with CSS factored out
// per unit kind. Like the paper's XSLT rules, a rule is a markup
// template: page rules wrap the skeleton's content into the real page
// grid, unit rules wrap each custom tag into its presentation markup
// while leaving the tag itself in place as the dynamic slot.
//
// Rules apply in two modes (Section 5):
//
//   - compile time: CompileTemplates rewrites every template in the
//     repository once, yielding the most efficient runtime;
//   - request time: RuntimeStyler transforms the skeleton per request,
//     dispatching a rule set on the User-Agent header (multi-device).
package style

import (
	"fmt"
	"strings"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
)

// SlotTag is the placeholder inside a unit rule's template where the
// original custom tag (the dynamic content) is re-inserted.
const SlotTag = "webml:slot"

// ContentTag is the placeholder inside a page rule's template where the
// skeleton's body content lands.
const ContentTag = "webml:content"

// PageRule transforms the overall page grid of skeletons with a matching
// layout category ("multi-frame pages, two-columns pages, three-columns
// pages, and so on").
type PageRule struct {
	// Layout matches the skeleton's data-layout attribute; "" matches
	// skeletons with no (or an unmatched) layout as the default rule.
	Layout string
	// Template is markup containing one <webml:content/> placeholder.
	// The token ${title} is replaced with the page title.
	Template string
}

// UnitRule produces the presentation markup of one unit kind; the
// original custom tag survives inside as the dynamic slot.
type UnitRule struct {
	// Kind is the unit kind ("data", "index", ...) whose tags match.
	Kind string
	// Template is markup containing one <webml:slot/> placeholder. The
	// token ${id} is replaced with the unit ID, ${name} with its display
	// name.
	Template string
}

// RuleSet is one complete presentation: page rules, unit rules and the
// CSS they rely on. Three rule sets covered all 556 Acer-Euro pages.
type RuleSet struct {
	Name      string
	PageRules []PageRule
	UnitRules []UnitRule
	// CSS is the style sheet injected into styled pages. Build it with
	// ComposeCSS to keep it modularized per unit kind.
	CSS string
}

// Apply transforms a skeleton into a final template. The input tree is
// not modified.
func (rs *RuleSet) Apply(skeleton *dom.Node) (*dom.Node, error) {
	return rs.apply(skeleton.Clone(), map[string]*dom.Node{})
}

// apply styles page in place and returns it. parsed maps a unit rule's
// markup to its tree, so each rule is parsed once per parsed map.
func (rs *RuleSet) apply(page *dom.Node, parsed map[string]*dom.Node) (*dom.Node, error) {
	// Unit rules first: wrap each custom tag, found in one walk, into the
	// markup of each rule of its kind (the first rule outermost).
	for _, tag := range page.FindAll(dom.ByTagPrefix("webml:")) {
		for _, ur := range rs.UnitRules {
			if tag.Tag != "webml:"+ur.Kind+"Unit" {
				continue
			}
			tpl := parsed[ur.Template]
			if tpl == nil {
				var err error
				if tpl, err = dom.Parse(ur.Template); err != nil {
					return nil, fmt.Errorf("style: unit rule for kind %q: %w", ur.Kind, err)
				}
				if tpl.Find(dom.ByTag(SlotTag)) == nil {
					return nil, fmt.Errorf("style: unit rule for kind %q lacks <%s/>", ur.Kind, SlotTag)
				}
				parsed[ur.Template] = tpl
			}
			wrapUnit(tpl, tag)
		}
	}

	// Page rule second: wrap the body content into the real grid.
	layout := page.AttrOr("data-layout", "")
	pr := rs.pageRule(layout)
	if pr != nil {
		if err := applyPageRule(*pr, page); err != nil {
			return nil, err
		}
	}

	// Inject the style sheet.
	if rs.CSS != "" {
		if head := page.Find(dom.ByTag("head")); head != nil {
			styleEl := dom.NewElement("style")
			styleEl.AppendChild(dom.NewText(rs.CSS))
			head.AppendChild(styleEl)
		}
	}
	page.SetAttr("data-style", rs.Name)
	return page, nil
}

func (rs *RuleSet) pageRule(layout string) *PageRule {
	var def *PageRule
	for i := range rs.PageRules {
		if rs.PageRules[i].Layout == layout {
			return &rs.PageRules[i]
		}
		if rs.PageRules[i].Layout == "" {
			def = &rs.PageRules[i]
		}
	}
	return def
}

// wrapUnit puts a copy of a parsed unit rule where tag is and moves tag
// into the copy's slot. ${id} and ${name} are substituted in the copy's
// text and attribute values, so a unit name is always text, never markup.
func wrapUnit(rule, tag *dom.Node) {
	id := tag.AttrOr("id", "")
	name := tag.AttrOr("data-name", id)
	subst := func(s string) string {
		return strings.ReplaceAll(strings.ReplaceAll(s, "${id}", id), "${name}", name)
	}
	w := rule.Clone()
	w.Walk(func(n *dom.Node) bool {
		n.Data = subst(n.Data)
		for i := range n.Attrs {
			n.Attrs[i].Value = subst(n.Attrs[i].Value)
		}
		return true
	})
	tag.ReplaceWith(w)
	w.Find(dom.ByTag(SlotTag)).ReplaceWith(tag)
}

// applyPageRule replaces the page's body content with the rule template,
// re-inserting the original content at the <webml:content/> placeholder.
func applyPageRule(pr PageRule, page *dom.Node) error {
	body := page.Find(dom.ByTag("body"))
	if body == nil {
		return fmt.Errorf("style: skeleton has no <body>")
	}
	title := ""
	if t := page.Find(dom.ByTag("title")); t != nil {
		title = t.Text()
	}
	markup := strings.ReplaceAll(pr.Template, "${title}", dom.EscapeText(title))
	tpl, err := dom.Parse(markup)
	if err != nil {
		return fmt.Errorf("style: page rule for layout %q: %w", pr.Layout, err)
	}
	slot := tpl.Find(dom.ByTag(ContentTag))
	if slot == nil {
		return fmt.Errorf("style: page rule for layout %q lacks <%s/>", pr.Layout, ContentTag)
	}
	content := dom.NewElement("div")
	content.SetAttr("class", "page-content")
	for _, c := range body.Children {
		content.AppendChild(c)
	}
	slot.ReplaceWith(content)
	body.Children = nil
	body.AppendChild(tpl)
	return nil
}

// CompileTemplates applies the rule set to every template in the
// repository, replacing the skeletons with final templates — the
// compile-time mode, "more efficient, because no template transformation
// is required at runtime". It returns the number of templates rewritten.
func CompileTemplates(repo *descriptor.Repository, rs *RuleSet) (int, error) {
	parsed := map[string]*dom.Node{}
	n := 0
	for _, name := range repo.TemplateNames() {
		src, _ := repo.Template(name)
		if err := rs.restyle(repo, name, src, parsed); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// restyle styles the parsed template src in place and stores it as name.
func (rs *RuleSet) restyle(repo *descriptor.Repository, name, src string, parsed map[string]*dom.Node) error {
	tree, err := dom.Parse(src)
	if err == nil {
		tree, err = rs.apply(tree, parsed)
	}
	if err != nil {
		return fmt.Errorf("style: template %q: %w", name, err)
	}
	repo.PutTemplate(name, tree.String())
	return nil
}

// CompileBySiteView applies a different rule set per site view — the
// Acer-Euro arrangement of Section 8: "one for the B2C site views, one
// for the B2B site views, and one for the internal content management
// site views". Pages of site views absent from the map use def (nil def
// leaves them unstyled). It returns how many templates each rule set
// styled, keyed by rule-set name.
func CompileBySiteView(repo *descriptor.Repository, bySiteView map[string]*RuleSet, def *RuleSet) (map[string]int, error) {
	counts := map[string]int{}
	parsed := map[string]*dom.Node{}
	for _, pd := range repo.Pages() {
		rs := bySiteView[pd.SiteView]
		if rs == nil {
			rs = def
		}
		if rs == nil {
			continue
		}
		src, ok := repo.Template(pd.Template)
		if !ok {
			return counts, fmt.Errorf("style: page %q has no template %q", pd.ID, pd.Template)
		}
		if err := rs.restyle(repo, pd.Template, src, parsed); err != nil {
			return counts, err
		}
		counts[rs.Name]++
	}
	return counts, nil
}

// DeviceProfile selects a rule set for matching user agents.
type DeviceProfile struct {
	Name string
	// UAContains: the profile matches when any of these substrings
	// appears in the User-Agent header (case-insensitive).
	UAContains []string
	Rules      *RuleSet
}

// RuntimeStyler applies presentation rules per request, choosing the
// rule set "based on the user agent declared in the HTTP request" —
// the multi-device mode of Section 5. It implements render.Styler.
type RuntimeStyler struct {
	Profiles []DeviceProfile
	// Default is used when no profile matches.
	Default *RuleSet
}

// Variant names the rule set chosen for a user agent (one render program
// per variant).
func (s *RuntimeStyler) Variant(userAgent string) string {
	return s.ruleSet(userAgent).Name
}

// Apply transforms the template for the requesting device.
func (s *RuntimeStyler) Apply(tpl *dom.Node, userAgent string) (*dom.Node, error) {
	return s.ruleSet(userAgent).Apply(tpl)
}

func (s *RuntimeStyler) ruleSet(userAgent string) *RuleSet {
	ua := strings.ToLower(userAgent)
	for _, p := range s.Profiles {
		for _, sub := range p.UAContains {
			if strings.Contains(ua, strings.ToLower(sub)) {
				return p.Rules
			}
		}
	}
	return s.Default
}
