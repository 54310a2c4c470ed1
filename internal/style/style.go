// Package style implements the presentation management of Section 5:
// page layout rules and unit layout rules that transform the generated
// template skeletons into final page templates, with CSS factored out
// per unit kind. Like the paper's XSLT rules, a rule is a markup
// template: page rules wrap the skeleton's content into the real page
// grid, unit rules wrap each custom tag into its presentation markup
// while leaving the tag itself in place as the dynamic slot.
//
// A Styler parses and checks every rule of one rule set once and styles
// a page as its render program compiles. The set decides the mode
// (Section 5): its site views pick a set per page at compile time, and
// its device profiles pick one per request on the User-Agent header
// (multi-device). Either way each page is styled once per page program,
// and with device profiles once per device class.
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
	// SiteViews replaces the set for the pages of the listed site views
	// (keyed by site view ID): the Acer-Euro arrangement of one style
	// sheet per site-view group.
	SiteViews map[string]*RuleSet
	// Devices choose a set on the request's User-Agent, ahead of
	// SiteViews and the set itself: the first matching profile wins.
	// Each profile needs its own name, which keys its page programs.
	Devices []DeviceProfile
}

// rules is a rule set with its markup parsed and checked. The trees are
// only ever read (each use styles a copy), so concurrent compiles share them.
type rules struct {
	*RuleSet
	units   map[string][]*dom.Node // custom tag -> its unit rules, first outermost
	pages   map[string]*dom.Node   // layout -> its first page rule
	defPage *dom.Node              // the last default ("") page rule
}

// parseRules parses and checks every rule of rs.
func parseRules(rs *RuleSet) (*rules, error) {
	r := &rules{RuleSet: rs, units: map[string][]*dom.Node{}, pages: map[string]*dom.Node{}}
	for _, ur := range rs.UnitRules {
		tpl, err := parseRule(rs, "unit rule for kind", ur.Kind, ur.Template, SlotTag)
		if err != nil {
			return nil, err
		}
		r.units["webml:"+ur.Kind+"Unit"] = append(r.units["webml:"+ur.Kind+"Unit"], tpl)
	}
	for _, pr := range rs.PageRules {
		tpl, err := parseRule(rs, "page rule for layout", pr.Layout, pr.Template, ContentTag)
		if err != nil {
			return nil, err
		}
		if r.pages[pr.Layout] == nil {
			r.pages[pr.Layout] = tpl
		}
		if pr.Layout == "" {
			r.defPage = tpl
		}
	}
	return r, nil
}

// parseRule parses a rule's markup, which must hold the placeholder.
func parseRule(rs *RuleSet, what, key, markup, placeholder string) (*dom.Node, error) {
	tpl, err := dom.Parse(markup)
	if err == nil && tpl.Find(dom.ByTag(placeholder)) == nil {
		err = fmt.Errorf("lacks <%s/>", placeholder)
	}
	if err != nil {
		return nil, fmt.Errorf("style: rule set %q: %s %q: %w", rs.Name, what, key, err)
	}
	return tpl, nil
}

// style styles page in place.
func (r *rules) style(page *dom.Node) error {
	// Unit rules first: wrap each custom tag, found in one walk, into the
	// markup of each rule of its kind (the first rule outermost).
	for _, tag := range page.FindAll(dom.ByTagPrefix("webml:")) {
		for _, rule := range r.units[tag.Tag] {
			wrapUnit(rule, tag)
		}
	}

	// Page rule second: wrap the body content into the real grid.
	pr := r.pages[page.AttrOr("data-layout", "")]
	if pr == nil {
		pr = r.defPage
	}
	if pr != nil {
		if err := wrapPage(pr, page); err != nil {
			return err
		}
	}

	// Inject the style sheet.
	if r.CSS != "" {
		if head := page.Find(dom.ByTag("head")); head != nil {
			styleEl := dom.NewElement("style")
			styleEl.AppendChild(dom.NewText(r.CSS))
			head.AppendChild(styleEl)
		}
	}
	page.SetAttr("data-style", r.Name)
	return nil
}

// substitute copies a parsed rule with subst applied to its text and
// attribute values: what replaces a token is text, never parsed as markup.
// A text left empty goes, as the parser would not have made it.
func substitute(rule *dom.Node, subst func(string) string) *dom.Node {
	w := rule.Clone()
	w.Walk(func(n *dom.Node) bool {
		if n.Type == dom.TextNode {
			if n.Data = subst(n.Data); n.Data == "" {
				n.Parent.RemoveChild(n)
			}
		}
		for i := range n.Attrs {
			n.Attrs[i].Value = subst(n.Attrs[i].Value)
		}
		return true
	})
	return w
}

// wrapUnit puts a copy of a parsed unit rule, ${id} and ${name}
// substituted, where tag is and moves tag into the copy's slot.
func wrapUnit(rule, tag *dom.Node) {
	id := tag.AttrOr("id", "")
	name := tag.AttrOr("data-name", id)
	w := substitute(rule, func(s string) string {
		return strings.ReplaceAll(strings.ReplaceAll(s, "${id}", id), "${name}", name)
	})
	tag.ReplaceWith(w)
	w.Find(dom.ByTag(SlotTag)).ReplaceWith(tag)
}

// wrapPage replaces the page's body content with a copy of a parsed page
// rule, ${title} substituted, re-inserting the original content at the
// <webml:content/> placeholder.
func wrapPage(rule, page *dom.Node) error {
	body := page.Find(dom.ByTag("body"))
	if body == nil {
		return fmt.Errorf("style: skeleton has no <body>")
	}
	title := ""
	if t := page.Find(dom.ByTag("title")); t != nil {
		title = t.Text()
	}
	w := substitute(rule, func(s string) string { return strings.ReplaceAll(s, "${title}", title) })
	content := dom.NewElement("div")
	content.SetAttr("class", "page-content")
	for _, c := range body.Children {
		content.AppendChild(c)
	}
	w.Find(dom.ByTag(ContentTag)).ReplaceWith(content)
	body.Children = nil
	body.AppendChild(w)
	return nil
}

// CompileTemplates applies the rule set to every template in the
// repository, replacing the skeletons with final templates (what
// `webratio generate` writes out). It returns the number rewritten.
func CompileTemplates(repo *descriptor.Repository, rs *RuleSet) (int, error) {
	r, err := parseRules(rs)
	if err != nil {
		return 0, err
	}
	names := repo.TemplateNames()
	for n, name := range names {
		src, _ := repo.Template(name)
		tree, err := dom.Parse(src)
		if err == nil {
			err = r.style(tree)
		}
		if err != nil {
			return n, fmt.Errorf("style: template %q: %w", name, err)
		}
		repo.PutTemplate(name, tree.String())
	}
	return len(names), nil
}

// DeviceProfile selects a rule set for matching user agents.
type DeviceProfile struct {
	Name string
	// UAContains: the profile matches when any of these substrings
	// appears in the User-Agent header (case-insensitive).
	UAContains []string
	Rules      *RuleSet
}

// Styler styles pages as their render programs compile (render.Styler).
type Styler struct {
	rs     *RuleSet            // nil: unstyled
	parsed map[*RuleSet]*rules // rs and every set it names, parsed once
}

// NewStyler parses and checks every rule of rs, its site views' sets and
// its device profiles' sets, and refuses a device profile without a name
// or with a name another profile has. A nil rs styles nothing.
func NewStyler(rs *RuleSet) (*Styler, error) {
	s := &Styler{rs: rs, parsed: map[*RuleSet]*rules{}}
	if rs == nil {
		return s, nil
	}
	sets := []*RuleSet{rs}
	for _, sv := range rs.SiteViews {
		sets = append(sets, sv)
	}
	names := map[string]bool{}
	for _, d := range rs.Devices {
		if d.Name == "" || names[d.Name] {
			return nil, fmt.Errorf("style: rule set %q: device profile name %q is empty or repeated", rs.Name, d.Name)
		}
		names[d.Name] = true
		sets = append(sets, d.Rules)
	}
	for _, set := range sets {
		if set != nil && s.parsed[set] == nil {
			r, err := parseRules(set)
			if err != nil {
				return nil, err
			}
			s.parsed[set] = r
		}
	}
	return s, nil
}

// device returns the first device profile matching the user agent.
func (s *Styler) device(userAgent string) *DeviceProfile {
	if !s.VariesByUserAgent() {
		return nil
	}
	ua := strings.ToLower(userAgent)
	for i, p := range s.rs.Devices {
		for _, sub := range p.UAContains {
			if strings.Contains(ua, strings.ToLower(sub)) {
				return &s.rs.Devices[i]
			}
		}
	}
	return nil
}

// VariesByUserAgent reports whether the rule set has device profiles.
func (s *Styler) VariesByUserAgent() bool { return s.rs != nil && len(s.rs.Devices) > 0 }

// Variant names the device profile a user agent matches, and is ""
// otherwise: one render program per page and variant.
func (s *Styler) Variant(userAgent string) string {
	if d := s.device(userAgent); d != nil {
		return d.Name
	}
	return ""
}

// Style styles a page's parsed template in place with the matching
// device profile's set, else the page's site view's, else the set itself.
func (s *Styler) Style(pd *descriptor.Page, tpl *dom.Node, userAgent string) error {
	if s.rs == nil {
		return nil
	}
	rs := s.rs
	if d := s.device(userAgent); d != nil {
		rs = d.Rules
	} else if sv := s.rs.SiteViews[pd.SiteView]; sv != nil {
		rs = sv
	}
	if rs == nil {
		return nil
	}
	return s.parsed[rs].style(tpl)
}
