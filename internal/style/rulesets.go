package style

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// UnitCSS returns the modular CSS rule block for one unit kind — the
// Section 5 practice of designing "a set of rules for each WebML unit,
// by identifying the different graphic elements needed to present a
// certain kind of unit... and assigning to each element the proper
// graphic attributes using CSS".
func UnitCSS(kind string, accent string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* %s unit */\n", kind)
	fmt.Fprintf(&b, ".webml-%s { border: 1px solid %s; padding: 8px; margin: 6px 0; }\n", kind, accent)
	fmt.Fprintf(&b, ".webml-%s .unit-title { color: %s; font-weight: bold; }\n", kind, accent)
	switch kind {
	case "data":
		b.WriteString(".webml-data dt { font-weight: bold; }\n.webml-data dd { margin: 0 0 4px 12px; }\n")
	case "index", "scroller":
		fmt.Fprintf(&b, ".webml-%s li { list-style: square; margin: 2px 0; }\n", kind)
	case "multidata":
		b.WriteString(".webml-multidata table { border-collapse: collapse; }\n.webml-multidata th, .webml-multidata td { border: 1px solid #ccc; padding: 4px; }\n")
	case "multichoice":
		b.WriteString(".webml-multichoice label { display: block; }\n")
	case "entry":
		b.WriteString(".webml-entry label { display: block; margin: 4px 0; }\n.webml-field-error { color: #b00; }\n")
	}
	return b.String()
}

// ComposeCSS assembles a complete, modular style sheet: page-level rules
// plus one block per unit kind.
func ComposeCSS(name, accent string, kinds []string) string {
	sorted := append([]string(nil), kinds...)
	sort.Strings(sorted)
	var b strings.Builder
	fmt.Fprintf(&b, "/* %s style sheet (generated) */\n", name)
	fmt.Fprintf(&b, "body { font-family: sans-serif; margin: 0; }\n")
	fmt.Fprintf(&b, ".site-header { background: %s; color: #fff; padding: 10px 16px; }\n", accent)
	b.WriteString(".site-main { padding: 12px 16px; }\n.webml-error { background: #fee; color: #900; padding: 6px; }\n")
	for _, k := range sorted {
		b.WriteString(UnitCSS(k, accent))
	}
	return b.String()
}

// titledBox wraps a unit into a titled box; the custom tag stays inside
// as the dynamic slot.
func titledBox(kind string) string {
	return `<div class="unit-box unit-box-` + kind + `">` +
		`<div class="unit-title">${name}</div>` +
		`<webml:slot/></div>`
}

// coreContentKinds are the content kinds the built-in rule sets style.
var coreContentKinds = []string{"data", "index", "multidata", "multichoice", "scroller", "entry"}

// builtIn is a rule set whose unit rule for each core content kind is
// unit(kind).
func builtIn(name, css string, unit func(kind string) string, pages ...PageRule) *RuleSet {
	rs := &RuleSet{Name: name, PageRules: pages, CSS: css}
	for _, k := range coreContentKinds {
		rs.UnitRules = append(rs.UnitRules, UnitRule{Kind: k, Template: unit(k)})
	}
	return rs
}

// B2CRuleSet is the consumer-facing presentation (one of the three rule
// sets that styled all Acer-Euro site views).
func B2CRuleSet() *RuleSet {
	site := func(layout, main string) PageRule {
		return PageRule{Layout: layout, Template: `<div class="site">` +
			`<div class="site-header"><h1>${title}</h1></div>` +
			`<div class="` + main + `"><webml:content/></div>` +
			`<div class="site-footer">powered by the generated runtime</div></div>`}
	}
	return builtIn("b2c", ComposeCSS("b2c", "#1a4a7a", coreContentKinds), titledBox,
		site("two-column", "site-cols two-col"), site("", "site-main"))
}

// B2BRuleSet is the partner-extranet presentation: denser, no footer.
func B2BRuleSet() *RuleSet {
	return builtIn("b2b", ComposeCSS("b2b", "#345", coreContentKinds),
		func(k string) string { return `<div class="unit-box dense unit-box-` + k + `"><webml:slot/></div>` },
		PageRule{Template: `<div class="site b2b">` +
			`<div class="site-header b2b"><h1>${title}</h1></div>` +
			`<div class="site-main dense"><webml:content/></div></div>`})
}

// IntranetRuleSet is the internal content-management presentation.
func IntranetRuleSet() *RuleSet {
	return builtIn("intranet", ComposeCSS("intranet", "#664", coreContentKinds), titledBox,
		PageRule{Template: `<div class="site intranet">` +
			`<div class="site-header intranet"><h1>${title} (internal)</h1></div>` +
			`<div class="site-main"><webml:content/></div></div>`})
}

// MobileRuleSet is a compact presentation for small-screen user agents,
// exercising the Section 5 multi-device scenario.
func MobileRuleSet() *RuleSet {
	return builtIn("mobile", "/* mobile */ body { font-size: 14px; } .m-header { font-weight: bold; }\n",
		func(string) string { return `<div class="m-unit"><webml:slot/></div>` },
		PageRule{Template: `<div class="m-site">` +
			`<div class="m-header">${title}</div><webml:content/></div>`})
}

// MultiDevice returns a copy of def that serves mobile user agents with
// the mobile rule set and everything else with def.
func MultiDevice(def *RuleSet) *RuleSet {
	rs := *def
	rs.Devices = append(slices.Clip(def.Devices), DeviceProfile{Name: "mobile",
		UAContains: []string{"Mobile", "Android", "iPhone", "WAP"}, Rules: MobileRuleSet()})
	return &rs
}
