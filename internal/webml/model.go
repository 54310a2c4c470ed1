// Package webml implements the Web Modelling Language metamodel
// (Sections 1 and 3 of the paper): site views, areas, pages, content
// units, operation units, and the links that carry parameters between
// them. A Model is the input of the code generator and the conceptual
// reference the runtime uses for cache invalidation.
package webml

import (
	"strings"
	"sync"

	"webmlgo/internal/er"
)

// UnitKind names a unit type. The 11 core kinds are the ones the paper
// reports for the Acer-Euro application ("data, index, multidata,
// multi-choice, scroller, entry, create, delete, modify, connect,
// disconnect"); additional kinds may be registered as plug-in units
// (Section 7).
type UnitKind string

// The 11 basic WebML unit kinds.
const (
	DataUnit        UnitKind = "data"
	IndexUnit       UnitKind = "index"
	MultidataUnit   UnitKind = "multidata"
	MultichoiceUnit UnitKind = "multichoice"
	ScrollerUnit    UnitKind = "scroller"
	EntryUnit       UnitKind = "entry"
	CreateUnit      UnitKind = "create"
	DeleteUnit      UnitKind = "delete"
	ModifyUnit      UnitKind = "modify"
	ConnectUnit     UnitKind = "connect"
	DisconnectUnit  UnitKind = "disconnect"
)

// CoreUnitKinds lists the 11 built-in kinds in the order the paper
// enumerates them.
var CoreUnitKinds = []UnitKind{
	DataUnit, IndexUnit, MultidataUnit, MultichoiceUnit, ScrollerUnit,
	EntryUnit, CreateUnit, DeleteUnit, ModifyUnit, ConnectUnit, DisconnectUnit,
}

// IsOperation reports whether the kind is an operation unit (executes a
// state change and is reached by links, contributing no markup).
func (k UnitKind) IsOperation() bool {
	switch k {
	case CreateUnit, DeleteUnit, ModifyUnit, ConnectUnit, DisconnectUnit:
		return true
	}
	if sp, ok := LookupPlugin(k); ok {
		return sp.Operation
	}
	return false
}

// IsContent reports whether the kind is a content unit displayed in pages.
func (k UnitKind) IsContent() bool {
	switch k {
	case DataUnit, IndexUnit, MultidataUnit, MultichoiceUnit, ScrollerUnit, EntryUnit:
		return true
	}
	if sp, ok := LookupPlugin(k); ok {
		return !sp.Operation
	}
	return false
}

// isKnown reports whether the kind is core or registered.
func (k UnitKind) isKnown() bool {
	for _, c := range CoreUnitKinds {
		if c == k {
			return true
		}
	}
	_, ok := LookupPlugin(k)
	return ok
}

// Condition is one selector conjunct restricting the objects a content
// unit displays: Attr Op (Value | input parameter Param).
type Condition struct {
	Attr string
	// Op is one of = <> < <= > >= LIKE.
	Op string
	// Param, when non-empty, binds the comparison value from the unit's
	// named input parameter at request time.
	Param string
	// Value is a literal comparison value, used when Param is empty.
	Value interface{}
}

// OrderKey is one ORDER BY term of a unit's selector.
type OrderKey struct {
	Attr string
	Desc bool
}

// Nesting describes one level of a hierarchical index unit (Figure 1's
// Issues&Papers unit nests Paper inside Issue via relationship roles).
type Nesting struct {
	// Relationship is the relationship (or role) name to traverse from the
	// parent level's entity.
	Relationship string
	// Display lists the attributes shown at this level.
	Display []string
	// Order sorts the level.
	Order []OrderKey
	// Nest is the next deeper level, or nil.
	Nest *Nesting
}

// Field is one input field of an entry unit.
type Field struct {
	Name     string
	Type     er.AttrType
	Required bool
}

// CacheSpec marks a content unit as cached in the business-tier bean
// cache (Section 6: "developers can tag any WebML content unit in the
// conceptual model of the application as cached").
type CacheSpec struct {
	Enabled bool
	// TTLSeconds bounds staleness; 0 means no time bound (invalidation
	// only through the model-derived dependency index).
	TTLSeconds int
}

// Unit is a WebML unit: either a content unit placed in a page or an
// operation unit placed between pages.
type Unit struct {
	ID   string
	Name string
	Kind UnitKind

	// Entity is the source/target entity (content units and
	// create/delete/modify operations).
	Entity string
	// Relationship is the relationship affected by connect/disconnect, or
	// traversed by a relationship-scoped index.
	Relationship string
	// Display lists the attributes a content unit renders.
	Display []string
	// Selector restricts the displayed/affected objects.
	Selector []Condition
	// Order sorts multi-row content units.
	Order []OrderKey
	// PageSize is the scroller unit's window size.
	PageSize int
	// Fields are the entry unit's form fields.
	Fields []Field
	// Set maps attribute -> input parameter name for create/modify units.
	Set map[string]string
	// Nest is the hierarchical structure of a hierarchical index unit.
	Nest *Nesting
	// Cache is the optional conceptual cache tag.
	Cache *CacheSpec
	// Props carries plug-in unit configuration.
	Props map[string]string

	page *Page // back-pointer, set by the builder/loader; nil for operations
}

// Page returns the page containing a content unit, or nil for operations.
func (u *Unit) Page() *Page { return u.page }

// LinkKind classifies links.
type LinkKind int

const (
	// NormalLink is a user-navigable anchor between units/pages.
	NormalLink LinkKind = iota
	// TransportLink carries parameters without user interaction (dashed
	// arrow in Figure 1).
	TransportLink
	// AutomaticLink is navigated by the system on page entry.
	AutomaticLink
	// OKLink is followed after an operation succeeds.
	OKLink
	// KOLink is followed after an operation fails.
	KOLink
)

// String names the link kind.
func (k LinkKind) String() string {
	switch k {
	case NormalLink:
		return "normal"
	case TransportLink:
		return "transport"
	case AutomaticLink:
		return "automatic"
	case OKLink:
		return "ok"
	case KOLink:
		return "ko"
	}
	return "unknown"
}

// LinkParam maps an output of the link source to an input parameter of
// the link target (the "parameter propagation" of Section 3).
type LinkParam struct {
	// Source is the source unit's output name: an attribute of the
	// current object ("oid", "title"), or an entry field name.
	Source string
	// Target is the destination unit's input parameter name.
	Target string
}

// Link connects pages, content units, and operations.
type Link struct {
	ID     string
	Kind   LinkKind
	From   string // unit or page ID
	To     string // unit, page, or operation ID
	Params []LinkParam
	// Label is the anchor text for normal links.
	Label string
}

// Page is one application page containing content units.
type Page struct {
	ID       string
	Name     string
	Units    []*Unit
	Landmark bool
	// Layout names the page's layout category for the presentation rules
	// of Section 5 ("multi-frame pages, two-columns pages, ...").
	Layout string

	siteView *SiteView
	area     *Area
}

// SiteView returns the owning site view.
func (p *Page) SiteView() *SiteView { return p.siteView }

// Area returns the owning area, or nil for top-level pages.
func (p *Page) Area() *Area { return p.area }

// Area groups pages hierarchically inside a site view.
type Area struct {
	ID    string
	Name  string
	Pages []*Page
	Areas []*Area
}

// SiteView is one hypertext targeted at a user group or access device.
type SiteView struct {
	ID    string
	Name  string
	Pages []*Page
	Areas []*Area
	// Home is the ID of the site view's home page.
	Home string
	// Protected marks site views requiring an authenticated session.
	Protected bool
}

// AllPages returns every page of the site view, including area pages.
func (sv *SiteView) AllPages() []*Page { return allPages([]*SiteView{sv}) }

// allPages lists the site views' pages in AllPages order, in a slice of
// their size.
func allPages(svs []*SiteView) []*Page {
	n := 0
	for _, sv := range svs {
		sv.eachPage(func(*Page, *Area) { n++ })
	}
	out := make([]*Page, 0, n)
	for _, sv := range svs {
		sv.eachPage(func(p *Page, _ *Area) { out = append(out, p) })
	}
	return out
}

// eachPage calls f on every page of the site view with the area holding
// it (nil for the site view's own pages): its own pages first, then its
// areas', depth first.
func (sv *SiteView) eachPage(f func(*Page, *Area)) {
	for _, p := range sv.Pages {
		f(p, nil)
	}
	eachArea(sv.Areas, func(a *Area) {
		for _, p := range a.Pages {
			f(p, a)
		}
	})
}

// eachArea calls f on every area under areas, depth first.
func eachArea(areas []*Area, f func(*Area)) {
	for _, a := range areas {
		f(a)
		eachArea(a.Areas, f)
	}
}

// Model is a complete WebML specification: the ER data model plus the
// hypertext (site views, operations, links).
// A model that passed Validate is sealed (Builder.Build and
// UnmarshalModel return one) and code generation does not check it again.
// A sealed model is read-only: whoever changes it calls Validate again.
type Model struct {
	Name       string
	Data       *er.Schema
	SiteViews  []*SiteView
	Operations []*Unit
	Links      []*Link

	index     map[string]interface{} // id -> *Page | *Unit | *SiteView | *Link
	linksFrom map[string][]*Link
	linksTo   map[string][]*Link
	seal      *seal // nil unless the last Validate passed
}

// seal memoizes what was derived under one successful Validate.
type seal struct {
	once    sync.Once
	derived any
	err     error
}

// Sealed reports whether the model passed its last Validate.
func (m *Model) Sealed() bool { return m.seal != nil }

// Derive returns build's result, computed once per validation of a sealed
// model (else on every call). It holds code generation's artifacts.
func (m *Model) Derive(build func() (any, error)) (any, error) {
	s := m.seal
	if s == nil {
		return build()
	}
	s.once.Do(func() { s.derived, s.err = build() })
	return s.derived, s.err
}

// buildIndex populates the ID lookup table; Validate calls it.
func (m *Model) buildIndex() {
	n := len(m.SiteViews) + len(m.Operations) + len(m.Links)
	for _, sv := range m.SiteViews {
		sv.eachPage(func(p *Page, _ *Area) { n += 1 + len(p.Units) })
	}
	m.index = make(map[string]interface{}, n)
	for _, sv := range m.SiteViews {
		m.index[sv.ID] = sv
		// Back-pointers (pages loaded from XML lack them).
		sv.eachPage(func(p *Page, a *Area) {
			m.index[p.ID] = p
			p.siteView, p.area = sv, a
			for _, u := range p.Units {
				m.index[u.ID] = u
				u.page = p
			}
		})
	}
	for _, op := range m.Operations {
		m.index[op.ID] = op
	}
	m.linksFrom = make(map[string][]*Link, len(m.Links))
	m.linksTo = make(map[string][]*Link, len(m.Links))
	for _, l := range m.Links {
		m.index[l.ID] = l
		m.linksFrom[l.From] = append(m.linksFrom[l.From], l)
		m.linksTo[l.To] = append(m.linksTo[l.To], l)
	}
}

// Lookup resolves any model element by ID.
func (m *Model) Lookup(id string) interface{} {
	if m.index == nil {
		m.buildIndex()
	}
	return m.index[id]
}

// PageByID returns the page with the given ID, or nil.
func (m *Model) PageByID(id string) *Page {
	p, _ := m.Lookup(id).(*Page)
	return p
}

// UnitByID returns the unit (content or operation) with the given ID.
func (m *Model) UnitByID(id string) *Unit {
	u, _ := m.Lookup(id).(*Unit)
	return u
}

// AllPages returns every page in every site view.
func (m *Model) AllPages() []*Page { return allPages(m.SiteViews) }

// AllContentUnits returns every content unit in every page.
func (m *Model) AllContentUnits() []*Unit {
	pages := m.AllPages()
	n := 0
	for _, p := range pages {
		n += len(p.Units)
	}
	out := make([]*Unit, 0, n)
	for _, p := range pages {
		out = append(out, p.Units...)
	}
	return out
}

// LinksFrom returns the links whose source is the given element ID.
func (m *Model) LinksFrom(id string) []*Link {
	if m.linksFrom == nil {
		m.buildIndex()
	}
	return m.linksFrom[id]
}

// LinksTo returns the links whose destination is the given element ID.
func (m *Model) LinksTo(id string) []*Link {
	if m.linksTo == nil {
		m.buildIndex()
	}
	return m.linksTo[id]
}

// UnitKindsUsed returns the distinct unit kinds appearing in the model,
// in first-use order. Its length is the number of generic unit services
// the runtime needs (11 for Acer-Euro).
func (m *Model) UnitKindsUsed() []UnitKind {
	seen := map[UnitKind]bool{}
	var out []UnitKind
	add := func(k UnitKind) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for _, u := range m.AllContentUnits() {
		add(u.Kind)
	}
	for _, op := range m.Operations {
		add(op.Kind)
	}
	return out
}

// Stats summarizes the model's size the way Section 8 reports it.
type Stats struct {
	SiteViews  int
	Pages      int
	Units      int // content units
	Operations int
	Links      int
	UnitKinds  int
}

// Stats computes the model's size statistics.
func (m *Model) Stats() Stats {
	return Stats{
		SiteViews:  len(m.SiteViews),
		Pages:      len(m.AllPages()),
		Units:      len(m.AllContentUnits()),
		Operations: len(m.Operations),
		Links:      len(m.Links),
		UnitKinds:  len(m.UnitKindsUsed()),
	}
}

func equalFold(a, b string) bool { return strings.EqualFold(a, b) }
