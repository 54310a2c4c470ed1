// Package codegen implements WebRatio's customisable code generators
// (Section 1): it transforms the ER specification into relational table
// definitions and the WebML specification into page template skeletons,
// unit and page descriptors, and the Controller's configuration file.
// Regeneration preserves descriptors marked optimized (Section 6).
package codegen

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/er"
	"webmlgo/internal/webml"
)

// Generator produces the runtime artifacts of one model.
type Generator struct {
	Model   *webml.Model
	Mapping *er.Mapping
}

// New returns a generator for the model, validating it first unless it
// is sealed.
func New(m *webml.Model) (*Generator, error) {
	if !m.Sealed() {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	mapping, err := er.NewMapping(m.Data)
	if err != nil {
		return nil, err
	}
	return &Generator{Model: m, Mapping: mapping}, nil
}

// Artifacts is everything the generator emits.
type Artifacts struct {
	// DDL creates the relational schema.
	DDL []string
	// Repo holds unit/page descriptors, the controller config, and page
	// template skeletons (pre-styling).
	Repo *descriptor.Repository
	// Stats quantifies the generated artifacts.
	Stats Stats
}

// Stats reports artifact counts the way Section 8 of the paper does, for
// both the conventional (one class per page/unit) implementation and the
// generic-service implementation.
type Stats struct {
	SiteViews       int
	Pages           int
	ContentUnits    int
	Operations      int
	Queries         int // SQL statements carried by descriptors
	Templates       int
	Mappings        int
	UnitDescriptors int
	PageDescriptors int
	// ConventionalPageClasses / ConventionalUnitClasses are what a
	// hand-built MVC implementation would require (556 and 3068 for
	// Acer-Euro).
	ConventionalPageClasses int
	ConventionalUnitClasses int
	// GenericPageServices is always 1; GenericUnitServices is the number
	// of distinct unit kinds used (11 for Acer-Euro).
	GenericPageServices int
	GenericUnitServices int
}

// Generate returns the model's artifacts. A sealed model is generated
// once per validation; each call gets a copy whose repository has maps
// of its own, so one caller's styling and overrides reach no other.
func (g *Generator) Generate() (*Artifacts, error) {
	return g.Regenerate(nil)
}

// Regenerate is Generate, then puts back from prev every unit descriptor
// of the model whose Optimized flag is set — the paper's rule that the
// code generator must not clobber hand-tuned queries or services.
func (g *Generator) Regenerate(prev *descriptor.Repository) (*Artifacts, error) {
	v, err := g.Model.Derive(func() (any, error) { return g.generate() })
	if err != nil {
		return nil, err
	}
	memo := v.(*Artifacts)
	art := &Artifacts{DDL: slices.Clone(memo.DDL), Repo: memo.Repo.Clone(), Stats: memo.Stats}
	if prev != nil {
		for _, old := range prev.Units() {
			if old.Optimized && art.Repo.Unit(old.ID) != nil {
				art.Repo.PutUnit(old)
			}
		}
		art.Stats = g.stats(art.Repo)
	}
	return art, nil
}

// run is one generation. It builds each dependency tag and controller
// action once and shares the string among the descriptors naming it.
type run struct {
	*Generator
	// actions is keyed by page or operation ID: the model's IDs are one
	// namespace.
	entityTags, relTags, tables, actions map[string]string
}

// memo returns m[k], computing it with f on first use.
func memo(m map[string]string, k string, f func(string) string) string {
	v, ok := m[k]
	if !ok {
		v = f(k)
		m[k] = v
	}
	return v
}

func (r *run) entityDep(e string) string   { return memo(r.entityTags, e, descriptor.EntityDep) }
func (r *run) relDep(rel string) string    { return memo(r.relTags, rel, descriptor.RelDep) }
func (r *run) table(e string) string       { return memo(r.tables, e, r.Mapping.EntityTable) }
func (r *run) pageAction(id string) string { return memo(r.actions, id, PageAction) }
func (r *run) opAction(id string) string   { return memo(r.actions, id, OperationAction) }

// generate produces all artifacts from scratch.
func (g *Generator) generate() (*Artifacts, error) {
	r := &run{Generator: g, entityTags: map[string]string{}, relTags: map[string]string{},
		tables: map[string]string{}, actions: map[string]string{}}
	repo := descriptor.NewRepository()
	art := &Artifacts{Repo: repo}

	art.DDL = g.Mapping.DDL()
	art.DDL = append(art.DDL, g.orderedIndexDDL()...)

	// Unit descriptors.
	for _, u := range append(g.Model.AllContentUnits(), g.Model.Operations...) {
		d, err := r.unitDescriptor(u)
		if err != nil {
			return nil, err
		}
		repo.PutUnit(d)
	}

	// Page descriptors + template skeletons. The landmark menu of a site
	// view is computed once and shared by all its pages.
	for _, sv := range g.Model.SiteViews {
		pages := sv.AllPages()
		var menu []descriptor.MenuItem
		for _, lp := range pages {
			if lp.Landmark {
				menu = append(menu, descriptor.MenuItem{
					Action: r.pageAction(lp.ID), Label: lp.Name,
				})
			}
		}
		for _, p := range pages {
			pd := r.pageDescriptor(sv, p)
			pd.Menu = menu
			repo.PutPage(pd)
			repo.PutTemplate(pd.Template, g.Skeleton(p))
		}
	}

	// Controller configuration.
	cfg, err := r.controllerConfig()
	if err != nil {
		return nil, err
	}
	repo.SetConfig(cfg)

	art.Stats = g.stats(repo)
	return art, nil
}

// orderedIndexDDL emits one ordered (range-scan) index per (entity,
// attribute) pair that any unit sorts by or range-restricts, so the
// generated queries' ORDER BY and inequality selectors have an access
// path.
func (g *Generator) orderedIndexDDL() []string {
	type key struct{ table, col string }
	seen := map[key]bool{}
	add := func(entity, attr string) {
		if entity == "" || attr == "" || strings.EqualFold(attr, "oid") {
			return
		}
		seen[key{g.Mapping.EntityTable(entity), strings.ToLower(attr)}] = true
	}
	for _, u := range g.Model.AllContentUnits() {
		for _, o := range u.Order {
			add(u.Entity, o.Attr)
		}
		for _, c := range u.Selector {
			switch c.Op {
			case "<", "<=", ">", ">=":
				add(u.Entity, c.Attr)
			}
		}
		ent := u.Entity
		for n := u.Nest; n != nil; n = n.Nest {
			rel := g.Model.Data.Relationship(n.Relationship)
			if rel == nil {
				break
			}
			next := rel.To
			if strings.EqualFold(rel.To, ent) {
				next = rel.From
			}
			for _, o := range n.Order {
				add(next, o.Attr)
			}
			ent = next
		}
	}
	keys := make([]key, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int { return cmp.Or(strings.Compare(a.table, b.table), strings.Compare(a.col, b.col)) })
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("CREATE ORDERED INDEX ord_%s_%s ON %s(%s)", k.table, k.col, k.table, k.col))
	}
	return out
}

// unitDescriptor builds the descriptor of a content unit or an operation.
func (r *run) unitDescriptor(u *webml.Unit) (*descriptor.Unit, error) {
	d := &descriptor.Unit{ID: u.ID, Kind: string(u.Kind), Entity: u.Entity}
	if u.Cache != nil && u.Cache.Enabled && !u.Kind.IsOperation() {
		d.Cache = &descriptor.CachePolicy{Enabled: true, TTLSeconds: u.Cache.TTLSeconds}
	}
	for _, k := range sortedSet(u.Props) { // sorted: the same descriptor every run
		d.Props = append(d.Props, descriptor.Prop{Name: k, Value: u.Props[k]})
	}
	if _, isPlugin := webml.LookupPlugin(u.Kind); isPlugin {
		// Plug-ins carry their own props; no SQL is generated.
		return d, nil
	}
	switch u.Kind {
	case webml.EntryUnit:
		for _, f := range u.Fields {
			d.Fields = append(d.Fields, descriptor.FieldSpec{
				Name: f.Name, Type: f.Type.String(), Required: f.Required,
			})
		}
		return d, nil
	case webml.CreateUnit, webml.ModifyUnit:
		return d, r.buildWrite(u, d)
	case webml.DeleteUnit:
		return d, r.buildDelete(u, d)
	case webml.ConnectUnit, webml.DisconnectUnit:
		return d, r.buildConnect(u, d)
	}
	return d, r.buildContentQuery(u, d)
}

func (r *run) pageDescriptor(sv *webml.SiteView, p *webml.Page) *descriptor.Page {
	pd := &descriptor.Page{
		ID: p.ID, Name: p.Name, SiteView: sv.ID,
		Layout: p.Layout, Template: p.ID, Protected: sv.Protected,
	}
	inPage := make(map[string]bool, len(p.Units))
	pd.Units = make([]descriptor.UnitRef, len(p.Units))
	for i, u := range p.Units {
		pd.Units[i] = descriptor.UnitRef{ID: u.ID}
		inPage[u.ID] = true
	}
	// Only links leaving this page's units matter; the model's link index
	// keeps this pass linear in the page's out-degree, not in the total
	// number of links (the quadratic trap at 556+ pages).
	for _, u := range p.Units {
		for _, l := range r.Model.LinksFrom(u.ID) {
			switch {
			case (l.Kind == webml.TransportLink || l.Kind == webml.AutomaticLink) && inPage[l.To]:
				e := descriptor.Edge{From: l.From, To: l.To}
				for _, pm := range l.Params {
					e.Params = append(e.Params, descriptor.EdgeParam{Source: pm.Source, Target: pm.Target})
				}
				pd.Edges = append(pd.Edges, e)
			case l.Kind == webml.NormalLink:
				// Normal links from this page's units become anchors the
				// View renders; their targets resolve to Controller actions.
				action, err := r.linkTargetAction(l)
				if err != nil {
					continue
				}
				a := descriptor.Anchor{FromUnit: l.From, Action: action, Label: l.Label}
				for _, pm := range l.Params {
					a.Params = append(a.Params, descriptor.EdgeParam{Source: pm.Source, Target: pm.Target})
				}
				pd.Anchors = append(pd.Anchors, a)
			}
		}
	}
	return pd
}

// PageAction and OperationAction build the controller action names.
func PageAction(pageID string) string { return "page/" + pageID }

// OperationAction builds the action name of an operation.
func OperationAction(opID string) string { return "op/" + opID }

func (r *run) controllerConfig() (*descriptor.Config, error) {
	pages := r.Model.AllPages()
	cfg := &descriptor.Config{App: r.Model.Name, Mappings: make([]descriptor.Mapping, 0, len(pages)+len(r.Model.Operations))}
	for _, p := range pages {
		cfg.Mappings = append(cfg.Mappings, descriptor.Mapping{
			Action: r.pageAction(p.ID), Type: "page", Page: p.ID, Template: p.ID,
		})
	}
	for _, op := range r.Model.Operations {
		m := descriptor.Mapping{Action: r.opAction(op.ID), Type: "operation"}
		// When the operation is fed by an entry unit, the validation
		// service checks the submitted parameters against that unit's
		// field specifications before executing.
		for _, in := range r.Model.LinksTo(op.ID) {
			if src := r.Model.UnitByID(in.From); src != nil && src.Kind == webml.EntryUnit {
				m.Validate = src.ID
				break
			}
		}
		for _, l := range r.Model.LinksFrom(op.ID) {
			target, err := r.linkTargetAction(l)
			if err != nil {
				return nil, err
			}
			var fwd []descriptor.ForwardParam
			for _, pm := range l.Params {
				fwd = append(fwd, descriptor.ForwardParam{Source: pm.Source, Target: pm.Target})
			}
			switch l.Kind {
			case webml.OKLink:
				m.OK, m.OKParams = target, fwd
			case webml.KOLink:
				m.KO, m.KOParams = target, fwd
			}
		}
		if m.KO == "" {
			// The paper's default: on failure, return whence you came is a
			// designer choice; absent a KO link we fail back to the OK
			// target so the user is never stranded.
			m.KO = m.OK
		}
		cfg.Mappings = append(cfg.Mappings, m)
	}
	return cfg, nil
}

func (r *run) linkTargetAction(l *webml.Link) (string, error) {
	switch t := r.Model.Lookup(l.To).(type) {
	case *webml.Page:
		return r.pageAction(t.ID), nil
	case *webml.Unit:
		if t.Kind.IsOperation() {
			return r.opAction(t.ID), nil
		}
		if t.Page() != nil {
			return r.pageAction(t.Page().ID), nil
		}
		return "", fmt.Errorf("codegen: link %q targets unplaced unit %q", l.ID, l.To)
	}
	return "", fmt.Errorf("codegen: link %q has unresolvable target %q", l.ID, l.To)
}

func (g *Generator) stats(repo *descriptor.Repository) Stats {
	ms := g.Model.Stats()
	st := Stats{
		SiteViews:               ms.SiteViews,
		Pages:                   ms.Pages,
		ContentUnits:            ms.Units,
		Operations:              ms.Operations,
		Templates:               ms.Pages,
		ConventionalPageClasses: ms.Pages,
		ConventionalUnitClasses: ms.Units + ms.Operations,
		GenericPageServices:     1,
		GenericUnitServices:     ms.UnitKinds,
	}
	st.UnitDescriptors, st.PageDescriptors, _ = repo.Counts()
	st.Mappings = len(repo.Config().Mappings)
	for _, u := range repo.Units() {
		if u.Query != "" {
			st.Queries++
		}
		if u.CountQuery != "" {
			st.Queries++
		}
		st.Queries += len(u.Levels)
	}
	return st
}

// String renders the stats as the artifact table of Section 8.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "site views: %d, pages: %d, units: %d, operations: %d, SQL queries: %d\n",
		s.SiteViews, s.Pages, s.ContentUnits, s.Operations, s.Queries)
	fmt.Fprintf(&b, "conventional MVC: %d page classes + %d unit classes\n",
		s.ConventionalPageClasses, s.ConventionalUnitClasses)
	fmt.Fprintf(&b, "generic services: %d page service (+%d page descriptors) and %d unit services (+%d unit descriptors)",
		s.GenericPageServices, s.PageDescriptors, s.GenericUnitServices, s.UnitDescriptors)
	return b.String()
}
