package webml

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"webmlgo/internal/er"
)

// ValidationError aggregates every problem found in a model.
type ValidationError struct {
	Problems []string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("webml: invalid model (%d problems): %s",
		len(e.Problems), strings.Join(e.Problems, "; "))
}

// Validate checks the whole model: the data schema, ID uniqueness, unit
// well-formedness against the schema, link endpoint compatibility, the
// operation OK/KO discipline, and acyclicity of each page's transport
// topology (required for the generic page service's topological unit
// ordering, Section 4). It seals a model that passes and unseals one that
// fails, dropping what was derived from it before.
func (m *Model) Validate() error {
	if validateHook != nil {
		validateHook()
	}
	m.seal = nil
	var problems []string
	addf := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	if m.Data == nil {
		addf("model has no data schema")
	} else if err := m.Data.Validate(); err != nil {
		addf("data schema: %v", err)
	}
	m.buildIndex()

	// ID uniqueness.
	ids := make(map[string]string, len(m.index))
	claim := func(id, what string) {
		if id == "" {
			addf("%s with empty ID", what)
			return
		}
		if prev, dup := ids[id]; dup {
			addf("duplicate ID %q (%s and %s)", id, prev, what)
			return
		}
		ids[id] = what
	}
	for _, sv := range m.SiteViews {
		claim(sv.ID, "site view")
		for _, p := range sv.AllPages() {
			claim(p.ID, "page")
			for _, u := range p.Units {
				claim(u.ID, "unit")
			}
		}
	}
	for _, op := range m.Operations {
		claim(op.ID, "operation")
	}
	for _, l := range m.Links {
		claim(l.ID, "link")
	}

	if len(m.SiteViews) == 0 {
		addf("model has no site views")
	}
	for _, sv := range m.SiteViews {
		pages := sv.AllPages()
		if len(pages) == 0 {
			addf("site view %q has no pages", sv.ID)
			continue
		}
		if sv.Home != "" {
			found := false
			for _, p := range pages {
				if p.ID == sv.Home {
					found = true
					break
				}
			}
			if !found {
				addf("site view %q declares home page %q which it does not contain", sv.ID, sv.Home)
			}
		}
		for _, p := range pages {
			if len(p.Units) == 0 {
				addf("page %q has no units", p.ID)
			}
			for _, u := range p.Units {
				if u.Kind.IsOperation() {
					addf("operation unit %q placed inside page %q", u.ID, p.ID)
					continue
				}
				m.validateContentUnit(u, addf)
			}
		}
	}
	for _, op := range m.Operations {
		m.validateOperation(op, addf)
	}
	m.validateLinks(addf)
	m.validateTransportTopology(addf)

	if len(problems) > 0 {
		sort.Strings(problems)
		return &ValidationError{Problems: problems}
	}
	m.seal = &seal{}
	return nil
}

// validateHook, when set, runs on every Validate (tests count with it).
var validateHook func()

func (m *Model) validateContentUnit(u *Unit, addf func(string, ...interface{})) {
	if !u.Kind.isKnown() {
		addf("unit %q has unknown kind %q", u.ID, u.Kind)
		return
	}
	if !u.Kind.IsContent() {
		addf("unit %q kind %q is not a content kind", u.ID, u.Kind)
		return
	}
	if sp, ok := LookupPlugin(u.Kind); ok {
		for _, k := range sp.RequiredProps {
			if _, has := u.Props[k]; !has {
				addf("plug-in unit %q (kind %q) is missing required prop %q", u.ID, u.Kind, k)
			}
		}
		return // plug-in content units define their own data contract
	}
	if u.Kind == EntryUnit {
		if len(u.Fields) == 0 {
			addf("entry unit %q has no fields", u.ID)
		}
		seen := map[string]bool{}
		for _, f := range u.Fields {
			if f.Name == "" {
				addf("entry unit %q has a field with empty name", u.ID)
			}
			if seen[strings.ToLower(f.Name)] {
				addf("entry unit %q has duplicate field %q", u.ID, f.Name)
			}
			seen[strings.ToLower(f.Name)] = true
		}
		return
	}
	ent := m.entity(u.Entity)
	if ent == nil {
		addf("unit %q references unknown entity %q", u.ID, u.Entity)
		return
	}
	for _, a := range u.Display {
		if !isOID(a) && ent.Attribute(a) == nil {
			addf("unit %q displays unknown attribute %q of entity %q", u.ID, a, u.Entity)
		}
	}
	m.validateSelector(u.ID, ent, u.Selector, addf)
	for _, o := range u.Order {
		if !isOID(o.Attr) && ent.Attribute(o.Attr) == nil {
			addf("unit %q orders by unknown attribute %q", u.ID, o.Attr)
		}
	}
	if u.Kind == ScrollerUnit && u.PageSize <= 0 {
		addf("scroller unit %q must have PageSize > 0", u.ID)
	}
	if u.Relationship != "" {
		rel := m.Data.Relationship(u.Relationship)
		if rel == nil {
			addf("unit %q references unknown relationship %q", u.ID, u.Relationship)
		} else if !equalFold(rel.From, u.Entity) && !equalFold(rel.To, u.Entity) {
			addf("unit %q entity %q is not an endpoint of relationship %q", u.ID, u.Entity, u.Relationship)
		}
	}
	// Hierarchical nesting: each level's relationship must start from the
	// previous level's entity.
	cur := ent
	for n := u.Nest; n != nil; n = n.Nest {
		rel := m.Data.Relationship(n.Relationship)
		if rel == nil {
			addf("unit %q nests over unknown relationship %q", u.ID, n.Relationship)
			break
		}
		var next *er.Entity
		switch {
		case equalFold(rel.From, cur.Name):
			next = m.entity(rel.To)
		case equalFold(rel.To, cur.Name):
			next = m.entity(rel.From)
		default:
			addf("unit %q nesting relationship %q does not involve entity %q", u.ID, n.Relationship, cur.Name)
		}
		if next == nil {
			break
		}
		for _, a := range n.Display {
			if !isOID(a) && next.Attribute(a) == nil {
				addf("unit %q nesting displays unknown attribute %q of %q", u.ID, a, next.Name)
			}
		}
		cur = next
	}
}

func (m *Model) validateOperation(op *Unit, addf func(string, ...interface{})) {
	if !op.Kind.isKnown() {
		addf("operation %q has unknown kind %q", op.ID, op.Kind)
		return
	}
	if !op.Kind.IsOperation() {
		addf("operation %q kind %q is not an operation kind", op.ID, op.Kind)
		return
	}
	if sp, ok := LookupPlugin(op.Kind); ok {
		for _, k := range sp.RequiredProps {
			if _, has := op.Props[k]; !has {
				addf("plug-in operation %q (kind %q) is missing required prop %q", op.ID, op.Kind, k)
			}
		}
		return
	}
	switch op.Kind {
	case CreateUnit, ModifyUnit, DeleteUnit:
		ent := m.entity(op.Entity)
		if ent == nil {
			addf("operation %q references unknown entity %q", op.ID, op.Entity)
			return
		}
		for attr := range op.Set {
			if ent.Attribute(attr) == nil {
				addf("operation %q sets unknown attribute %q of entity %q", op.ID, attr, op.Entity)
			}
		}
		m.validateSelector(op.ID, ent, op.Selector, addf)
	case ConnectUnit, DisconnectUnit:
		if m.Data.Relationship(op.Relationship) == nil {
			addf("operation %q references unknown relationship %q", op.ID, op.Relationship)
		}
	}
	// OK/KO discipline: exactly one OK link per operation.
	okCount, koCount := 0, 0
	for _, l := range m.LinksFrom(op.ID) {
		switch l.Kind {
		case OKLink:
			okCount++
		case KOLink:
			koCount++
		default:
			addf("operation %q has outgoing %s link %q; operations may only have OK/KO links", op.ID, l.Kind, l.ID)
		}
	}
	if okCount != 1 {
		addf("operation %q must have exactly one OK link, has %d", op.ID, okCount)
	}
	if koCount > 1 {
		addf("operation %q has %d KO links", op.ID, koCount)
	}
	if len(m.LinksTo(op.ID)) == 0 {
		addf("operation %q is unreachable (no incoming links)", op.ID)
	}
}

func (m *Model) validateSelector(ownerID string, ent *er.Entity, sel []Condition, addf func(string, ...interface{})) {
	for _, c := range sel {
		if !isOID(c.Attr) && ent.Attribute(c.Attr) == nil {
			addf("unit %q selector references unknown attribute %q of %q", ownerID, c.Attr, ent.Name)
		}
		switch c.Op {
		case "=", "<>", "<", "<=", ">", ">=", "LIKE", "like", "":
		default:
			addf("unit %q selector has unsupported operator %q", ownerID, c.Op)
		}
	}
}

func (m *Model) validateLinks(addf func(string, ...interface{})) {
	for _, l := range m.Links {
		from := m.Lookup(l.From)
		to := m.Lookup(l.To)
		if from == nil {
			addf("link %q has unknown source %q", l.ID, l.From)
		}
		if to == nil {
			addf("link %q has unknown destination %q", l.ID, l.To)
		}
		if from == nil || to == nil {
			continue
		}
		fromUnit, fromIsUnit := from.(*Unit)
		toUnit, toIsUnit := to.(*Unit)
		_, toIsPage := to.(*Page)
		switch l.Kind {
		case TransportLink:
			if !fromIsUnit || !toIsUnit {
				addf("transport link %q must connect two units", l.ID)
				continue
			}
			if fromUnit.Kind.IsOperation() || toUnit.Kind.IsOperation() {
				addf("transport link %q must connect two content units", l.ID)
				continue
			}
			if fromUnit.page != toUnit.page {
				addf("transport link %q crosses pages (%q -> %q)", l.ID, l.From, l.To)
			}
		case OKLink, KOLink:
			if !fromIsUnit || !fromUnit.Kind.IsOperation() {
				addf("%s link %q must originate from an operation", l.Kind, l.ID)
			}
			if !toIsPage && !(toIsUnit && toUnit.Kind.IsOperation()) {
				addf("%s link %q must target a page or a chained operation", l.Kind, l.ID)
			}
		case NormalLink, AutomaticLink:
			if fromIsUnit && fromUnit.Kind.IsOperation() {
				addf("%s link %q may not originate from an operation (use OK/KO)", l.Kind, l.ID)
			}
			if !toIsPage && !toIsUnit {
				addf("%s link %q must target a page, unit, or operation", l.Kind, l.ID)
			}
		}
		// Parameter well-formedness: sources must be resolvable outputs of
		// the source unit.
		if fromIsUnit {
			for _, p := range l.Params {
				if p.Target == "" {
					addf("link %q has a parameter with empty target", l.ID)
				}
				if p.Source == "" {
					addf("link %q has a parameter with empty source", l.ID)
					continue
				}
				if fromUnit.Kind == EntryUnit {
					if fromUnit.fieldByName(p.Source) == nil {
						addf("link %q parameter source %q is not a field of entry unit %q", l.ID, p.Source, fromUnit.ID)
					}
				} else if fromUnit.Kind.IsContent() {
					if _, isPlugin := LookupPlugin(fromUnit.Kind); isPlugin {
						continue // plug-ins define their own outputs
					}
					ent := m.entity(fromUnit.Entity)
					if ent != nil && !isOID(p.Source) && ent.Attribute(p.Source) == nil {
						addf("link %q parameter source %q is not an attribute of %q", l.ID, p.Source, fromUnit.Entity)
					}
				}
			}
		}
	}
}

// validateTransportTopology rejects transport-link cycles inside a page:
// the generic page service orders units topologically, so the intra-page
// parameter graph must be a DAG. Adjacency is built in one pass over the
// links; a link is an edge of every page holding both of its ends (more
// than one page only for an ID already reported as a duplicate).
func (m *Model) validateTransportTopology(addf func(string, ...interface{})) {
	pages := m.AllPages()
	onPages := map[string][]int{}
	for i, p := range pages {
		for _, u := range p.Units {
			if ps := onPages[u.ID]; len(ps) == 0 || ps[len(ps)-1] != i {
				onPages[u.ID] = append(ps, i)
			}
		}
	}
	type node struct {
		page int
		id   string
	}
	adj := map[node][]string{}
	for _, l := range m.Links {
		if l.Kind != TransportLink && l.Kind != AutomaticLink {
			continue
		}
		for _, i := range onPages[l.From] {
			if slices.Contains(onPages[l.To], i) {
				adj[node{i, l.From}] = append(adj[node{i, l.From}], l.To)
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	for i, p := range pages {
		clear(color)
		var cycle bool
		var dfs func(string)
		dfs = func(id string) {
			color[id] = gray
			for _, next := range adj[node{i, id}] {
				switch color[next] {
				case white:
					dfs(next)
				case gray:
					cycle = true
				}
			}
			color[id] = black
		}
		for _, u := range p.Units {
			if color[u.ID] == white {
				dfs(u.ID)
			}
		}
		if cycle {
			addf("page %q has a cycle in its transport-link topology", p.ID)
		}
	}
}

func (m *Model) entity(name string) *er.Entity {
	if m.Data == nil || name == "" {
		return nil
	}
	return m.Data.Entity(name)
}

func (u *Unit) fieldByName(name string) *Field {
	for i := range u.Fields {
		if equalFold(u.Fields[i].Name, name) {
			return &u.Fields[i]
		}
	}
	return nil
}

func isOID(attr string) bool { return strings.EqualFold(attr, "oid") }
