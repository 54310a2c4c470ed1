package codegen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/er"
	"webmlgo/internal/webml"
)

// ParentParam is the reserved input-parameter name under which
// relationship-scoped content units receive the OID of the object they
// are related to. Link parameters targeting such a unit bind it
// explicitly: P("oid", codegen.ParentParam).
const ParentParam = "parent"

// textBuf is generated text being written: a skeleton or a SQL
// statement. For a statement or a FROM clause, and opens the WHERE at
// the first conjunct and joins later ones with AND.
type textBuf struct {
	strings.Builder
	conjuncts int
}

func (b *textBuf) put(parts ...string) {
	for _, s := range parts {
		b.WriteString(s)
	}
}

// and starts the next WHERE conjunct.
func (b *textBuf) and(parts ...string) {
	sep := " AND "
	if b.conjuncts == 0 {
		sep = " WHERE "
	}
	b.conjuncts++
	b.WriteString(sep)
	b.put(parts...)
}

// buildContentQuery synthesizes the SQL of a content unit and its I/O
// parameter lists. The result is intentionally plain, readable SQL: the
// descriptor is the contract the data expert edits by hand (Section 6).
func (r *run) buildContentQuery(u *webml.Unit, d *descriptor.Unit) error {
	ent := r.Model.Data.Entity(u.Entity)
	if ent == nil {
		return fmt.Errorf("codegen: unit %q: unknown entity %q", u.ID, u.Entity)
	}
	// Room for the entity, a scoping relationship and one nested level.
	d.Reads = append(make([]string, 0, 4), r.entityDep(u.Entity))

	// from is the FROM clause with its WHERE; the count query shares it.
	var from textBuf
	from.Grow(96)
	from.put(r.table(u.Entity), " t")
	var inputs []descriptor.ParamDef

	// Relationship scope: restrict to objects related to a parent
	// instance supplied through the reserved "parent" input.
	if u.Relationship != "" {
		rel := r.Model.Data.Relationship(u.Relationship)
		if rel == nil {
			return fmt.Errorf("codegen: unit %q: unknown relationship %q", u.ID, u.Relationship)
		}
		parentEntity := rel.From
		if strings.EqualFold(rel.From, u.Entity) {
			parentEntity = rel.To
		}
		nav, err := r.Mapping.Navigate(rel, parentEntity)
		if err != nil {
			return fmt.Errorf("codegen: unit %q: %w", u.ID, err)
		}
		d.Reads = append(d.Reads, r.relDep(rel.Name))
		r.joinParent(&from, nav, parentEntity)
		inputs = append(inputs, descriptor.ParamDef{Name: ParentParam})
	}

	// Selector conditions.
	inputs, err := selectorSQL(&from, u.Selector, "t", inputs)
	if err != nil {
		return fmt.Errorf("codegen: unit %q: %w", u.ID, err)
	}

	// A data unit with no selection context defaults to selection by OID.
	if u.Kind == webml.DataUnit && from.conjuncts == 0 {
		from.and("t.oid = ?")
		inputs = append(inputs, descriptor.ParamDef{Name: "oid"})
	}
	fromWhere := from.String()

	var b textBuf
	b.Grow(64 + len(fromWhere) + 24*len(u.Display))
	b.put("SELECT ")
	d.Outputs = displayColumns(&b, u.Display, "t")
	b.put(" FROM ", fromWhere)
	if u.Kind != webml.DataUnit {
		orderSQL(&b, u.Order, "t")
	}

	d.Inputs = inputs
	if u.Kind == webml.ScrollerUnit {
		d.PageSize = u.PageSize
		d.CountQuery = "SELECT COUNT(*) FROM " + fromWhere
		b.put(" LIMIT ", strconv.Itoa(u.PageSize), " OFFSET ?")
		// The count query shares the leading inputs; the windowed query
		// additionally consumes "offset" last.
		d.Inputs = append(inputs, descriptor.ParamDef{Name: "offset"})
	}
	d.Query = b.String()

	// Hierarchical levels.
	cur := ent
	for n := u.Nest; n != nil; n = n.Nest {
		lvl, next, err := r.buildLevel(cur, n)
		if err != nil {
			return fmt.Errorf("codegen: unit %q: %w", u.ID, err)
		}
		d.Levels = append(d.Levels, lvl)
		d.Reads = append(d.Reads, lvl.Dep, r.entityDep(next.Name))
		cur = next
	}
	return nil
}

// joinParent writes the join and the conjunct restricting alias t to the
// objects related to one instance of parentEntity, bound by a "?".
func (r *run) joinParent(b *textBuf, nav er.Navigation, parentEntity string) {
	switch {
	case nav.Bridge:
		b.put(" JOIN ", nav.BridgeTable, " b ON b.", nav.BridgeFarCol, " = t.oid")
		b.and("b.", nav.BridgeNearCol, " = ?")
	case nav.FKOnTarget:
		b.and("t.", nav.FKCol, " = ?")
	default:
		// The parent's table holds the FK pointing at this entity: join
		// the parent in.
		b.put(" JOIN ", r.table(parentEntity), " p ON p.", nav.FKCol, " = t.oid")
		b.and("p.oid = ?")
	}
}

// buildLevel synthesizes one hierarchical-index level: a query producing
// the children of a parent row, parameterized by the parent OID.
func (r *run) buildLevel(parent *er.Entity, n *webml.Nesting) (descriptor.Level, *er.Entity, error) {
	rel := r.Model.Data.Relationship(n.Relationship)
	if rel == nil {
		return descriptor.Level{}, nil, fmt.Errorf("unknown relationship %q", n.Relationship)
	}
	nav, err := r.Mapping.Navigate(rel, parent.Name)
	if err != nil {
		return descriptor.Level{}, nil, err
	}
	child := r.Model.Data.Entity(nav.TargetEntity)
	if child == nil {
		return descriptor.Level{}, nil, fmt.Errorf("unknown entity %q", nav.TargetEntity)
	}
	var b textBuf
	b.Grow(160 + 24*len(n.Display))
	b.put("SELECT ")
	outs := displayColumns(&b, n.Display, "t")
	b.put(" FROM ", r.table(child.Name), " t")
	r.joinParent(&b, nav, parent.Name)
	orderSQL(&b, n.Order, "t")
	return descriptor.Level{
		Entity:  child.Name,
		Query:   b.String(),
		Outputs: outs,
		Dep:     r.relDep(rel.Name),
	}, child, nil
}

// sortedSet returns the Set map's attribute names sorted, so generated
// SQL is deterministic across runs.
func sortedSet(set map[string]string) []string {
	attrs := make([]string, 0, len(set))
	for a := range set {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	return attrs
}

// buildWrite synthesizes a create (INSERT) or modify (UPDATE by OID)
// operation over the Set attributes, in sorted order.
func (r *run) buildWrite(op *webml.Unit, d *descriptor.Unit) error {
	if r.Model.Data.Entity(op.Entity) == nil {
		return fmt.Errorf("codegen: operation %q: unknown entity %q", op.ID, op.Entity)
	}
	attrs := sortedSet(op.Set)
	if len(attrs) == 0 {
		return fmt.Errorf("codegen: %s operation %q sets no attributes", op.Kind, op.ID)
	}
	create := op.Kind == webml.CreateUnit
	var b textBuf
	b.Grow(48 + 24*len(attrs))
	if create {
		b.put("INSERT INTO ", r.table(op.Entity), " (")
	} else {
		b.put("UPDATE ", r.table(op.Entity), " SET ")
	}
	d.Inputs = make([]descriptor.ParamDef, 0, len(attrs)+1)
	for i, a := range attrs {
		if i > 0 {
			b.put(", ")
		}
		b.put(r.Mapping.AttrColumn(a))
		if !create {
			b.put(" = ?")
		}
		d.Inputs = append(d.Inputs, descriptor.ParamDef{Name: op.Set[a]})
	}
	if create {
		b.put(") VALUES (?", strings.Repeat(", ?", len(attrs)-1), ")")
		d.Outputs = []descriptor.FieldDef{{Name: "oid", Column: "oid"}}
	} else {
		b.put(" WHERE oid = ?")
		d.Inputs = append(d.Inputs, descriptor.ParamDef{Name: "oid"})
	}
	d.Query = b.String()
	d.Writes = []string{r.entityDep(op.Entity)}
	return nil
}

func (r *run) buildDelete(op *webml.Unit, d *descriptor.Unit) error {
	if r.Model.Data.Entity(op.Entity) == nil {
		return fmt.Errorf("codegen: operation %q: unknown entity %q", op.ID, op.Entity)
	}
	d.Query = "DELETE FROM " + r.table(op.Entity) + " WHERE oid = ?"
	d.Inputs = []descriptor.ParamDef{{Name: "oid"}}
	d.Writes = []string{r.entityDep(op.Entity)}
	// Deleting an instance also severs its relationship instances.
	for _, rel := range r.Model.Data.Relationships {
		if strings.EqualFold(rel.From, op.Entity) || strings.EqualFold(rel.To, op.Entity) {
			d.Writes = append(d.Writes, r.relDep(rel.Name))
		}
	}
	return nil
}

// buildConnect handles connect and disconnect. Both take the reserved
// inputs "from" (OID of the relationship's From-entity instance) and "to"
// (OID of the To-entity instance); the generated SQL adapts to the
// relationship's storage (bridge table or foreign key).
func (r *run) buildConnect(op *webml.Unit, d *descriptor.Unit) error {
	rel := r.Model.Data.Relationship(op.Relationship)
	if rel == nil {
		return fmt.Errorf("codegen: operation %q: unknown relationship %q", op.ID, op.Relationship)
	}
	st := r.Mapping.Storage(rel)
	disconnect := op.Kind == webml.DisconnectUnit
	d.Writes = []string{r.relDep(rel.Name)}
	switch {
	case st.Bridge:
		if disconnect {
			d.Query = "DELETE FROM " + st.Table + " WHERE " + er.BridgeFrom + " = ? AND " + er.BridgeTo + " = ?"
		} else {
			d.Query = "INSERT INTO " + st.Table + " (" + er.BridgeFrom + ", " + er.BridgeTo + ") VALUES (?, ?)"
		}
		d.Inputs = []descriptor.ParamDef{{Name: "from"}, {Name: "to"}}
		return nil
	case strings.EqualFold(st.FKSide, rel.To):
		// The To-table holds the FK pointing at From.
		d.Writes = append(d.Writes, r.entityDep(rel.To))
		d.Inputs = []descriptor.ParamDef{{Name: "from"}, {Name: "to"}}
	default:
		// The From-table holds the FK pointing at To.
		d.Writes = append(d.Writes, r.entityDep(rel.From))
		d.Inputs = []descriptor.ParamDef{{Name: "to"}, {Name: "from"}}
	}
	if disconnect {
		// Only the FK holder's OID is bound: the last of the two inputs.
		d.Query = "UPDATE " + st.Table + " SET " + st.FKCol + " = NULL WHERE oid = ?"
		d.Inputs = d.Inputs[1:]
	} else {
		d.Query = "UPDATE " + st.Table + " SET " + st.FKCol + " = ? WHERE oid = ?"
	}
	return nil
}

// displayColumns writes the projected SQL columns (always leading with
// the OID) and returns the bean output fields for a display list.
func displayColumns(b *textBuf, display []string, alias string) []descriptor.FieldDef {
	outs := make([]descriptor.FieldDef, 1, len(display)+1)
	outs[0] = descriptor.FieldDef{Name: "oid", Column: "oid"}
	b.put(alias, ".oid")
	for _, a := range display {
		if strings.EqualFold(a, "oid") {
			continue
		}
		col := strings.ToLower(a)
		b.put(", ", alias, ".", col)
		outs = append(outs, descriptor.FieldDef{Name: a, Column: col})
	}
	return outs
}

// selectorSQL writes WebML selector conditions as WHERE conjuncts and
// appends the input parameters they consume, in order, to inputs.
func selectorSQL(b *textBuf, sel []webml.Condition, alias string, inputs []descriptor.ParamDef) ([]descriptor.ParamDef, error) {
	for _, c := range sel {
		op := strings.ToUpper(c.Op)
		if op == "" {
			op = "="
		}
		val := "?"
		if c.Param != "" {
			inputs = append(inputs, descriptor.ParamDef{Name: c.Param, Wildcard: op == "LIKE"})
		} else {
			lit, err := sqlLiteral(c.Value)
			if err != nil {
				return nil, fmt.Errorf("selector on %q: %w", c.Attr, err)
			}
			val = lit
		}
		b.and(alias, ".", strings.ToLower(c.Attr), " ", op, " ", val)
	}
	return inputs, nil
}

// sqlLiteral renders a Go value as a SQL literal the rdb lexer reads
// back as the same value.
func sqlLiteral(v interface{}) (string, error) {
	switch x := v.(type) {
	case nil:
		return "NULL", nil
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'", nil
	case int:
		return strconv.Itoa(x), nil
	case int64:
		return strconv.FormatInt(x, 10), nil
	case float64:
		// Positional notation: the lexer has no exponent syntax.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "", fmt.Errorf("float literal %v has no SQL form", x)
		}
		return strconv.FormatFloat(x, 'f', -1, 64), nil
	case bool:
		if x {
			return "TRUE", nil
		}
		return "FALSE", nil
	case time.Time:
		return "'" + x.Format(time.RFC3339) + "'", nil
	}
	return "", fmt.Errorf("unsupported literal type %T", v)
}

// orderSQL writes the ORDER BY clause of the keys, by OID when none.
func orderSQL(b *textBuf, order []webml.OrderKey, alias string) {
	if len(order) == 0 {
		b.put(" ORDER BY ", alias, ".oid")
	}
	sep := " ORDER BY "
	for _, o := range order {
		dir := " ASC"
		if o.Desc {
			dir = " DESC"
		}
		b.put(sep, alias, ".", strings.ToLower(o.Attr), dir)
		sep = ", "
	}
}
