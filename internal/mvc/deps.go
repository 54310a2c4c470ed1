package mvc

import (
	"strconv"
	"strings"
	"sync"

	"webmlgo/internal/cell"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/er"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
)

// Section 6 derives cache invalidation from the model: a unit reads
// entities and relationships, an operation writes them. The same model
// also fixes which objects a unit shows, and that gives a second, finer
// grain. A unit has object grain when the rows it lists depend only on
// which objects exist and how they are related, never on attribute
// values: every column its WHERE, JOIN ON and ORDER BY clauses name is an
// oid, a foreign-key column of a relationship it reads, or a bridge
// column, and it has no wildcard input, no nested levels, no custom
// service and no hand-tuned query. One computed bean of such a unit
// depends on three kinds of tag:
//
//	rel:<r>            the relationships it reads, as at entity grain
//	entity:<e>+        which objects of its entity exist
//	entity:<e>#<oid>   each object it shows
//
// Every other unit has entity grain: the descriptor's Reads. An operation
// publishes its Writes plus the object tags its write can change
// (WriteTags), so a modify of one row purges only what shows that row.
// The grain is derived here, in the web tier, from the descriptor it
// holds; descriptors carry no grain of their own.

// maxObjectTags bounds the per-object tags of one bean: a bean of more
// rows is tagged with its descriptor's Reads instead.
const maxObjectTags = 64

// depInfo is what the dependency tags of one descriptor need.
type depInfo struct {
	// object marks a content unit of object grain.
	object bool
	// keep is, at object grain, the Reads but the unit's entity tag.
	keep []string
	// member and objPrefix are the membership tag and the object-tag
	// prefix of the unit's or operation's entity: "entity:<e>+" and
	// "entity:<e>#".
	member, objPrefix string
	// oidInput names the input bound by a modify's or delete's WHERE
	// oid = ?, or is "" when the statement can change other rows or
	// another row's relationships.
	oidInput string
}

// memoCap bounds the memo; it is emptied when full, so descriptors
// swapped out by a hot redeployment are not retained.
const memoCap = 1 << 14

// memo holds the depInfo of each descriptor pointer met so far. Its
// values are a pure function of the descriptor, so sharing it across
// applications changes no result.
var memo struct {
	sync.RWMutex
	m map[*descriptor.Unit]*depInfo
}

// entityGrain is the depInfo of every content unit of entity grain.
var entityGrain = new(depInfo)

// depsOf returns the memoized depInfo of a descriptor. It is memoized
// per descriptor pointer: OverrideQuery, OverrideService and a hot-swap
// store a new descriptor, which is derived again.
func depsOf(d *descriptor.Unit) *depInfo {
	memo.RLock()
	info, ok := memo.m[d]
	memo.RUnlock()
	if ok {
		return info
	}
	info = deriveDeps(d)
	memo.Lock()
	if memo.m == nil || len(memo.m) >= memoCap {
		memo.m = make(map[*descriptor.Unit]*depInfo)
	}
	memo.m[d] = info
	memo.Unlock()
	return info
}

func deriveDeps(d *descriptor.Unit) *depInfo {
	entity := descriptor.EntityDep(d.Entity)
	generated := d.Entity != "" && !d.Optimized && d.Service == ""
	switch webml.UnitKind(d.Kind) {
	case webml.ModifyUnit, webml.DeleteUnit:
		info := &depInfo{objPrefix: entity + "#"}
		if generated {
			info.oidInput = oidInput(d)
		}
		return info
	}
	if !generated || !objectGrain(d) {
		return entityGrain
	}
	info := &depInfo{object: true, member: entity + "+", objPrefix: entity + "#"}
	for _, t := range d.Reads {
		if t != entity {
			info.keep = append(info.keep, t)
		}
	}
	return info
}

// objectGrain reports whether a unit of a core content kind, whose bean
// holds exactly its query's rows, has a query and count query that name
// only key columns in their conditions and order and project only the
// unit's own table.
func objectGrain(d *descriptor.Unit) bool {
	switch webml.UnitKind(d.Kind) {
	case webml.DataUnit, webml.IndexUnit, webml.MultidataUnit, webml.MultichoiceUnit, webml.ScrollerUnit:
	default:
		return false
	}
	if d.Query == "" || len(d.Levels) > 0 || !hasOIDOutput(d.Outputs) {
		return false
	}
	for _, p := range d.Inputs {
		if p.Wildcard {
			return false
		}
	}
	for _, q := range []string{d.Query, d.CountQuery} {
		if q == "" {
			continue
		}
		st, err := rdb.ParseStatement(q)
		if err != nil {
			return false
		}
		sel, ok := st.(*rdb.SelectStmt)
		if !ok || descriptor.EntityDep(sel.From.Table) != descriptor.EntityDep(d.Entity) {
			return false
		}
		if !sel.Count && !projectsTable(sel) {
			return false
		}
		keys := []rdb.Expr{sel.Where}
		for _, j := range sel.Joins {
			keys = append(keys, j.On)
		}
		for _, o := range sel.OrderBy {
			keys = append(keys, o.Expr)
		}
		for _, e := range keys {
			if !namesOnly(e, func(col string) bool { return keyColumn(col, d.Reads) }) {
				return false
			}
		}
	}
	return true
}

func hasOIDOutput(outs []descriptor.FieldDef) bool {
	for _, f := range outs {
		if f.Name == er.OIDColumn && strings.EqualFold(f.Column, er.OIDColumn) {
			return true
		}
	}
	return false
}

// projectsTable reports whether every projected column is a column of
// the FROM table, so the bean shows attributes of its own rows only.
func projectsTable(sel *rdb.SelectStmt) bool {
	from := sel.From.Alias
	if from == "" {
		from = sel.From.Table
	}
	for _, c := range sel.Columns {
		ref, ok := c.Expr.(*rdb.ColRef)
		if c.Star != "" || !ok || (ref.Table == "" && len(sel.Joins) > 0) || (ref.Table != "" && !strings.EqualFold(ref.Table, from)) {
			return false
		}
	}
	return true
}

// keyColumn reports whether a column is an oid, a bridge column, or the
// foreign-key column of a relationship the unit reads.
func keyColumn(col string, reads []string) bool {
	col = strings.ToLower(col)
	switch col {
	case er.OIDColumn, er.BridgeFrom, er.BridgeTo:
		return true
	}
	rel, ok := strings.CutPrefix(col, "fk_")
	if !ok {
		return false
	}
	for _, t := range reads {
		if t == descriptor.RelDep(rel) {
			return true
		}
	}
	return false
}

// namesOnly reports whether every column a condition or order term
// names passes ok.
func namesOnly(e rdb.Expr, ok func(col string) bool) bool {
	switch x := e.(type) {
	case *rdb.ColRef:
		return ok(x.Column)
	case *rdb.BinaryExpr:
		return namesOnly(x.L, ok) && namesOnly(x.R, ok)
	}
	return true
}

// oidInput returns the input a modify or delete binds to its WHERE
// oid = ?, or "" when its statement is not a write of one row of its own
// table, or a modify also sets a key column (which can move the row into
// or out of a relationship).
func oidInput(d *descriptor.Unit) string {
	st, err := rdb.ParseStatement(d.Query)
	if err != nil {
		return ""
	}
	var table string
	var where rdb.Expr
	switch s := st.(type) {
	case *rdb.UpdateStmt:
		for _, set := range s.Sets {
			if col := strings.ToLower(set.Column); keyColumn(col, nil) || strings.HasPrefix(col, "fk_") {
				return ""
			}
		}
		table, where = s.Table, s.Where
	case *rdb.DeleteStmt:
		table, where = s.Table, s.Where
	default:
		return ""
	}
	if descriptor.EntityDep(table) != descriptor.EntityDep(d.Entity) {
		return ""
	}
	eq, ok := where.(*rdb.BinaryExpr)
	if !ok || eq.Op != "=" {
		return ""
	}
	col, param := eq.L, eq.R
	if _, isParam := col.(*rdb.Param); isParam {
		col, param = param, col
	}
	ref, ok := col.(*rdb.ColRef)
	p, isParam := param.(*rdb.Param)
	if !ok || !isParam || !strings.EqualFold(ref.Column, er.OIDColumn) || p.Index >= len(d.Inputs) {
		return ""
	}
	return d.Inputs[p.Index].Name
}

// ReadTags appends to dst the dependency tags of one bean computed by the
// unit d: none for a Missing bean (it read no rows; its emptiness depends
// only on its inputs), the rel:, membership and per-object tags of an
// object-grain bean of at most maxObjectTags rows, and d.Reads otherwise.
func ReadTags(dst []string, d *descriptor.Unit, b *UnitBean) []string {
	if b.Missing {
		return dst
	}
	info := depsOf(d)
	oid := FieldIndex(b.Fields, er.OIDColumn)
	if !info.object || oid < 0 || len(b.Nodes) > maxObjectTags {
		return append(dst, d.Reads...)
	}
	for _, n := range b.Nodes {
		if n.Values[oid].Kind != cell.KInt {
			return append(dst, d.Reads...)
		}
	}
	dst = append(dst, info.keep...)
	dst = append(dst, info.member)
	for _, n := range b.Nodes {
		dst = append(dst, objectTag(info.objPrefix, n.Values[oid].Int()))
	}
	return dst
}

func objectTag(prefix string, oid int64) string {
	var buf [64]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), oid, 10))
}

// WriteTags returns the tags a successful operation publishes: its
// Writes, plus entity:<e>#<oid> for a generated modify or delete of one
// row named by an integer oid. Connects and disconnects publish their
// Writes alone. Every other write — a create, a delete, a modify not of
// one named row, a custom component — also changes which objects exist or
// any object of what it writes, so it adds entity:<x>+ for every entity
// x it writes.
func WriteTags(d *descriptor.Unit, inputs map[string]Value) []string {
	tags := append(make([]string, 0, len(d.Writes)+2), d.Writes...)
	kind := webml.UnitKind(d.Kind)
	switch {
	case d.Service != "":
	case kind == webml.ConnectUnit || kind == webml.DisconnectUnit:
		return tags
	case kind == webml.ModifyUnit || kind == webml.DeleteUnit:
		info := depsOf(d)
		if oid, ok := inputs[info.oidInput].(int64); ok && info.oidInput != "" {
			tags = append(tags, objectTag(info.objPrefix, oid))
			if kind == webml.ModifyUnit {
				return tags
			}
		}
	}
	return memberTags(tags, d.Writes)
}

// memberTags appends entity:<x>+ for every entity tag in writes.
func memberTags(tags, writes []string) []string {
	for _, t := range writes {
		if strings.HasPrefix(t, "entity:") {
			tags = append(tags, t+"+")
		}
	}
	return tags
}
