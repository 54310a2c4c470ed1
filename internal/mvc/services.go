package mvc

import (
	"context"
	"fmt"
	"strings"
	"time"

	"webmlgo/internal/cell"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/obs"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
)

// QueryLat times every descriptor-driven query execution, keyed by the
// unit whose descriptor carried the SQL. The series exist whether or not
// observability is enabled (observing is lock-free and allocation-free);
// app wiring registers the family with the /metrics registry. Together
// with the engine's plan-cache and access-path counters it shows which
// units hit indexes and which ones a data expert should hand-tune
// (Section 6's optimization workflow).
var QueryLat = obs.NewHistogramVec("webml_rdb_query_seconds",
	"Descriptor query execution time by unit.", "unit")

// timedQuery runs one descriptor query and records its latency under the
// unit's ID. It goes through QueryContext so a traced request carries
// its data-tier spans and slow executions reach the flight recorder.
func timedQuery(ctx context.Context, db *rdb.DB, unitID, sql string, args ...rdb.Value) (*rdb.Rows, error) {
	start := time.Now()
	rows, err := db.QueryContext(ctx, sql, args...)
	QueryLat.ObserveErr(unitID, time.Since(start), err != nil)
	return rows, err
}

// UnitService computes the content of one unit kind. One generic service
// exists per kind; the descriptor carries everything unit-specific
// (Figure 5: "a single generic service is designed, which factors out the
// commonalities of unit-specific services... parametric with respect to
// the SQL query to perform, the input parameters of such a query, and the
// properties of the output data bean").
type UnitService interface {
	Compute(ctx context.Context, db *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error)
}

// OperationService executes one operation kind against the database.
type OperationService interface {
	Execute(ctx context.Context, db *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error)
}

// UnitServiceFunc adapts a function to UnitService.
type UnitServiceFunc func(ctx context.Context, db *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error)

// Compute implements UnitService.
func (f UnitServiceFunc) Compute(ctx context.Context, db *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	return f(ctx, db, d, inputs)
}

// OperationServiceFunc adapts a function to OperationService.
type OperationServiceFunc func(ctx context.Context, db *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error)

// Execute implements OperationService.
func (f OperationServiceFunc) Execute(ctx context.Context, db *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	return f(ctx, db, d, inputs)
}

// CoreUnitServices returns the generic content-unit services for the six
// core content kinds. This map plus CoreOperationServices is the entire
// business-tier code for any model — the paper's point that 3068 units
// need only 11 services.
func CoreUnitServices() map[string]UnitService {
	return map[string]UnitService{
		string(webml.DataUnit):        UnitServiceFunc(computeRowsUnit),
		string(webml.IndexUnit):       UnitServiceFunc(computeRowsUnit),
		string(webml.MultidataUnit):   UnitServiceFunc(computeRowsUnit),
		string(webml.MultichoiceUnit): UnitServiceFunc(computeRowsUnit),
		string(webml.ScrollerUnit):    UnitServiceFunc(computeScrollerUnit),
		string(webml.EntryUnit):       UnitServiceFunc(computeEntryUnit),
	}
}

// CoreOperationServices returns the generic operation services for the
// five core operation kinds.
func CoreOperationServices() map[string]OperationService {
	return map[string]OperationService{
		string(webml.CreateUnit):     OperationServiceFunc(executeWrite),
		string(webml.ModifyUnit):     OperationServiceFunc(executeWrite),
		string(webml.DeleteUnit):     OperationServiceFunc(executeWrite),
		string(webml.ConnectUnit):    OperationServiceFunc(executeWrite),
		string(webml.DisconnectUnit): OperationServiceFunc(executeWrite),
	}
}

// argRoom is how many query arguments a unit binds without allocating.
const argRoom = 4

// bindArgs appends a descriptor's declared inputs, resolved against the
// supplied parameter map with wildcard wrapping, to args; a caller passes
// stack room. It reports ok=false when a parameter is absent (the unit
// then renders empty rather than erroring: a page reached without context
// shows no content, as in WebML).
func bindArgs(args []rdb.Value, params []descriptor.ParamDef, inputs map[string]Value) ([]rdb.Value, bool) {
	for _, p := range params {
		v, ok := inputs[p.Name]
		if !ok {
			return nil, false
		}
		if p.Wildcard {
			v = "%" + FormatParam(v) + "%"
		}
		args = append(args, v)
	}
	return args, true
}

// rowsToNodes converts a query result into bean nodes in the output
// field order (field <- column). When the result's columns are the
// outputs in order — every generated query's are — and its rows are
// exact, each node takes its row as it is. Otherwise the fields' cells
// are copied into one exact-size slab per sibling list. Either way a
// bean pins only its own cells; a text still aliases the image its row
// was decoded from.
func rowsToNodes(rows *rdb.Rows, fields []descriptor.FieldDef) ([]Node, error) {
	var room [8]int
	cols := room[:0]
	same := len(rows.Columns) == len(fields)
	for i, f := range fields {
		c := rows.Col(f.Column)
		if c < 0 {
			return nil, fmt.Errorf("mvc: result set lacks column %q", f.Column)
		}
		cols = append(cols, c)
		same = same && c == i
	}
	nodes := make([]Node, len(rows.Data))
	if same && rows.Exact() {
		for i, r := range rows.Data {
			nodes[i].Values = r[:len(r):len(r)]
		}
		return nodes, nil
	}
	w := len(fields)
	slab := make([]cell.Cell, len(nodes)*w)
	for i, r := range rows.Data {
		values := slab[i*w : (i+1)*w : (i+1)*w]
		for j, c := range cols {
			values[j] = r[c]
		}
		nodes[i].Values = values
	}
	return nodes, nil
}

// computeRowsUnit is the generic service for data, index, multidata and
// multichoice units: run the descriptor's query, package the rows, then
// expand hierarchical levels.
func computeRowsUnit(ctx context.Context, db *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	fields, levels := d.FieldNames()
	bean := &UnitBean{UnitID: d.ID, Kind: d.Kind, Fields: fields, LevelFields: levels}
	var room [argRoom]rdb.Value
	args, ok := bindArgs(room[:0], d.Inputs, inputs)
	if !ok {
		bean.Missing = true
		return bean, nil
	}
	rows, err := timedQuery(ctx, db, d.ID, d.Query, args...)
	if err != nil {
		return nil, fmt.Errorf("mvc: unit %s: %w", d.ID, err)
	}
	nodes, err := rowsToNodes(rows, d.Outputs)
	if err != nil {
		return nil, fmt.Errorf("mvc: unit %s: %w", d.ID, err)
	}
	bean.Nodes = nodes
	if err := expandLevels(ctx, db, d, bean, 0, bean.Nodes); err != nil {
		return nil, err
	}
	return bean, nil
}

// expandLevels fills the Children of nodes, which sit depth levels down
// the bean, by running the level query with each node's OID, recursively
// for deeper levels.
func expandLevels(ctx context.Context, db *rdb.DB, d *descriptor.Unit, bean *UnitBean, depth int, nodes []Node) error {
	if depth == len(d.Levels) || len(nodes) == 0 {
		return nil
	}
	lvl := d.Levels[depth]
	oid := FieldIndex(bean.LevelNames(depth), "oid")
	if oid < 0 {
		return fmt.Errorf("mvc: unit %s: hierarchical level needs oid output", d.ID)
	}
	for i := range nodes {
		rows, err := timedQuery(ctx, db, d.ID, lvl.Query, nodes[i].Values[oid].Value())
		if err != nil {
			return fmt.Errorf("mvc: unit %s level %s: %w", d.ID, lvl.Entity, err)
		}
		if nodes[i].Children, err = rowsToNodes(rows, lvl.Outputs); err != nil {
			return fmt.Errorf("mvc: unit %s level %s: %w", d.ID, lvl.Entity, err)
		}
		if err := expandLevels(ctx, db, d, bean, depth+1, nodes[i].Children); err != nil {
			return err
		}
	}
	return nil
}

// computeScrollerUnit runs the count query and one window of the result.
func computeScrollerUnit(ctx context.Context, db *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	fields, _ := d.FieldNames()
	bean := &UnitBean{UnitID: d.ID, Kind: d.Kind, PageSize: d.PageSize, Fields: fields}

	// The count query consumes every input except the trailing "offset",
	// which is 0 when absent.
	params, offset := d.Inputs, inputs["offset"]
	if offset == nil {
		offset = int64(0)
	}
	windowed := len(params) > 0 && params[len(params)-1].Name == "offset"
	if windowed {
		params = params[:len(params)-1]
	}
	var room [argRoom]rdb.Value
	countArgs, ok := bindArgs(room[:0], params, inputs)
	if !ok {
		bean.Missing = true
		return bean, nil
	}
	args := countArgs
	if windowed {
		args = append(countArgs, offset)
	}
	if off, ok := offset.(int64); ok {
		bean.Offset = int(off)
	}

	if d.CountQuery != "" {
		crows, err := timedQuery(ctx, db, d.ID, d.CountQuery, countArgs...)
		if err != nil {
			return nil, fmt.Errorf("mvc: scroller %s count: %w", d.ID, err)
		}
		if crows.Len() > 0 && crows.Data[0][0].Kind == cell.KInt {
			bean.Total = int(crows.Data[0][0].Int())
		}
	}
	rows, err := timedQuery(ctx, db, d.ID, d.Query, args...)
	if err != nil {
		return nil, fmt.Errorf("mvc: scroller %s: %w", d.ID, err)
	}
	nodes, err := rowsToNodes(rows, d.Outputs)
	if err != nil {
		return nil, fmt.Errorf("mvc: scroller %s: %w", d.ID, err)
	}
	bean.Nodes = nodes
	return bean, nil
}

// computeEntryUnit produces the form bean; sticky values and validation
// errors are injected from the session by the page service.
func computeEntryUnit(_ context.Context, _ *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	bean := &UnitBean{UnitID: d.ID, Kind: d.Kind}
	for _, f := range d.Fields {
		ff := FormField{Name: f.Name, Type: f.Type, Required: f.Required}
		if v, ok := inputs[f.Name]; ok {
			ff.Value = FormatParam(v)
		}
		bean.FormFields = append(bean.FormFields, ff)
	}
	return bean, nil
}

// executeWrite is the generic operation service: it executes the
// descriptor's write statement inside a transaction; any error rolls back
// and reports KO.
func executeWrite(ctx context.Context, db *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	var room [argRoom]rdb.Value
	args, ok := bindArgs(room[:0], d.Inputs, inputs)
	if !ok {
		missing := []string{}
		for _, p := range d.Inputs {
			if _, has := inputs[p.Name]; !has {
				missing = append(missing, p.Name)
			}
		}
		return &OpResult{OK: false, Err: fmt.Sprintf("missing parameters: %s", strings.Join(missing, ", "))}, nil
	}
	tx := db.Begin()
	res, err := tx.Exec(d.Query, args...)
	if err != nil {
		tx.Rollback() //nolint:errcheck // rollback of a live tx cannot fail
		return &OpResult{OK: false, Err: err.Error()}, nil
	}
	if err := tx.CommitContext(ctx); err != nil {
		return &OpResult{OK: false, Err: err.Error()}, nil
	}
	out := map[string]Value{"rows": int64(res.RowsAffected)}
	if res.LastInsertID != 0 {
		out["oid"] = res.LastInsertID
	}
	// Pass inputs through so OK-link parameters can forward them.
	for k, v := range inputs {
		if _, exists := out[k]; !exists {
			out[k] = v
		}
	}
	if res.RowsAffected == 0 && (d.Kind == string(webml.ModifyUnit) || d.Kind == string(webml.DeleteUnit)) {
		return &OpResult{OK: false, Err: "no matching object", Outputs: out}, nil
	}
	return &OpResult{OK: true, Outputs: out}, nil
}
