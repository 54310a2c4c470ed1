package rdb

import (
	"fmt"
	"strings"
	"time"

	"webmlgo/internal/cell"
)

// This file adds runtime introspection to compiled plans: EXPLAIN
// ANALYZE executes the plan with a per-execution counter struct
// attached and renders the same operator tree as EXPLAIN annotated
// with actual row counts, index probes and inclusive operator time.
// The counters live entirely in execStats — the plan itself stays
// immutable and shareable — and the hot path pays only a nil check
// per operator when no analysis is active.

// opCounters are the actuals of one physical operator.
type opCounters struct {
	rowsIn  int64 // rows arriving from the operator above (joins)
	rowsOut int64 // rows the operator produced
	probes  int64 // index seeks performed
	elapsed time.Duration
}

// execStats collects one execution's per-operator actuals. elapsed is
// inclusive: an operator's time covers everything at or below it in
// the pipeline, matching how the operators nest as closures.
type execStats struct {
	base      opCounters
	joins     []opCounters
	filterIn  int64 // rows reaching the WHERE filter
	filterOut int64 // rows surviving it
	output    int64 // rows in the final result (after sort/limit)
	total     time.Duration
}

func newExecStats(p *SelectPlan) *execStats {
	return &execStats{joins: make([]opCounters, len(p.joins))}
}

// pathLabel names the access path compactly for span labels:
// scan | pk | unique | hash | range | ordered | composite | cardinality.
func (a *accessPath) pathLabel() string {
	switch a.kind {
	case accessCount:
		return "cardinality"
	case accessPK:
		return "pk"
	case accessUnique:
		return "unique"
	case accessHash:
		return "hash"
	case accessComposite:
		switch {
		case len(a.comp.cols) > 1:
			return "composite"
		case a.rangeCol != "":
			return "range"
		}
		return "ordered"
	}
	return "scan"
}

// planCacheLine is the cache-provenance footer both EXPLAIN forms
// append: the /metrics plan-cache counters say how often plans hit,
// this says whether the plan just shown did.
func planCacheLine(hit bool) string {
	if hit {
		return "\nPLAN: cached"
	}
	return "\nPLAN: compiled"
}

func fmtOpTime(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// renderPlan renders the operator tree of a compiled plan. With es ==
// nil the output is EXPLAIN's estimate-only form; with es set each
// operator line gains its actuals so estimates and reality sit side by
// side, and args are the parameters that execution was bound to.
func renderPlan(p *SelectPlan, sel *SelectStmt, es *execStats, args []cell.Cell) string {
	var b strings.Builder
	a := &p.access
	switch a.kind {
	case accessScan:
		fmt.Fprintf(&b, "SCAN %s (%d rows)", p.baseTable, p.base.alive)
		if es != nil {
			fmt.Fprintf(&b, " (actual %d rows, %s)", es.base.rowsOut, fmtOpTime(es.base.elapsed))
		}
	case accessCount:
		fmt.Fprintf(&b, "CARDINALITY OF %s (%d rows, none read)", p.baseTable, p.base.alive)
	case accessComposite:
		// A one-column sorted index — an ORDERED index or the primary
		// key's order — is named by its column.
		switch {
		case len(a.comp.cols) > 1:
			fmt.Fprintf(&b, "ACCESS %s BY COMPOSITE INDEX %s (%s) eq prefix %d",
				p.baseTable, a.comp.name, strings.Join(a.comp.colNames, ", "), len(a.eq))
			if a.rangeCol != "" {
				fmt.Fprintf(&b, ", range on %s", a.rangeCol)
			}
		case a.rangeCol != "":
			fmt.Fprintf(&b, "ACCESS %s BY RANGE ON %s", p.baseTable, a.rangeCol)
		default:
			fmt.Fprintf(&b, "ACCESS %s BY ORDERED INDEX ON %s", p.baseTable, a.comp.colNames[0])
		}
		fmt.Fprintf(&b, " (%s)", p.walkEstimate(args))
		if es != nil {
			fmt.Fprintf(&b, " (actual %d rows, %d probes, %s)", es.base.rowsOut, es.base.probes, fmtOpTime(es.base.elapsed))
		}
	default:
		fmt.Fprintf(&b, "ACCESS %s BY %s ON %s (est %.0f rows)", p.baseTable, a.label, a.col, a.est)
		if es != nil {
			fmt.Fprintf(&b, " (actual %d rows, %d probes, %s)", es.base.rowsOut, es.base.probes, fmtOpTime(es.base.elapsed))
		}
	}
	for i := range p.joins {
		j := &p.joins[i]
		if j.kind == jkLoop {
			fmt.Fprintf(&b, "\nINNER JOIN %s BY NESTED LOOP (%d rows)", j.displayTable, j.estRows)
			if es != nil {
				jc := &es.joins[i]
				fmt.Fprintf(&b, " (actual in %d, out %d, %s)", jc.rowsIn, jc.rowsOut, fmtOpTime(jc.elapsed))
			}
		} else {
			fmt.Fprintf(&b, "\nINNER JOIN %s BY %s ON %s", j.displayTable, j.label, j.col)
			if es != nil {
				jc := &es.joins[i]
				fmt.Fprintf(&b, " (actual in %d, out %d, %d probes, %s)", jc.rowsIn, jc.rowsOut, jc.probes, fmtOpTime(jc.elapsed))
			}
		}
	}
	if es != nil && p.where != nil {
		fmt.Fprintf(&b, "\nFILTER (actual in %d, out %d)", es.filterIn, es.filterOut)
	}
	if len(sel.OrderBy) > 0 {
		if p.sortElim {
			fmt.Fprintf(&b, "\nORDER BY INDEX (sort eliminated, %d keys)", len(sel.OrderBy))
		} else {
			fmt.Fprintf(&b, "\nSORT %d keys", len(sel.OrderBy))
		}
	}
	if sel.Limit != nil {
		b.WriteString("\nLIMIT")
	}
	if es != nil {
		fmt.Fprintf(&b, "\nOUTPUT %d rows in %s", es.output, fmtOpTime(es.total))
	}
	return b.String()
}

// walkEstimate renders the row estimate of an index walk. A windowed
// plan reads only its LIMIT window, after counting OFFSET entries off
// without touching their rows; the window is known when both are
// literals (plain EXPLAIN passes no args) or bound.
func (p *SelectPlan) walkEstimate(args []cell.Cell) string {
	rows, skip := p.access.est, 0.0
	if p.windowed {
		if limit, offset, hasLimit, err := p.evalLimits(&execCtx{args: args}); err == nil {
			skip = min(float64(offset), rows)
			rows -= skip
			if hasLimit {
				rows = min(rows, float64(limit))
			}
		}
	}
	if skip > 0 {
		return fmt.Sprintf("est %.0f rows after %.0f entries skipped", rows, skip)
	}
	return fmt.Sprintf("est %.0f rows", rows)
}

// ExplainAnalyze compiles (or fetches from the plan cache) and
// EXECUTES the SELECT with per-operator counters attached, then
// renders the plan tree annotated with actual row counts, index
// probes and operator time alongside the planner's estimates. The
// result rows are discarded; side effects are none (SELECT only).
func (db *DB) ExplainAnalyze(sql string, args ...Value) (string, error) {
	p, hit, e, err := db.planSelect(sql, args)
	if err != nil {
		return "", err
	}
	defer db.mu.RUnlock()
	_, _, plan, err := db.analyze(p, hit, e, 0)
	return plan, err
}

// analyze is the analysed run behind ExplainAnalyze and QueryContext's
// instrumented path: it executes p with per-operator counters attached
// and, when the run succeeded and took at least threshold, renders the
// annotated plan. The caller holds the read lock.
func (db *DB) analyze(p *SelectPlan, hit bool, e *execution, threshold time.Duration) (rows *Rows, elapsed time.Duration, plan string, err error) {
	es := newExecStats(p)
	t0 := time.Now()
	rows, err = db.execPlan(p, e, es)
	elapsed = time.Since(t0)
	db.stats.analyzedQueries.Add(1)
	if err == nil && elapsed >= threshold {
		es.total = elapsed
		es.output = int64(rows.Len())
		plan = renderPlan(p, p.stmt, es, e.c.args) + planCacheLine(hit)
	}
	return rows, elapsed, plan, err
}
