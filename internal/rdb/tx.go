package rdb

import (
	"context"
	"errors"
	"fmt"
	"strconv"
)

// ErrTxDone is returned when a finished transaction is used again.
var ErrTxDone = errors.New("rdb: transaction already committed or rolled back")

type undoOp int

const (
	undoInsert undoOp = iota // rollback: delete the inserted row
	undoUpdate               // rollback: restore oldRow
	undoDelete               // rollback: re-insert oldRow
)

type undoEntry struct {
	table  *table
	op     undoOp
	rowID  int
	oldRow Row
}

type undoLog struct {
	entries []undoEntry
}

func (u *undoLog) add(e undoEntry) { u.entries = append(u.entries, e) }

// Tx is a write transaction. It holds the database's exclusive lock for
// its whole lifetime (coarse two-phase locking): readers and other writers
// wait until Commit or Rollback. Rollback replays an undo log.
//
// The paper's operation units (create/modify/delete/connect/disconnect
// chains with KO links) need exactly this: a unit chain either completes
// or leaves no trace before the Controller follows the KO link.
type Tx struct {
	db   *DB
	undo undoLog
	cs   ChangeSet // row ops staged for the engine at Commit
	done bool
}

// Begin starts a write transaction, blocking until the exclusive lock is
// available.
func (db *DB) Begin() *Tx {
	db.mu.Lock()
	return &Tx{db: db}
}

// Exec runs a write statement inside the transaction.
func (tx *Tx) Exec(sql string, args ...Value) (Result, error) {
	if tx.done {
		return Result{}, ErrTxDone
	}
	st, err := tx.db.prepare(sql)
	if err != nil {
		return Result{}, err
	}
	if _, isSel := st.(*SelectStmt); isSel {
		return Result{}, fmt.Errorf("rdb: a transaction does not run SELECT")
	}
	cargs, err := coerceArgs(st, args)
	if err != nil {
		return Result{}, err
	}
	// DDL is not covered by the undo log (a rollback leaves schema
	// changes in place, as before engines existed), so it cannot ride
	// in the transaction's change-set either: a later Rollback would
	// discard it and let durable state diverge from memory. Commit it
	// to the engine immediately instead, waiting for durability inline
	// — DDL mid-transaction is rare enough that holding the lock over
	// one fsync is fine.
	switch st.(type) {
	case *CreateTableStmt, *CreateIndexStmt:
		cs := &ChangeSet{}
		res, err := tx.db.execLocked(sql, st, cargs, nil, cs)
		if err != nil {
			return res, err
		}
		wait, err := tx.db.applyLocked(cs)
		if err != nil {
			return res, err
		}
		if wait != nil {
			if err := wait(); err != nil {
				return res, err
			}
		}
		return res, nil
	}
	return tx.db.execLocked(sql, st, cargs, &tx.undo, &tx.cs)
}

// Commit makes the transaction's writes permanent and releases the
// lock. With a durable engine attached, Commit returns once the whole
// change-set is on stable storage; the fsync happens after the lock
// is released, so concurrent committers share flushes (group commit).
func (tx *Tx) Commit() error {
	return tx.commit(nil, nil)
}

// CommitContext is Commit plus data-tier spans: when trace hooks are
// installed and ctx carries a trace, the in-lock commit (engine apply,
// WAL append, any checkpoint) becomes an "rdb.commit" span and the
// post-lock durability wait an "rdb.wal.sync" span.
func (tx *Tx) CommitContext(ctx context.Context) error {
	h := tx.db.hooks.Load()
	if h == nil || h.Span == nil {
		return tx.Commit()
	}
	return tx.commit(ctx, h)
}

func (tx *Tx) commit(ctx context.Context, h *TraceHooks) error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.undo.entries = nil
	var fin SpanFinish
	if h != nil {
		fin = h.Span(ctx, "rdb.commit")
	}
	nOps := len(tx.cs.Ops)
	wait, err := tx.db.applyLocked(&tx.cs)
	tx.db.mu.Unlock()
	if fin != nil {
		fin(err,
			"ops", strconv.Itoa(nOps),
			"wal_append", tx.cs.WALAppend.String(),
			"checkpoint", tx.cs.Checkpoint.String())
	}
	if err != nil {
		return err
	}
	if wait != nil {
		var finSync SpanFinish
		if h != nil {
			finSync = h.Span(ctx, "rdb.wal.sync")
		}
		werr := wait()
		if finSync != nil {
			finSync(werr)
		}
		return werr
	}
	return nil
}

// Rollback undoes every write performed in the transaction, in reverse
// order, and releases the lock.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	var f faultCtx
	for i := len(tx.undo.entries) - 1; i >= 0; i-- {
		e := tx.undo.entries[i]
		switch e.op {
		case undoInsert:
			e.table.deleteRow(e.rowID, &f)
		case undoUpdate:
			// updateRow re-checks constraints; restoring the old image is
			// always constraint-safe, but bypass checks to be robust.
			// readRow faults the slot if a sweep evicted it mid-transaction.
			// A failed read only leaves stale index entries: rollback cannot fail.
			cur, _ := e.table.readRow(e.rowID, allCols, &f)
			if cur != nil {
				e.table.unindexRow(e.rowID, cur)
			}
			if _, ok := evictedRec(e.table.rows[e.rowID]); ok {
				e.table.resident++
			}
			e.table.rows[e.rowID] = e.oldRow
			e.table.indexRow(e.rowID, e.oldRow)
		case undoDelete:
			e.table.restoreRow(e.rowID, e.oldRow)
		}
	}
	tx.undo.entries = nil
	tx.cs.Ops = nil
	tx.db.mu.Unlock()
	return nil
}
