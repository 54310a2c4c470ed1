package rdb

// This file defines the storage-engine seam. The executor — parser,
// planner, plan executor, index machinery — operates on in-memory table
// structs regardless of engine; an Engine is the durability layer
// behind them. Every committed change-set flows through Engine.Apply,
// so the in-memory engine (a no-op), the durable WAL+page engine
// (durable.go) and future backends (columnar, replica log shipping)
// are swappable without touching query execution.

import "time"

// OpKind classifies one operation inside a change-set.
type OpKind int

const (
	// OpDDL is a schema change carried as its SQL text.
	OpDDL OpKind = iota
	// OpInsert adds Row at RowID.
	OpInsert
	// OpUpdate replaces OldRow with Row at RowID.
	OpUpdate
	// OpDelete removes OldRow at RowID.
	OpDelete
)

// ChangeOp is one applied operation. RowID is the in-memory row slot —
// stable within a process run but not across restarts; engines that
// persist translate it to a stable record id. Row and OldRow reference
// the stored row slices, which are immutable once written.
type ChangeOp struct {
	Kind   OpKind
	Table  string // lower-cased table key (empty for DDL)
	SQL    string // OpDDL only
	RowID  int
	Row    Row // new image (insert, update)
	OldRow Row // prior image (update, delete)
}

// ChangeSet is the complete effect of one committed transaction (or
// one auto-commit statement). Seq is assigned at commit, monotonically.
// WALAppend and Checkpoint are filled by the engine during Apply with
// the time spent appending the change-set to the log and running any
// triggered checkpoint — the breakdown CommitContext puts
// on commit spans (zero for the in-memory engine).
type ChangeSet struct {
	Seq uint64
	Ops []ChangeOp

	WALAppend  time.Duration
	Checkpoint time.Duration
}

func (cs *ChangeSet) add(op ChangeOp) { cs.Ops = append(cs.Ops, op) }

// EngineStats is a snapshot of an engine's durability counters. The
// in-memory engine reports zeros.
type EngineStats struct {
	// WAL counters.
	WALAppends     uint64 // committed change-sets logged
	WALFsyncs      uint64 // disk flushes (group commit amortizes these)
	WALBatches     uint64 // leader rounds covering >= 1 record
	WALBatchedRecs uint64 // records covered by those rounds
	WALBytes       uint64 // frame bytes appended since open
	WALSize        int64  // current physical log length
	// Buffer-pool counters.
	PoolHits      uint64
	PoolMisses    uint64
	PoolEvictions uint64
	PoolResident  int
	PoolDirty     int
	PoolPinned    int
	// Row-level paging counters (anti-caching sweep; zero when the
	// resident-row budget is unset).
	RowFaults    uint64 // evicted rows materialized back from the store
	RowsEvicted  uint64 // rows swept out since open
	RowsResident int    // rows currently materialized in table slots
	// Checkpoint / recovery counters.
	Checkpoints      uint64
	RecoveredRecords uint64 // WAL records replayed at the last open
	TornBytes        int64  // torn-tail bytes truncated at the last open
}

// Engine persists committed change-sets behind the in-memory executor.
//
// Apply is invoked with the database's exclusive lock held, after the
// in-memory tables have been mutated; it must stage the change-set
// (e.g. append it to a WAL buffer and write through to a page tree)
// and return a wait function, or nil if the change is already durable.
// The caller invokes the wait function after releasing the lock —
// that split is what lets concurrent committers share one fsync. An
// error from Apply or the wait function means the change-set's
// durability is unknown; engines are expected to fail stickily so the
// divergence cannot widen silently.
type Engine interface {
	// Name identifies the engine ("memory", "durable") for /metrics
	// and logs.
	Name() string
	// Apply stages cs; see the interface comment for the locking
	// contract.
	Apply(cs *ChangeSet) (wait func() error, err error)
	// Checkpoint compacts the engine's persistent state so recovery
	// does not depend on unbounded log replay. Called with the
	// exclusive lock held.
	Checkpoint() error
	// Stats reports durability counters for observability.
	Stats() EngineStats
	// Close flushes and releases the engine's resources. Called with
	// the exclusive lock held.
	Close() error
}

// memEngine is the default engine: the table structs the executor
// already mutated are the storage, so persistence is a no-op. It
// exists so the commit path is engine-agnostic.
type memEngine struct{}

func (memEngine) Name() string                           { return "memory" }
func (memEngine) Apply(*ChangeSet) (func() error, error) { return nil, nil }
func (memEngine) Checkpoint() error                      { return nil }
func (memEngine) Stats() EngineStats                     { return EngineStats{} }
func (memEngine) Close() error                           { return nil }
