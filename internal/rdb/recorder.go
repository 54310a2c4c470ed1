package rdb

import (
	"sync"
	"sync/atomic"
	"time"
)

// The slow-query flight recorder: a fixed-size ring (modeled on the
// tracer's slow-exemplar ring) that captures queries whose execution
// crossed a threshold, together with the evidence needed to explain
// them after the fact — SQL text, bound parameters, the analyzed plan
// with per-operator actuals, and the owning trace ID. Capture happens
// on the query's own goroutine under one short mutex hold; queries
// below the threshold never touch the lock.

// QueryRecord is one captured slow query.
type QueryRecord struct {
	At       time.Time     `json:"at"`
	SQL      string        `json:"sql"`
	Params   []Value       `json:"params,omitempty"`
	TraceID  uint64        `json:"-"`
	CacheHit bool          `json:"plan_cached"`
	Rows     int64         `json:"rows"`
	Elapsed  time.Duration `json:"-"`
	Plan     string        `json:"plan"`
}

type queryRecorder struct {
	min      time.Duration
	captured atomic.Uint64

	mu   sync.Mutex
	ring []QueryRecord
	pos  int
}

func (r *queryRecorder) record(q QueryRecord) {
	r.captured.Add(1)
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, q)
	} else {
		r.ring[r.pos] = q
		r.pos = (r.pos + 1) % cap(r.ring)
	}
	r.mu.Unlock()
}

// EnableQueryRecorder turns on the slow-query flight recorder:
// QueryContext executions taking at least min are captured into a ring
// of the given capacity (<=0 selects 128). min <= 0 records every
// query — the full-analysis mode. Enabling replaces any previous
// recorder (and its captured entries).
func (db *DB) EnableQueryRecorder(capacity int, min time.Duration) {
	if capacity <= 0 {
		capacity = 128
	}
	db.recorder.Store(&queryRecorder{min: min, ring: make([]QueryRecord, 0, capacity)})
}

// RecorderEnabled reports whether the flight recorder is on, and its
// capture threshold when it is.
func (db *DB) RecorderEnabled() (bool, time.Duration) {
	r := db.recorder.Load()
	if r == nil {
		return false, 0
	}
	return true, r.min
}

// QueryRecords returns captured queries, newest first, skipping those
// faster than min; limit bounds the count (<=0 selects 32).
func (db *DB) QueryRecords(min time.Duration, limit int) []QueryRecord {
	r := db.recorder.Load()
	if r == nil {
		return nil
	}
	if limit <= 0 {
		limit = 32
	}
	r.mu.Lock()
	snap := make([]QueryRecord, len(r.ring))
	// Unroll the ring into chronological order: oldest entry sits at
	// pos once the ring has wrapped.
	n := len(r.ring)
	for i := 0; i < n; i++ {
		snap[i] = r.ring[(r.pos+i)%n]
	}
	r.mu.Unlock()
	out := make([]QueryRecord, 0, limit)
	for i := n - 1; i >= 0; i-- {
		if snap[i].Elapsed < min {
			continue
		}
		out = append(out, snap[i])
		if len(out) >= limit {
			break
		}
	}
	return out
}
