package rdb

import (
	"fmt"
	"testing"
)

// Paging-engine ablations for experiment E15: a dataset several times
// the configured memory budgets, read through eviction markers. Hot
// reads should ride the decoded-row cache; cold reads pay a page-tree
// fault; incremental checkpoints pay for dirty pages, not database
// size (the rdb-paging CI job runs them one iteration each).

func benchPagedDB(b *testing.B, rows int, opts DurableOptions) *DB {
	b.Helper()
	db, err := OpenDurableOpts(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	seedBenchRows(b, db, rows)
	return db
}

// BenchmarkPagingHotRead reads a 512-key hot set out of 8k rows with a
// 1024-row residency budget: after warmup every read hits the decoded
// row cache, so this is the E15 "hot set stays near-resident speed"
// path.
func BenchmarkPagingHotRead(b *testing.B) {
	db := benchPagedDB(b, 8000, DurableOptions{PoolPages: 512, ResidentRows: 1024})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT name FROM item WHERE oid = ?`, int64(i%512+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagingColdFault cycles uniformly through all 8k keys with a
// 1024-row cache, so nearly every read must fault the row back out of
// the page tree — the full anti-caching miss path.
func BenchmarkPagingColdFault(b *testing.B) {
	db := benchPagedDB(b, 8000, DurableOptions{PoolPages: 512, ResidentRows: 1024})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT name FROM item WHERE oid = ?`, int64(i%8000+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagingCheckpoint updates a fixed 64-row batch and takes an
// incremental checkpoint each iteration: the cost scales with the
// dirty set, not the database, so ns/op should hold steady as the
// seeded row count grows (E15's flat-checkpoint gate).
func BenchmarkPagingCheckpoint(b *testing.B) {
	db := benchPagedDB(b, 8000, DurableOptions{
		CheckpointBytes: 1 << 30, PoolPages: 512, ResidentRows: 1024,
	})
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		for k := 0; k < 64; k++ {
			if _, err := tx.Exec(`UPDATE item SET name = ? WHERE oid = ?`,
				fmt.Sprintf("upd-%d-%d", i, k), int64(i%100+k*64+1)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
