package rdb

import (
	"fmt"
	"testing"
)

// Durable-engine ablations for experiment E12: hot-set reads must stay
// within ~1.3x of the in-memory engine (they run against the same
// in-memory tables; the engine only shadows writes), while writes pay
// the WAL append + write-through + fsync.

func benchDurableDB(b *testing.B, rows int) *DB {
	b.Helper()
	db, err := OpenDurable(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	seedBenchRows(b, db, rows)
	return db
}

func seedBenchRows(b *testing.B, db *DB, rows int) {
	b.Helper()
	if _, err := db.Exec(`CREATE TABLE item (oid INTEGER PRIMARY KEY AUTOINCREMENT, grp INTEGER, name TEXT)`); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX idx_item_grp ON item(grp)`); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		if _, err := tx.Exec(`INSERT INTO item (grp, name) VALUES (?, ?)`,
			int64(i%100), fmt.Sprintf("item-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

func benchHotReads(b *testing.B, db *DB) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT name FROM item WHERE oid = ?`, int64(i%1000+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotReadMemory(b *testing.B) {
	db := Open()
	seedBenchRows(b, db, 1000)
	benchHotReads(b, db)
}

func BenchmarkHotReadDurable(b *testing.B) {
	benchHotReads(b, benchDurableDB(b, 1000))
}

func BenchmarkInsertDurable(b *testing.B) {
	db := benchDurableDB(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`INSERT INTO item (grp, name) VALUES (?, ?)`,
			int64(i%100), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertDurableGroupCommit measures the fsync amortization:
// many goroutines commit concurrently, so one WAL flush covers a batch
// of transactions instead of one apiece.
func BenchmarkInsertDurableGroupCommit(b *testing.B) {
	db := benchDurableDB(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.Exec(`INSERT INTO item (grp, name) VALUES (?, ?)`,
				int64(1), "bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := db.EngineStats()
	if st.WALAppends > 0 {
		b.ReportMetric(float64(st.WALAppends)/float64(st.WALFsyncs), "appends/fsync")
	}
}
