package rdb

import (
	"fmt"
	"testing"
)

// Ablation benchmarks for the data-tier design choices DESIGN.md calls
// out: the statement cache (descriptors carry SQL text, so every unit
// computation re-submits the same string) and index-assisted access
// paths (the generator indexes every FK column).

func benchDB(b *testing.B, rows int, withIndex bool) *DB {
	b.Helper()
	db := Open()
	if _, err := db.Exec(`CREATE TABLE item (oid INTEGER PRIMARY KEY AUTOINCREMENT, grp INTEGER, name TEXT)`); err != nil {
		b.Fatal(err)
	}
	if withIndex {
		if _, err := db.Exec(`CREATE INDEX idx_item_grp ON item(grp)`); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(`INSERT INTO item (grp, name) VALUES (?, ?)`,
			int64(i%100), fmt.Sprintf("item-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkStatementCacheHit(b *testing.B) {
	db := benchDB(b, 100, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT name FROM item WHERE oid = ?`, int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatementParseEveryTime(b *testing.B) {
	db := benchDB(b, 100, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A unique comment defeats the cache: full lex+parse per call.
		sql := fmt.Sprintf(`SELECT name FROM item WHERE oid = ? -- %d`, i)
		if _, err := db.Query(sql, int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEqualityViaIndex(b *testing.B) {
	db := benchDB(b, 10000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT COUNT(*) FROM item WHERE grp = ?`, int64(i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEqualityViaScan(b *testing.B) {
	db := benchDB(b, 10000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT COUNT(*) FROM item WHERE grp = ?`, int64(i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedJoin(b *testing.B) {
	db := benchDB(b, 5000, true)
	if _, err := db.Exec(`CREATE TABLE grp (oid INTEGER PRIMARY KEY AUTOINCREMENT, label TEXT)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(`INSERT INTO grp (label) VALUES (?)`, fmt.Sprintf("g%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`
			SELECT i.name FROM grp g JOIN item i ON i.grp = g.oid WHERE g.oid = ?`,
			int64(i%100+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// planBenchDB is the fixture for the compiled-vs-interpreted pairs: a
// 10k-row table with a composite (grp, price) index and an ordered name
// index, so every planner access path has a benchmark.
func planBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open()
	for _, s := range []string{
		`CREATE TABLE prod (oid INTEGER PRIMARY KEY AUTOINCREMENT, grp INTEGER, price INTEGER, name TEXT NOT NULL)`,
		`CREATE INDEX ix_prod ON prod(grp, price)`,
		`CREATE ORDERED INDEX ord_prod_name ON prod(name)`,
	} {
		if _, err := db.Exec(s); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		if _, err := db.Exec(`INSERT INTO prod (grp, price, name) VALUES (?, ?, ?)`,
			int64(i%100), int64(i%500), fmt.Sprintf("p%06d", i)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// runQueryBench runs one SQL through either engine; the Compiled/
// Interpreted pairs below share it so the ratio isolates the planner.
func runQueryBench(b *testing.B, interpreted bool, sql string, args ...Value) {
	db := planBenchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if interpreted {
			_, err = db.queryOracle(sql, args...)
		} else {
			_, err = db.Query(sql, args...)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectiveLookupCompiled(b *testing.B) {
	runQueryBench(b, false, `SELECT name FROM prod WHERE grp = ? AND price = ?`, int64(7), int64(107))
}

func BenchmarkSelectiveLookupInterpreted(b *testing.B) {
	runQueryBench(b, true, `SELECT name FROM prod WHERE grp = ? AND price = ?`, int64(7), int64(107))
}

func BenchmarkCompositeRangeCompiled(b *testing.B) {
	runQueryBench(b, false, `SELECT name FROM prod WHERE grp = ? AND price > ? AND price < ?`, int64(7), int64(100), int64(200))
}

func BenchmarkCompositeRangeInterpreted(b *testing.B) {
	runQueryBench(b, true, `SELECT name FROM prod WHERE grp = ? AND price > ? AND price < ?`, int64(7), int64(100), int64(200))
}

func BenchmarkOrderByLimitCompiled(b *testing.B) {
	runQueryBench(b, false, `SELECT name FROM prod ORDER BY name LIMIT 20`)
}

func BenchmarkOrderByLimitInterpreted(b *testing.B) {
	runQueryBench(b, true, `SELECT name FROM prod ORDER BY name LIMIT 20`)
}

func BenchmarkInsertWithIndexes(b *testing.B) {
	db := benchDB(b, 0, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`INSERT INTO item (grp, name) VALUES (?, ?)`, int64(i%100), "x"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransactionCommit(b *testing.B) {
	db := benchDB(b, 100, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(`UPDATE item SET name = ? WHERE oid = ?`, "y", int64(i%100+1)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
