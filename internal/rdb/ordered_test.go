package rdb

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func orderedDB(t *testing.T, vals []int64) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE m (oid INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER, label TEXT)`)
	mustExec(t, db, `CREATE ORDERED INDEX om ON m(v)`)
	for i, v := range vals {
		mustExec(t, db, `INSERT INTO m (v, label) VALUES (?, ?)`, v, fmt.Sprintf("r%d", i))
	}
	return db
}

func TestOrderedIndexRangeQueries(t *testing.T) {
	db := orderedDB(t, []int64{5, 1, 9, 3, 7, 3, 8})
	cases := []struct {
		where string
		want  int64
	}{
		{"v > 3", 4},
		{"v >= 3", 6},
		{"v < 5", 3},
		{"v <= 5", 4},
		{"v >= 3 AND v <= 7", 4},
		{"v > 2 AND v < 8", 4},
		{"v > 100", 0},
		{"v < 0", 0},
	}
	for _, c := range cases {
		rows := mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE `+c.where)
		if rows.Data[0][0].Value() != c.want {
			t.Errorf("WHERE %s: got %v, want %d", c.where, rows.Data[0][0].Value(), c.want)
		}
	}
}

func TestOrderedIndexPlanUsed(t *testing.T) {
	db := orderedDB(t, []int64{1, 2, 3})
	plan, err := db.Explain(`SELECT * FROM m WHERE v > 1 AND v < 3`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "ACCESS m BY RANGE ON v") {
		t.Fatalf("plan = %q", plan)
	}
	// Without the ordered index a range predicate scans.
	db2 := Open()
	mustExec(t, db2, `CREATE TABLE m (oid INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)`)
	plan2, err := db2.Explain(`SELECT * FROM m WHERE v > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan2, "SCAN m") {
		t.Fatalf("plan = %q", plan2)
	}
}

func TestOrderedIndexWithParams(t *testing.T) {
	db := orderedDB(t, []int64{10, 20, 30, 40})
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE v >= ? AND v <= ?`, 15, 35)
	if rows.Data[0][0].Value() != int64(2) {
		t.Fatalf("got %v", rows.Data[0][0].Value())
	}
}

func TestOrderedIndexMaintainedOnWrite(t *testing.T) {
	db := orderedDB(t, []int64{1, 2, 3})
	mustExec(t, db, `UPDATE m SET v = 100 WHERE v = 2`)
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE v > 50`)
	if rows.Data[0][0].Value() != int64(1) {
		t.Fatalf("after update: %v", rows.Data[0][0].Value())
	}
	mustExec(t, db, `DELETE FROM m WHERE v = 100`)
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE v > 50`)
	if rows.Data[0][0].Value() != int64(0) {
		t.Fatalf("after delete: %v", rows.Data[0][0].Value())
	}
	// Rollback restores index entries.
	tx := db.Begin()
	if _, err := tx.Exec(`UPDATE m SET v = 500 WHERE v = 1`); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE v >= 500`)
	if rows.Data[0][0].Value() != int64(0) {
		t.Fatal("rollback left ghost index entry")
	}
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE v <= 1`)
	if rows.Data[0][0].Value() != int64(1) {
		t.Fatal("rollback lost index entry")
	}
}

func TestOrderedIndexIgnoresNulls(t *testing.T) {
	db := orderedDB(t, nil)
	mustExec(t, db, `INSERT INTO m (v, label) VALUES (NULL, 'n'), (1, 'a')`)
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE v >= 0`)
	if rows.Data[0][0].Value() != int64(1) {
		t.Fatalf("got %v", rows.Data[0][0].Value())
	}
}

func TestOrderedIndexOnText(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE w (oid INTEGER PRIMARY KEY AUTOINCREMENT, s TEXT)`)
	mustExec(t, db, `CREATE ORDERED INDEX ow ON w(s)`)
	mustExec(t, db, `INSERT INTO w (s) VALUES ('banana'), ('apple'), ('cherry')`)
	rows := mustQuery(t, db, `SELECT s FROM w WHERE s >= 'b' AND s < 'c' ORDER BY s`)
	if rows.Len() != 1 || rows.Data[0][0].Value() != "banana" {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestCreateOrderedIndexErrors(t *testing.T) {
	db := orderedDB(t, nil)
	if _, err := db.Exec(`CREATE ORDERED INDEX bad ON m(ghost)`); err == nil {
		t.Fatal("ordered index on missing column accepted")
	}
	// Idempotent re-creation.
	mustExec(t, db, `CREATE ORDERED INDEX om2 ON m(v)`)
}

// Property: a sorted index answers what a scan answers, for arbitrary
// data and bounds: ranges, equality, and ORDER BY walks in both
// directions through LIMIT/OFFSET windows, over a nullable column holding
// NULLs and duplicates, after inserts, updates and deletes — on the memory
// engine, and on a durable one before and after a reopen rebuilds the
// index from its image. Every answer matches the oracle, which scans and
// sorts, and an unindexed copy of the table.
func TestOrderedRangeEquivalenceProperty(t *testing.T) {
	type stmt struct {
		sql  string
		args []Value
	}
	f := func(vals []int16, loRaw, hiRaw int16) bool {
		// Sixteen values and a NULL for every fourth: duplicates and NULLs.
		val := func(x int16) Value {
			if x%4 == 0 {
				return nil
			}
			return int64(x % 16)
		}
		lo, hi := int64(loRaw%16), int64(hiRaw%16)
		limit, offset := int64(uint16(hiRaw)%8), int64(uint16(loRaw)%8)
		probes := []stmt{
			{`SELECT COUNT(*) FROM t WHERE v > ? AND v < ?`, []Value{lo, hi}},
			{`SELECT COUNT(*) FROM t WHERE v >= ? AND v <= ?`, []Value{lo, hi}},
			{`SELECT COUNT(*) FROM t WHERE v > ?  AND v <= ?`, []Value{lo, hi}},
			{`SELECT oid, v FROM t WHERE v = ?`, []Value{lo}},
			{`SELECT oid, v FROM t WHERE v >= ? ORDER BY v`, []Value{lo}},
			{`SELECT oid, v FROM t WHERE v < ? ORDER BY v DESC`, []Value{hi}},
			{`SELECT oid, v FROM t ORDER BY v LIMIT 5 OFFSET ?`, []Value{offset}},
			{`SELECT oid, v FROM t ORDER BY v DESC LIMIT ? OFFSET ?`, []Value{limit, offset}},
		}
		steps := [][]stmt{
			nil,
			{{`UPDATE t SET v = NULL WHERE v = ?`, []Value{lo}}, {`UPDATE t SET v = ? WHERE oid > ?`, []Value{hi, lo}}},
			{{`DELETE FROM t WHERE v > ?`, []Value{hi}}, {`INSERT INTO t (v) VALUES (NULL), (?), (?)`, []Value{lo, lo}}},
		}
		plain := Open()
		mustExec(t, plain, `CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)`)
		dir := t.TempDir()
		dur, err := OpenDurable(dir)
		if err != nil {
			t.Fatal(err)
		}
		indexed := []*DB{Open(), dur}
		for _, db := range indexed {
			mustExec(t, db, `CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)`)
			mustExec(t, db, `CREATE ORDERED INDEX it ON t(v)`)
		}
		all := append([]*DB{plain}, indexed...)
		for _, x := range vals {
			for _, db := range all {
				mustExec(t, db, `INSERT INTO t (v) VALUES (?)`, val(x))
			}
		}
		check := func(db *DB) {
			for _, p := range probes {
				compareEngines(t, db, p.sql, p.args)
				compareDBs(t, "ordered", plain, db, p.sql, p.args)
			}
		}
		for _, step := range steps {
			for _, st := range step {
				for _, db := range all {
					mustExec(t, db, st.sql, st.args...)
				}
			}
			for _, db := range indexed {
				check(db)
			}
		}
		dur = reopen(t, dur, dir)
		check(dur)
		return dur.Close() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRangedDeleteAndUpdateUseIndexPath(t *testing.T) {
	db := orderedDB(t, []int64{1, 2, 3, 4, 5, 6})
	res, err := db.Exec(`DELETE FROM m WHERE v > 4`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("deleted %d", res.RowsAffected)
	}
	res, err = db.Exec(`UPDATE m SET label = 'low' WHERE v <= 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("updated %d", res.RowsAffected)
	}
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE label = 'low'`)
	if rows.Data[0][0].Value() != int64(2) {
		t.Fatalf("got %v", rows.Data)
	}
}
