package rdb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testdata/compat holds files written by the last release that still
// carried catalog-v1 recovery: durable/ is the checkpointed directory
// buildCompat leaves (its catalog still has the retired per-table
// IndexSQL field). It must read back into the database buildCompat
// makes today.
const compatDir = "testdata/compat"

var compatSchema = []string{
	`CREATE TABLE author (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, email TEXT UNIQUE, born TIMESTAMP)`,
	`CREATE TABLE paper (oid INTEGER PRIMARY KEY, title TEXT NOT NULL, year INTEGER, score REAL, public BOOLEAN, author_oid INTEGER,
		FOREIGN KEY (author_oid) REFERENCES author(oid))`,
	`CREATE INDEX ix_paper_author ON paper (author_oid)`,
	`CREATE ORDERED INDEX ord_paper_year ON paper (year)`,
	`CREATE INDEX ix_paper_year_title ON paper (year, title)`,
	`CREATE TABLE country (code TEXT PRIMARY KEY, name TEXT NOT NULL)`,
	`CREATE TABLE tag (label TEXT NOT NULL, weight INTEGER, paper_oid INTEGER)`,
	`CREATE INDEX ix_tag_label ON tag (label)`,
}

// buildCompat makes the compat database: hash, ordered, composite and
// unique indexes, an auto-increment key, a text key and a table with no
// key at all, each with updated and deleted rows.
func buildCompat(t *testing.T, db *DB) {
	t.Helper()
	for _, s := range compatSchema {
		mustExec(t, db, s)
	}
	for i := 1; i <= 6; i++ {
		var email Value
		if i != 4 {
			email = fmt.Sprintf("a%d@x", i)
		}
		mustExec(t, db, `INSERT INTO author (name, email, born) VALUES (?, ?, ?)`,
			fmt.Sprintf("author %d", i), email, fmt.Sprintf("19%d-0%d-1%d", 50+i, i, i))
	}
	for i := 1; i <= 40; i++ {
		var score Value
		if i%5 != 0 {
			score = float64(i) / 4
		}
		mustExec(t, db, `INSERT INTO paper (oid, title, year, score, public, author_oid) VALUES (?, ?, ?, ?, ?, ?)`,
			i, fmt.Sprintf("p%02d", i), 1998+i%6, score, i%3 == 0, 1+i%5)
	}
	mustExec(t, db, `INSERT INTO country (code, name) VALUES ('it', 'Italy'), ('de', 'Germany'), ('fr', 'France')`)
	for i := 1; i <= 12; i++ {
		mustExec(t, db, `INSERT INTO tag (label, weight, paper_oid) VALUES (?, ?, ?)`, fmt.Sprintf("t%d", i%4), i, i)
	}
	for _, s := range []string{
		`UPDATE paper SET score = 9.5 WHERE year = 2001`,
		`DELETE FROM paper WHERE oid = 7`,
		`DELETE FROM paper WHERE oid = 40`,
		`DELETE FROM author WHERE oid = 6`,
		`UPDATE country SET name = 'Deutschland' WHERE code = 'de'`,
		`DELETE FROM tag WHERE weight = 3`,
	} {
		mustExec(t, db, s)
	}
	for w := 10; w <= 12; w++ {
		mustExec(t, db, `UPDATE tag SET weight = ? WHERE weight = ?`, w+100, w)
	}
}

// compatQueries read through every index buildCompat declares.
var compatQueries = []string{
	`SELECT * FROM author ORDER BY oid`,
	`SELECT name FROM author WHERE email = 'a3@x'`,
	`SELECT * FROM paper WHERE author_oid = 2 ORDER BY oid`,
	`SELECT oid, title FROM paper WHERE year >= 2000 AND year <= 2001 ORDER BY year, oid`,
	`SELECT oid FROM paper WHERE year = 2001 AND title = 'p15'`,
	`SELECT a.name, p.title FROM paper p JOIN author a ON a.oid = p.author_oid ORDER BY p.oid`,
	`SELECT COUNT(*) FROM paper`,
	`SELECT name FROM country WHERE code = 'de'`,
	`SELECT * FROM tag WHERE label = 't1' ORDER BY weight`,
	`SELECT label, weight, paper_oid FROM tag ORDER BY weight`,
}

// sameAsFresh checks that db answers every compat query as a freshly
// built database does, and that both hold the same catalog (every
// table's schema and indexes) and the same rows, table by table in key
// order. It returns the fresh database.
func sameAsFresh(t *testing.T, db *DB) *DB {
	t.Helper()
	fresh := Open()
	buildCompat(t, fresh)
	for _, q := range compatQueries {
		if got, want := mustQuery(t, db, q), mustQuery(t, fresh, q); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\ngot  %v\nwant %v", q, got.Data, want.Data)
		}
	}
	names := fresh.TableNames()
	if got := db.TableNames(); !reflect.DeepEqual(got, names) {
		t.Fatalf("tables = %v, want %v", got, names)
	}
	for _, name := range names {
		got, err := db.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Describe(%s):\ngot  %+v\nwant %+v", name, got, want)
		}
		// A keyless table is ordered by every column.
		order := want.PrimaryKey
		if order == "" {
			cols := make([]string, len(want.Columns))
			for i, c := range want.Columns {
				cols[i] = c.Name
			}
			order = strings.Join(cols, ", ")
		}
		q := "SELECT * FROM " + name + " ORDER BY " + order
		if got, want := mustQuery(t, db, q), mustQuery(t, fresh, q); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\ngot  %v\nwant %v", q, got.Data, want.Data)
		}
	}
	return fresh
}

// TestCompatDurableDirectory: the committed directory opens marker-only
// and reads as the fresh database, before and after its first
// checkpoint under this release; its auto-increment counter survives
// both.
func TestCompatDurableDirectory(t *testing.T) {
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Join(compatDir, "durable"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(compatDir, "durable", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.EngineStats().RowsResident; n != 0 {
		t.Fatalf("RowsResident = %d after open, want 0 (marker recovery)", n)
	}
	sameAsFresh(t, db)
	db = reopen(t, db, dir)
	defer db.Close()
	fresh := sameAsFresh(t, db)
	// The deleted author 6 keeps its oid from reuse on both.
	const next = `INSERT INTO author (name) VALUES ('next')`
	if got, want := mustExec(t, db, next).LastInsertID, mustExec(t, fresh, next).LastInsertID; got != want || want != 7 {
		t.Errorf("next author oid = %d, a fresh database assigns %d (want 7)", got, want)
	}
}
