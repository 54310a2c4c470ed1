package rdb

import (
	"bytes"
	"strings"
	"testing"
)

func TestDumpRestoreRoundTrip(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `DELETE FROM paper WHERE oid = 2`) // leave a tombstone
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same table set.
	if got, want := strings.Join(back.TableNames(), ","), strings.Join(db.TableNames(), ","); got != want {
		t.Fatalf("tables = %q, want %q", got, want)
	}
	// Same row counts.
	for _, name := range db.TableNames() {
		a, _ := db.RowCount(name)
		b, _ := back.RowCount(name)
		if a != b {
			t.Fatalf("%s: %d != %d", name, a, b)
		}
	}
	// Data intact, queries work (joins through indexes rebuilt).
	rows := mustQuery(t, back, `
		SELECT p.title FROM paper p
		JOIN issue i ON i.oid = p.issue_oid
		WHERE i.volume_oid = ? ORDER BY p.title`, 1)
	if rows.Len() != 2 || rows.Data[0][0].Value() != "Caching Dynamic Content" || rows.Data[1][0].Value() != "Query Optimization" {
		t.Fatalf("got %v", rows.Data)
	}
	// Auto-increment continues past the snapshot.
	res := mustExec(t, back, `INSERT INTO paper (title, pages, issue_oid) VALUES ('New', 1, 1)`)
	if res.LastInsertID != 5 {
		t.Fatalf("auto-increment = %d", res.LastInsertID)
	}
	// Constraints survive.
	if _, err := back.Exec(`INSERT INTO volume (oid, title) VALUES (1, 'dup')`); err == nil {
		t.Fatal("pk constraint lost after restore")
	}
	if _, err := back.Exec(`INSERT INTO issue (number, volume_oid) VALUES (1, 99)`); err == nil {
		t.Fatal("fk constraint lost after restore")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDumpIsDeterministic(t *testing.T) {
	db := testDB(t)
	var a, b bytes.Buffer
	if err := db.Dump(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("dump not deterministic")
	}
}

func TestExplainAccessPaths(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want []string
	}{
		{`SELECT * FROM volume WHERE oid = 1`,
			[]string{"ACCESS volume BY PRIMARY KEY ON oid"}},
		// The primary key as an order and a range, no index DDL needed.
		{`SELECT * FROM paper t ORDER BY t.oid`,
			[]string{"ACCESS paper BY ORDERED INDEX ON oid (est 4 rows)", "ORDER BY INDEX (sort eliminated, 1 keys)"}},
		{`SELECT * FROM paper t ORDER BY t.oid DESC LIMIT 2 OFFSET 1`,
			[]string{"ACCESS paper BY ORDERED INDEX ON oid (est 2 rows after 1 entries skipped)", "sort eliminated", "LIMIT"}},
		{`SELECT * FROM paper t ORDER BY t.oid LIMIT 2 OFFSET ?`,
			[]string{"ACCESS paper BY ORDERED INDEX ON oid (est 4 rows)", "sort eliminated"}},
		{`SELECT * FROM paper WHERE oid > ? ORDER BY oid`,
			[]string{"ACCESS paper BY RANGE ON oid", "sort eliminated"}},
		// The live-row count as an answer; a filtered count still reads rows.
		{`SELECT COUNT(*) FROM paper t`,
			[]string{"CARDINALITY OF paper (4 rows, none read)\nPLAN"}},
		{`SELECT COUNT(*) FROM paper WHERE pages > 22`,
			[]string{"SCAN paper (4 rows)"}},
		// A foreign-key bucket beats walking the whole key for its order
		// (relationship units, hierarchical levels).
		{`SELECT * FROM issue t WHERE t.volume_oid = ? ORDER BY t.oid`,
			[]string{"ACCESS issue BY INDEX ON volume_oid", "SORT 1 keys"}},
		{`SELECT * FROM issue WHERE volume_oid = 1`,
			[]string{"ACCESS issue BY INDEX ON volume_oid"}},
		{`SELECT * FROM volume WHERE title = 'x'`,
			[]string{"SCAN volume"}},
		{`SELECT * FROM volume v JOIN issue i ON i.volume_oid = v.oid WHERE v.oid = 1`,
			[]string{"ACCESS volume BY PRIMARY KEY", "INNER JOIN issue BY INDEX ON volume_oid"}},
		{`SELECT * FROM volume v LEFT JOIN issue i ON i.number = v.year`,
			[]string{"SCAN volume", "LEFT JOIN issue BY NESTED LOOP"}},
		{`SELECT issue_oid, COUNT(*) FROM paper GROUP BY issue_oid ORDER BY issue_oid LIMIT 5`,
			[]string{"SCAN paper", "GROUP BY 1 keys", "SORT 1 keys", "LIMIT"}},
		// A write is the plan of the rows it writes.
		{`UPDATE paper SET pages = ? WHERE oid = ?`,
			[]string{"UPDATE paper\nACCESS paper BY PRIMARY KEY ON oid (est 1 rows)\nPLAN"}},
		{`DELETE FROM paper WHERE oid > ?`,
			[]string{"DELETE FROM paper\nACCESS paper BY RANGE ON oid"}},
		{`DELETE FROM issue WHERE volume_oid = ? AND number = ?`,
			[]string{"DELETE FROM issue\nACCESS issue BY INDEX ON volume_oid"}},
		{`DELETE FROM paper`,
			[]string{"DELETE FROM paper\nSCAN paper (4 rows)\nPLAN"}},
	}
	for _, c := range cases {
		plan, err := db.Explain(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		for _, w := range c.want {
			if !strings.Contains(plan, w) {
				t.Errorf("%s:\nplan %q\nmissing %q", c.sql, plan, w)
			}
		}
	}
	if _, err := db.Explain(`INSERT INTO volume (title) VALUES ('x')`); err == nil || !strings.Contains(err.Error(), "EXPLAIN supports SELECT, UPDATE and DELETE") {
		t.Fatalf("EXPLAIN of INSERT: %v", err)
	}
	if _, err := db.Explain(`SELECT * FROM ghost`); err == nil {
		t.Fatal("EXPLAIN of unknown table accepted")
	}
}

func TestExplainUniqueAccess(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE u (oid INTEGER PRIMARY KEY, email TEXT UNIQUE)`)
	plan, err := db.Explain(`SELECT * FROM u WHERE email = 'a@x'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "BY UNIQUE ON email") {
		t.Fatalf("plan = %q", plan)
	}
}
