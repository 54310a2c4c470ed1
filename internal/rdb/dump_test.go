package rdb

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strconv"
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

// dumpStream gob-encodes a hand-built stream: the header, then each
// chunk as given (a complete stream ends with an empty chunk).
func dumpStream(f dumpFile, chunks ...dumpChunk) []byte {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&f); err != nil {
		panic(err)
	}
	for i := range chunks {
		if err := enc.Encode(&chunks[i]); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

type malformedDump struct {
	stream []byte
	err    string // what LoadDump's error contains
}

// malformedDumps are streams LoadDump must refuse, one per way it can
// refuse one. testdata/fuzz/FuzzLoadDump holds each under its name; gob
// numbers a type the first time a process encodes it, so the committed
// bytes need not equal these, only be refused the same way.
func malformedDumps() map[string]malformedDump {
	cols := func() []ColumnDef {
		return []ColumnDef{{Name: "oid", Type: TInt, PrimaryKey: true}, {Name: "n", Type: TInt}, {Name: "s", Type: TText}}
	}
	header := func(version int, name string, cols []ColumnDef) dumpFile {
		return dumpFile{Version: version, Tables: []dumpTable{{Name: name, Columns: cols}}}
	}
	one := header(2, "t", cols())
	rows := func(table string, rs ...[]Value) []dumpChunk { return []dumpChunk{{Table: table, Rows: rs}, {}} }
	badType := cols()
	badType[1].Type = ColType(99)
	ref := func(name, other string) dumpTable {
		return dumpTable{Name: name,
			Columns: []ColumnDef{{Name: "oid", Type: TInt, PrimaryKey: true}, {Name: "ref", Type: TInt}},
			FKs:     []ForeignKeyDef{{Column: "ref", RefTable: other, RefColumn: "oid"}}}
	}
	return map[string]malformedDump{
		"version-1":           {dumpStream(header(1, "t", cols()), dumpChunk{}), "rdb: restore: unsupported snapshot version 1"},
		"version-3":           {dumpStream(header(3, "t", cols()), dumpChunk{}), "rdb: restore: unsupported snapshot version 3"},
		"text-in-integer-key": {dumpStream(one, rows("t", []Value{"abc", int64(1), "x"})...), `rdb: restore row into "t": rdb: cannot store string in INTEGER column`},
		"text-in-integer":     {dumpStream(one, rows("t", []Value{int64(1), "notanint", "x"})...), `rdb: restore row into "t": rdb: cannot store string in INTEGER column`},
		"short-row":           {dumpStream(one, rows("t", []Value{int64(1), int64(2)})...), `rdb: restore: row arity mismatch in "t"`},
		"duplicate-key":       {dumpStream(one, rows("t", []Value{int64(1), nil, nil}, []Value{int64(1), nil, nil})...), `rdb: restore row into "t": rdb: duplicate primary key 1`},
		"unknown-table":       {dumpStream(one, rows("ghost", []Value{int64(1), nil, nil})...), `rdb: restore: chunk for unknown table "ghost"`},
		"unterminated":        {dumpStream(one, dumpChunk{Table: "t", Rows: [][]Value{{int64(1), nil, nil}}}), "rdb: restore: EOF"},
		"foreign-key-cycle":   {dumpStream(dumpFile{Version: 2, Tables: []dumpTable{ref("a", "b"), ref("b", "a")}}, dumpChunk{}), "rdb: restore: foreign-key cycle across tables"},
		"bad-column-type":     {dumpStream(header(2, "t", badType), dumpChunk{}), `rdb: restore DDL "CREATE TABLE t (oid INTEGER PRIMARY KEY, n ColType(99), s TEXT)"`},
		"bad-table-name":      {dumpStream(header(2, " t", cols()), dumpChunk{}), `rdb: restore: bad table name " t"`},
	}
}

// TestLoadDumpMalformed: every malformed stream is refused with its
// error, and the committed fuzz corpus is this set.
func TestLoadDumpMalformed(t *testing.T) {
	cases := malformedDumps()
	for name, c := range cases {
		if _, err := Restore(bytes.NewReader(c.stream)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error = %v, want %q", name, err, c.err)
		}
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadDump", name))
		if err != nil {
			t.Errorf("%s: corpus file: %v", name, err)
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		quoted, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		stream, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !ok || err != nil {
			t.Errorf("%s: corpus file is not one []byte:\n%s", name, data)
			continue
		}
		if _, err := Restore(strings.NewReader(stream)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: corpus stream error = %v, want %q", name, err, c.err)
		}
	}
	files, _ := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzLoadDump"))
	if len(files) != len(cases) {
		t.Errorf("corpus holds %d files, want the %d malformed streams", len(files), len(cases))
	}
}

// TestRestoreConvertsCellsToColumnTypes: a restored cell goes through
// the conversion INSERT applies, so a real in an INTEGER column lands as
// an integer and an integer in a REAL column as a real.
func TestRestoreConvertsCellsToColumnTypes(t *testing.T) {
	cols := []ColumnDef{{Name: "oid", Type: TInt, PrimaryKey: true}, {Name: "n", Type: TInt}, {Name: "r", Type: TReal}}
	stream := dumpStream(dumpFile{Version: 2, Tables: []dumpTable{{Name: "t", Columns: cols}}},
		dumpChunk{Table: "t", Rows: [][]Value{{int64(1), 3.5, int64(2)}}}, dumpChunk{})
	db, err := Restore(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	row, err := db.QueryRow(`SELECT n, r FROM t WHERE oid = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if row["n"] != int64(3) || row["r"] != 2.0 {
		t.Fatalf("row = %#v, want n int64(3) and r 2.0", row)
	}
}

// FuzzLoadDump: no stream panics LoadDump, and the dump of a database
// restored from an accepted stream restores to a database that dumps
// the same bytes.
func FuzzLoadDump(f *testing.F) {
	compat, err := os.ReadFile(filepath.Join(compatDir, "dump.gob"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compat)
	for _, c := range malformedDumps() {
		f.Add(c.stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Restore(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := db.Dump(&first); err != nil {
			t.Fatalf("dump of an accepted stream: %v", err)
		}
		back, err := Restore(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-dump does not restore: %v", err)
		}
		if err := back.Dump(&second); err != nil {
			t.Fatalf("dump of the restored re-dump: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-dump is not a fixpoint: %d then %d bytes", first.Len(), second.Len())
		}
	})
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
		{`SELECT * FROM volume v JOIN issue i ON i.number = v.year`,
			[]string{"SCAN volume", "INNER JOIN issue BY NESTED LOOP"}},
		{`SELECT issue_oid FROM paper ORDER BY issue_oid LIMIT 5`,
			[]string{"SCAN paper", "SORT 1 keys", "LIMIT"}},
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
