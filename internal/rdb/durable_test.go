package rdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// reopen closes db and opens the directory again, failing the test on
// any error.
func reopen(t *testing.T, db *DB, dir string) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return db2
}

func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE users (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, email TEXT UNIQUE, score REAL, active BOOLEAN, joined TIMESTAMP)`)
	mustExec(t, db, `CREATE INDEX ix_users_name ON users (name)`)
	mustExec(t, db, `CREATE ORDERED INDEX ord_users_score ON users (score)`)
	joined := time.Date(2024, 5, 1, 9, 30, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO users (name, email, score, active, joined) VALUES (?, ?, ?, ?, ?)`,
			fmt.Sprintf("user%02d", i), fmt.Sprintf("u%02d@x", i), float64(i)/2, i%2 == 0, joined)
	}
	mustExec(t, db, `UPDATE users SET score = 99.5 WHERE id = 7`)
	mustExec(t, db, `DELETE FROM users WHERE id = 9`)

	db = reopen(t, db, dir)
	defer db.Close()
	if got := db.EngineName(); got != "durable" {
		t.Fatalf("engine = %q", got)
	}
	if n, err := db.RowCount("users"); err != nil || n != 49 {
		t.Fatalf("rows = %d, %v", n, err)
	}
	row, err := db.QueryRow(`SELECT name, score, active, joined FROM users WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if row["name"] != "user06" || row["score"] != 99.5 || row["active"] != true {
		t.Fatalf("row 7 = %#v", row)
	}
	if ts, ok := row["joined"].(time.Time); !ok || !ts.Equal(joined) {
		t.Fatalf("joined = %#v", row["joined"])
	}
	if row, _ := db.QueryRow(`SELECT id FROM users WHERE id = 9`); row != nil {
		t.Fatalf("deleted row survived: %#v", row)
	}
	// Auto-increment must continue where it left off.
	res, err := db.Exec(`INSERT INTO users (name) VALUES ('after')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 51 {
		t.Fatalf("LastInsertID = %d, want 51", res.LastInsertID)
	}
	// Secondary indexes must have been rebuilt (the planner can use them).
	rows, err := db.Query(`SELECT email FROM users WHERE name = 'user11'`)
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Value() != "u11@x" {
		t.Fatalf("index query: %v %v", rows, err)
	}
}

func TestDurableNoIntPKAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Tiny checkpoint threshold: every few commits trigger a rewrite.
	db, err := OpenDurableOpts(dir, DurableOptions{CheckpointBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE tags (label TEXT NOT NULL, weight INTEGER)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, `INSERT INTO tags (label, weight) VALUES (?, ?)`, fmt.Sprintf("t%03d", i), int64(i))
	}
	mustExec(t, db, `DELETE FROM tags WHERE weight < 10`)
	mustExec(t, db, `UPDATE tags SET weight = 1000 WHERE weight >= 90`)
	if st := db.EngineStats(); st.Checkpoints == 0 {
		t.Fatalf("expected automatic checkpoints, got %+v", st)
	}

	db = reopen(t, db, dir)
	defer db.Close()
	if n, _ := db.RowCount("tags"); n != 90 {
		t.Fatalf("rows = %d, want 90", n)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM tags WHERE weight = 1000`)
	if err != nil || rows.Data[0][0].Value() != int64(10) {
		t.Fatalf("updated rows: %v %v", rows, err)
	}
	// Synthetic record ids must not collide after reopen.
	for i := 0; i < 10; i++ {
		mustExec(t, db, `INSERT INTO tags (label, weight) VALUES (?, ?)`, fmt.Sprintf("n%d", i), int64(i))
	}
	db = reopen(t, db, dir)
	defer db.Close()
	if n, _ := db.RowCount("tags"); n != 100 {
		t.Fatalf("rows after second reopen = %d, want 100", n)
	}
}

func TestDurableDDLAndTx(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE a (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER, FOREIGN KEY (aid) REFERENCES a(id))`)
	mustExec(t, db, `INSERT INTO a (id, v) VALUES (1, 'one'), (2, 'two')`)

	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO b (id, aid) VALUES (10, 1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE a SET v = 'ONE' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin()
	if _, err := tx.Exec(`DELETE FROM a WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	db = reopen(t, db, dir)
	defer db.Close()

	if row, _ := db.QueryRow(`SELECT v FROM a WHERE id = 1`); row == nil || row["v"] != "ONE" {
		t.Fatalf("committed tx lost: %#v", row)
	}
	if row, _ := db.QueryRow(`SELECT v FROM a WHERE id = 2`); row == nil || row["v"] != "two" {
		t.Fatalf("rolled-back delete applied: %#v", row)
	}
	if names := db.TableNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("tables = %v", names)
	}
	if row, _ := db.QueryRow(`SELECT aid FROM b WHERE id = 10`); row == nil || row["aid"] != int64(1) {
		t.Fatalf("committed tx lost its insert into b: %#v", row)
	}
	// Stats surface WAL/pool counters (fresh instance: count a write).
	mustExec(t, db, `INSERT INTO a (id, v) VALUES (3, 'three')`)
	st := db.EngineStats()
	if st.WALAppends == 0 || st.WALFsyncs == 0 {
		t.Fatalf("no engine activity recorded: %+v", st)
	}
}

// TestPageFileVersionOneRefused: a page file whose meta slots say
// version 1 (checksums intact) is refused at open with an error naming
// the version, so a version-1 catalog, which only such a file held, can
// never reach recovery.
func TestPageFileVersionOneRefused(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (oid INTEGER PRIMARY KEY, s TEXT)`)
	mustExec(t, db, `INSERT INTO t (oid, s) VALUES (1, 'one')`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, pagesFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 4096
	rewritten := 0
	for slot := 0; slot < 2; slot++ {
		m := data[slot*pageSize : slot*pageSize+40]
		if binary.LittleEndian.Uint32(m[4:8]) != 2 {
			continue // a slot no checkpoint has written yet
		}
		binary.LittleEndian.PutUint32(m[4:8], 1)
		binary.LittleEndian.PutUint32(m[36:40], crc32.Checksum(m[0:36], crc32.MakeTable(crc32.Castagnoli)))
		rewritten++
	}
	if rewritten == 0 {
		t.Fatal("no meta slot to rewrite")
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("open of a version-1 page file: %v", err)
	}
}

// TestFreshDirectoryNewestSlotCorrupt: a fresh page file has two valid
// meta slots, and the older one is the catalog-less empty image. With
// the newest slot corrupt, OpenDurable falls back to that image and
// fails on its missing catalog; it must not open as an empty database.
func TestFreshDirectoryNewestSlotCorrupt(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, pagesFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	const pageSize = 4096
	if binary.LittleEndian.Uint64(data[28:36]) != 1 || binary.LittleEndian.Uint64(data[pageSize+28:pageSize+36]) != 2 {
		t.Fatal("a fresh page file should hold generation 1 in slot 0 and generation 2 in slot 1")
	}
	data[pageSize+10] ^= 0xFF // inside slot 1's checkpoint sequence, covered by its CRC
	crashed := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashed, pagesFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenDurable(crashed); err == nil || !strings.Contains(err.Error(), "rdb: decode catalog") {
		if db != nil {
			db.Close()
		}
		t.Fatalf("open with the newest slot corrupt: err = %v, want the catalog error", err)
	}
}

// TestCatalogVersionOneRefused: the catalog decoder reads version 2 only.
func TestCatalogVersionOneRefused(t *testing.T) {
	for _, v := range []int{1, 3} {
		blob, err := encodeCatalog(&catalogFile{Version: v, Tables: []catTable{{Name: "t", CreateSQL: `CREATE TABLE t (oid INTEGER PRIMARY KEY)`}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeCatalog(blob); err == nil || err.Error() != fmt.Sprintf("rdb: unsupported catalog version %d", v) {
			t.Errorf("version %d: %v", v, err)
		}
	}
}
