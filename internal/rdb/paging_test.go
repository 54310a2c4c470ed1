package rdb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"webmlgo/internal/rdb/storage/pager"
)

// Tests for the larger-than-RAM data tier: anti-caching row eviction,
// marker-based recovery from persisted index images, and their
// interaction under concurrency.

// pagingOpts squeezes the engine hard: a 16-page pool, a resident-row
// budget far below the datasets the tests build, and a checkpoint
// threshold small enough that sweeps, faults and incremental
// checkpoints all fire constantly.
var pagingOpts = DurableOptions{
	CheckpointBytes: 1 << 16,
	PoolPages:       64,
	ResidentRows:    16,
}

func openPaging(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := OpenDurableOpts(dir, pagingOpts)
	if err != nil {
		t.Fatalf("open paging engine: %v", err)
	}
	return db
}

func reopenPaging(t *testing.T, db *DB, dir string) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return openPaging(t, dir)
}

// TestDifferentialPagingEngine runs the full differential corpus on a
// paging engine whose resident-row budget (16) is far below the seeded
// dataset, so most slots are eviction markers and every query path
// exercises record faulting — then again after a close/reopen recovery
// cycle, which starts fully paged out.
func TestDifferentialPagingEngine(t *testing.T) {
	mem := diffFixture(t)
	dir := t.TempDir()
	dur := openPaging(t, dir)
	diffSeed(t, dur)
	// Force the budget's hand: bulk rows guarantee the seed tables
	// overflow 16 resident rows even before the corpus runs.
	if _, err := dur.Exec(`CREATE TABLE filler (oid INTEGER PRIMARY KEY, pad TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Exec(`CREATE TABLE filler (oid INTEGER PRIMARY KEY, pad TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		for _, db := range []*DB{mem, dur} {
			if _, err := db.Exec(`INSERT INTO filler (oid, pad) VALUES (?, ?)`,
				int64(i), strings.Repeat("x", 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ev := dur.EngineStats().RowsEvicted; ev == 0 {
		t.Fatal("no rows evicted despite resident budget of 16")
	}
	for _, c := range diffCorpus {
		compareEngines(t, dur, c.sql, c.args)
		compareDBs(t, "paging", mem, dur, c.sql, c.args)
	}
	dur = reopenPaging(t, dur, dir)
	defer dur.Close()
	for _, c := range diffCorpus {
		compareEngines(t, dur, c.sql, c.args)
		compareDBs(t, "paging-recovered", mem, dur, c.sql, c.args)
	}
}

// maskCorpus reads the same evicted rows through plans that decode
// different columns of them: narrow and wide, a star, joins, counts that
// read only their filter's columns, ORDER BY on a column the select list
// does not show and a self-join. In this order every row is faulted by a
// narrow plan and widened by later ones.
var maskCorpus = []string{
	`SELECT name FROM emp WHERE oid = 3`,
	`SELECT e.oid, e.salary FROM emp e WHERE e.salary > 20 ORDER BY e.oid`,
	`SELECT budget FROM dept WHERE oid = 1`,
	`SELECT name FROM emp ORDER BY bonus DESC, oid`,
	`SELECT * FROM emp ORDER BY oid`,
	`SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_oid = d.oid ORDER BY e.oid`,
	`SELECT d.name, e.name, e.bonus FROM dept d JOIN emp e ON e.dept_oid = d.oid ORDER BY d.oid, e.oid`,
	`SELECT COUNT(*) FROM emp WHERE salary > 20 AND bonus >= 0`,
	`SELECT dept_oid, name FROM emp ORDER BY dept_oid, oid`,
	`SELECT a.name, b.salary FROM emp a JOIN emp b ON b.dept_oid = a.dept_oid WHERE a.oid < b.oid ORDER BY a.oid, b.oid`,
	`SELECT salary FROM emp ORDER BY salary`,
	`SELECT COUNT(*) FROM emp WHERE bonus > 1`,
	`SELECT * FROM dept ORDER BY oid`,
	`SELECT oid FROM emp WHERE name = 'eve'`,
}

// TestDifferentialPagingMasks: a fault decodes only the columns its plan
// reads, so every corpus query runs twice on a fully paged-out database —
// first faulting its rows, then from the row cache, whose entries the
// queries before it left decoded to different widths — each time against
// the in-memory engine. Readers racing on the same entries widen them
// concurrently (run it under -race).
func TestDifferentialPagingMasks(t *testing.T) {
	mem := diffFixture(t)
	dir := t.TempDir()
	opts := pagingOpts
	opts.ResidentRows = 32 // the cache holds all 12 emp and dept rows
	dur, err := OpenDurableOpts(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	diffSeed(t, dur)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	if dur, err = OpenDurableOpts(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	for _, sql := range maskCorpus {
		for pass := 0; pass < 2; pass++ {
			compareDBs(t, fmt.Sprintf("pass %d", pass), mem, dur, sql, nil)
		}
	}
	if f := dur.EngineStats().RowFaults; f != 12 {
		t.Fatalf("the corpus faulted %d rows, want each of the 12 once (the rest are cache reads)", f)
	}
	want := map[string]string{}
	for _, sql := range maskCorpus {
		r, err := mem.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[sql] = rowsExact(r)
	}

	// Cold again, then four readers.
	dur = reopenPaging(t, dur, dir)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(maskCorpus); i++ {
				sql := maskCorpus[(i*(g+1)+g)%len(maskCorpus)]
				r, err := dur.Query(sql)
				if err == nil && rowsExact(r) != want[sql] {
					err = fmt.Errorf("%s:\n%s\nwant\n%s", sql, rowsExact(r), want[sql])
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPagingCorruptRecordIsAnError: a fault that finds a record's leaf
// cell overwritten with garbage, or no record at all, fails the statement
// that reads it — a point read, a scan, a join, a write's target search, a
// foreign-key scan, an index build, a dump — instead of dropping the row
// from a short result, an index or a backup. Reads that never touch the
// record are unaffected, and a failed build leaves no index behind.
func TestPagingCorruptRecordIsAnError(t *testing.T) {
	dir := t.TempDir()
	db := openPaging(t, dir)
	mustExecAll(t, db, []string{
		`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`,
		`CREATE TABLE ref (id INTEGER PRIMARY KEY, k INTEGER)`,
		`CREATE TABLE fk (id INTEGER PRIMARY KEY, v TEXT, FOREIGN KEY (v) REFERENCES kv(v))`,
	})
	for i := 0; i < 40; i++ {
		if _, err := db.Exec(`INSERT INTO kv (k, v) VALUES (?, ?)`, int64(i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`INSERT INTO ref (id, k) VALUES (?, ?)`, int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Damage record 7 and reopen: every slot is an eviction marker. Then
	// take record 9 from under its marker.
	tree := func(db *DB, do func(tree *pager.BTree, tid uint32) error) {
		e := db.engine.(*durableEngine)
		e.treeMu.Lock()
		defer e.treeMu.Unlock()
		if err := do(e.store.Tree(), e.tables["kv"].id); err != nil {
			t.Fatal(err)
		}
	}
	tree(db, func(tree *pager.BTree, tid uint32) error {
		return tree.Put(pager.MakeKey(tid, pkRecID(7)), []byte{2, tagInt, 0x80})
	})
	db = reopenPaging(t, db, dir)
	defer db.Close()
	tree(db, func(tree *pager.BTree, tid uint32) error {
		_, err := tree.Delete(pager.MakeKey(tid, pkRecID(9)))
		return err
	})
	for _, c := range []struct {
		sql  string
		args []Value
		want string
	}{
		{`SELECT v FROM kv WHERE k = ?`, []Value{int64(7)}, "rdb: corrupt record with key 7 of \"kv\": bad varint"},
		{`SELECT v FROM kv WHERE k = ?`, []Value{int64(9)}, "rdb: corrupt record with key 9 of \"kv\": not in the page store"},
		{`SELECT COUNT(*) FROM kv WHERE v <> ''`, nil, "rdb: corrupt record "},
		{`SELECT r.id, kv.v FROM ref r JOIN kv ON kv.k = r.k`, nil, "rdb: corrupt record "},
		{`UPDATE kv SET v = 'x' WHERE k > ?`, []Value{int64(0)}, "rdb: corrupt record "},
		{`DELETE FROM kv WHERE k = ?`, []Value{int64(7)}, "rdb: corrupt record "},
		// kv.v has no index, so a scan checks the reference: the record it
		// cannot read is not a foreign-key violation.
		{`INSERT INTO fk (id, v) VALUES (1, ?)`, []Value{"v7"}, "rdb: corrupt record with key 7 "},
		{`CREATE INDEX ix_v ON kv(v)`, nil, "rdb: corrupt record with key 7 "},
		{`CREATE ORDERED INDEX ord_v ON kv(v)`, nil, "rdb: corrupt record with key 7 "},
		{`CREATE INDEX comp_kv ON kv(v, k)`, nil, "rdb: corrupt record with key 7 "},
	} {
		var err error
		if strings.HasPrefix(c.sql, "SELECT") {
			_, err = db.Query(c.sql, c.args...)
		} else {
			_, err = db.Exec(c.sql, c.args...)
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s %v: err = %v, want %q...", c.sql, c.args, err, c.want)
		}
	}
	if kv := db.tables["kv"]; len(kv.indexes)+len(kv.composites) != 0 {
		t.Errorf("a failed build left an index: %d hash, %d sorted", len(kv.indexes), len(kv.composites))
	}
	if _, err := db.Query(`SELECT * FROM kv`); err == nil || !strings.HasPrefix(err.Error(), "rdb: corrupt record with key 7 ") {
		t.Errorf("full scan: err = %v, want the corrupt record", err)
	}
	if _, err := db.Query(`SELECT v FROM kv WHERE k = 7`); errors.Unwrap(err) == nil {
		t.Errorf("the decode failure is not wrapped: %v", err)
	}
	r, err := db.Query(`SELECT v FROM kv WHERE k < 7 ORDER BY k`)
	if err != nil || r.Len() != 7 {
		t.Fatalf("reads around the damage: %v rows, err %v", r, err)
	}
	if r, err := db.Query(`SELECT COUNT(*) FROM kv WHERE k > 9 AND v <> ''`); err != nil || r.Data[0][0].Value() != int64(30) {
		t.Fatalf("reads around the damage: %v, err %v", r, err)
	}
}

// TestRowCacheRetentionBounded: a cached entry pins the image chunk and
// the row chunk its fault cut it from, so what a 16-entry cache keeps
// alive after a 20,000-row scan is bounded by 16 of each chunk cap, not by
// the scan. A chunk that grew with the scan would keep about a megabyte
// behind the survivors.
func TestRowCacheRetentionBounded(t *testing.T) {
	const rows, width = 20000, 4
	dir := t.TempDir()
	opts := DurableOptions{PoolPages: 64, ResidentRows: 16}
	db, err := OpenDurableOpts(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE big (oid INTEGER PRIMARY KEY, title TEXT, body TEXT, n INTEGER)`)
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		if _, err := tx.Exec(`INSERT INTO big (oid, title, body, n) VALUES (?, ?, ?, ?)`,
			int64(i), fmt.Sprintf("title %d", i), fmt.Sprintf("body of row %d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenDurableOpts(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	scan := func() {
		if r, err := db.Query(`SELECT * FROM big`); err != nil || r.Len() != rows {
			t.Fatalf("scan: %v rows, err %v", r, err)
		}
	}
	read := func(oid int64) {
		if r, err := db.Query(`SELECT * FROM big WHERE oid = ?`, oid); err != nil || r.Len() != 1 {
			t.Fatalf("read %d: %v, err %v", oid, r, err)
		}
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm the page pool and both plans, then fill the cache with point
	// reads, whose entries each pin only their own image and row.
	scan()
	for i := int64(0); i < 16; i++ {
		read(i)
	}
	before := live()
	scan()
	for i := 0; i < 100; i++ {
		read(rows - 1)
	}
	grown := int64(live()) - int64(before)
	const cellBytes = 32 // TestCellIsFourWords
	const bound = 16*(4<<10+32*width*cellBytes) + 64<<10
	if grown > bound {
		t.Fatalf("16 cached rows of a %d-row scan keep %d bytes alive, want <= %d", rows, grown, bound)
	}
	t.Logf("16 cached rows of a %d-row scan keep %d bytes alive (bound %d)", rows, grown, bound)
}

// TestPagingRecoveryWithoutRebuild verifies that reopening a version-2
// page file decodes no data rows: every slot comes back as an eviction
// marker (RowsResident == 0, RowFaults == 0 right after open) while
// hash, ordered, composite, unique and synthetic-key primary indexes
// all answer correctly from their persisted images.
func TestPagingRecoveryWithoutRebuild(t *testing.T) {
	dir := t.TempDir()
	db := openPaging(t, dir)
	setup := []string{
		`CREATE TABLE items (id INTEGER PRIMARY KEY, cat INTEGER, score INTEGER, tag TEXT UNIQUE)`,
		`CREATE INDEX ix_cat ON items(cat)`,
		`CREATE ORDERED INDEX ord_score ON items(score)`,
		`CREATE INDEX comp ON items(cat, score)`,
		`CREATE TABLE named (name TEXT PRIMARY KEY, v INTEGER)`,
	}
	for _, s := range setup {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(`INSERT INTO items (id, cat, score, tag) VALUES (?, ?, ?, ?)`,
			int64(i), int64(i%7), int64(i*3%101), fmt.Sprintf("tag-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := db.Exec(`INSERT INTO named (name, v) VALUES (?, ?)`,
			fmt.Sprintf("key-%02d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	db = reopenPaging(t, db, dir)
	defer db.Close()
	st := db.EngineStats()
	if st.RowsResident != 0 {
		t.Fatalf("marker recovery left %d resident rows (full rebuild?)", st.RowsResident)
	}
	if st.RowFaults != 0 {
		t.Fatalf("recovery faulted %d rows before any query ran", st.RowFaults)
	}

	checks := []struct {
		sql  string
		args []Value
		want string
	}{
		{`SELECT score FROM items WHERE id = 42`, nil, "25\n"},
		{`SELECT COUNT(*) FROM items WHERE cat = 3`, nil, "29\n"},
		{`SELECT id FROM items WHERE tag = 'tag-123'`, nil, "123\n"},
		{`SELECT COUNT(*) FROM items WHERE score >= 90 AND score <= 100`, nil, "20\n"},
		{`SELECT COUNT(*) FROM items WHERE cat = 2 AND score > 50`, nil, "14\n"},
		{`SELECT v FROM named WHERE name = 'key-07'`, nil, "7\n"},
	}
	for _, c := range checks {
		rows, err := db.Query(c.sql, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := rowsExact(rows); got != c.want {
			t.Fatalf("%s:\ngot  %q\nwant %q", c.sql, got, c.want)
		}
	}
	if db.EngineStats().RowFaults == 0 {
		t.Fatal("queries over marker-only tables faulted zero rows")
	}

	// The recovered indexes must be consulted, not just correct: EXPLAIN
	// should pick them over scans.
	for _, probe := range []struct{ sql, want string }{
		{`SELECT id FROM items WHERE cat = 3`, "INDEX"},
		{`SELECT id FROM items WHERE score > 90`, "RANGE"},
		{`SELECT id FROM items WHERE cat = 2 AND score > 50`, "COMPOSITE"},
		{`SELECT id FROM items WHERE tag = 'tag-005'`, "UNIQUE"},
		{`SELECT v FROM named WHERE name = 'key-01'`, "PRIMARY KEY"},
	} {
		plan, err := db.Explain(probe.sql)
		if err != nil {
			t.Fatalf("EXPLAIN %s: %v", probe.sql, err)
		}
		if !strings.Contains(plan, probe.want) {
			t.Fatalf("EXPLAIN %s: expected %s access, got:\n%s", probe.sql, probe.want, plan)
		}
	}
}

// TestPagingChurnThenReopen overwrites and deletes rows under a 16-row
// budget, so sweeps and checkpoints run between the writes: live reads
// see every write, and so do reads after a reopen.
func TestPagingChurnThenReopen(t *testing.T) {
	dir := t.TempDir()
	db := openPaging(t, dir)
	mustExecAll(t, db, []string{
		`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT UNIQUE)`,
		`CREATE INDEX kv_v ON kv(v)`,
	})
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(`INSERT INTO kv (k, v) VALUES (?, ?)`, int64(i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(`UPDATE kv SET v = ? WHERE k = ?`, fmt.Sprintf("NEW%d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`DELETE FROM kv WHERE k >= 50`); err != nil {
		t.Fatal(err)
	}
	churned := func(db *DB) {
		t.Helper()
		for _, k := range []int64{0, 17, 50, 99} {
			row, err := db.QueryRow(`SELECT v FROM kv WHERE k = ?`, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("NEW%d", k); k < 50 && (row == nil || row["v"] != want) {
				t.Fatalf("live read k=%d: got %v, want %q", k, row, want)
			}
			if k >= 50 && row != nil {
				t.Fatalf("live read k=%d: got %v after its delete", k, row)
			}
		}
		if got := rowsExact(mustQuery(t, db, `SELECT COUNT(*) FROM kv`)); got != "50\n" {
			t.Fatalf("live row count: got %q, want 50", got)
		}
	}
	churned(db)
	db = reopenPaging(t, db, dir)
	defer db.Close()
	churned(db)
}

// TestPagingScrollerFaultsItsWindow reopens 200-row tables (marker-only,
// a 16-row cache) and counts row faults per statement: a scroller window
// faults the rows it shows — at offset 0 and at offset 190, where OFFSET
// counts index entries off instead of rows — and COUNT(*) of the table
// faults none.
func TestPagingScrollerFaultsItsWindow(t *testing.T) {
	dir := t.TempDir()
	db := openPaging(t, dir)
	mustExecAll(t, db, []string{
		`CREATE TABLE item (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL)`,
		`CREATE TABLE named (name TEXT PRIMARY KEY, v INTEGER)`,
	})
	for i := 1; i <= 200; i++ {
		if _, err := db.Exec(`INSERT INTO item (title) VALUES (?)`, fmt.Sprintf("title %d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`INSERT INTO named (name, v) VALUES (?, ?)`, fmt.Sprintf("key-%03d", (i*37)%200), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	db = reopenPaging(t, db, dir)
	defer db.Close()

	const window = `SELECT t.oid, t.title FROM item t ORDER BY t.oid LIMIT 10 OFFSET ?`
	const windowDesc = `SELECT t.oid FROM item t ORDER BY t.oid DESC LIMIT 10 OFFSET ?`
	const windowText = `SELECT t.name FROM named t ORDER BY t.name LIMIT 10 OFFSET ?`
	cases := []struct {
		sql        string
		args       []Value
		rows       int
		first      string
		maxFaulted uint64
	}{
		{`SELECT COUNT(*) FROM item t`, nil, 1, "200", 0},
		{`SELECT COUNT(*) FROM named`, nil, 1, "200", 0},
		{window, []Value{0}, 10, "1", 10},
		{window, []Value{190}, 10, "191", 10},
		{window, []Value{195}, 5, "196", 5},
		{window, []Value{500}, 0, "", 0},
		{windowDesc, []Value{180}, 10, "20", 10},
		{windowText, []Value{100}, 10, "key-100", 10},
	}
	for _, c := range cases {
		before := db.EngineStats().RowFaults
		rows := mustQuery(t, db, c.sql, c.args...)
		faulted := db.EngineStats().RowFaults - before
		if rows.Len() != c.rows || (c.rows > 0 && FormatValue(rows.Data[0][0].Value()) != c.first) {
			t.Fatalf("%s %v: got %d rows %v, want %d starting at %s", c.sql, c.args, rows.Len(), rows.Data, c.rows, c.first)
		}
		if faulted > c.maxFaulted {
			t.Errorf("%s %v: faulted %d rows, want <= %d", c.sql, c.args, faulted, c.maxFaulted)
		}
	}
}

// TestPagingEvictionHammer runs a writer and live readers against a
// 16-row budget under -race: commits sweep rows out while concurrent
// queries fault them back in.
func TestPagingEvictionHammer(t *testing.T) {
	dir := t.TempDir()
	db := openPaging(t, dir)
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL, note TEXT)`); err != nil {
		t.Fatal(err)
	}
	const nAccts = 128
	for i := 0; i < nAccts; i++ {
		if _, err := db.Exec(`INSERT INTO acct (id, bal, note) VALUES (?, 1000, ?)`,
			int64(i), fmt.Sprintf("acct-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	iters := 300
	if testing.Short() {
		iters = 60
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Writer: balance transfers keep the sum of bal constant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < iters; i++ {
			from, to := int64(rng.Intn(nAccts)), int64(rng.Intn(nAccts))
			if from == to {
				continue
			}
			tx := db.Begin()
			if err := addTo(inTx{tx}, "acct", "bal", "id", from, -7); err != nil {
				report(err)
				tx.Rollback()
				return
			}
			if err := addTo(inTx{tx}, "acct", "bal", "id", to, 7); err != nil {
				report(err)
				tx.Rollback()
				return
			}
			if err := tx.Commit(); err != nil {
				report(err)
				return
			}
		}
	}()

	// Live readers: point lookups and scans under the shared lock.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				id := int64(rng.Intn(nAccts))
				row, err := db.QueryRow(`SELECT note FROM acct WHERE id = ?`, id)
				if err != nil {
					report(err)
					return
				}
				if row == nil || row["note"] != fmt.Sprintf("acct-%d", id) {
					report(fmt.Errorf("live read id=%d: got %v", id, row))
					return
				}
			}
		}(int64(r + 10))
	}

	// Sum readers: each read must observe an exactly-balanced total — a
	// torn or half-faulted read breaks the invariant.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				rows, err := db.Query(`SELECT bal FROM acct`)
				if err != nil {
					report(err)
					return
				}
				sum := int64(0)
				for _, row := range rows.Data {
					sum += row[0].Int()
				}
				if sum != nAccts*1000 {
					report(fmt.Errorf("live sum: got %d, want %d", sum, nAccts*1000))
					return
				}
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	st := db.EngineStats()
	if st.RowsEvicted == 0 {
		t.Fatal("hammer produced zero evictions")
	}
	if st.RowFaults == 0 {
		t.Fatal("hammer produced zero row faults")
	}
}

// TestPagingCheckpointIncremental verifies checkpoints stay cheap as
// the database grows: the page file is not rewritten wholesale, so the
// number of pages written per checkpoint tracks the write rate (the
// Checkpoints counter moving while WALSize resets is the observable
// here; E15 measures the wall-clock flatness).
func TestPagingCheckpointIncremental(t *testing.T) {
	dir := t.TempDir()
	db := openPaging(t, dir)
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE blob (id INTEGER PRIMARY KEY, pad TEXT)`); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 256)
	for i := 0; i < 500; i++ {
		if _, err := db.Exec(`INSERT INTO blob (id, pad) VALUES (?, ?)`, int64(i), pad); err != nil {
			t.Fatal(err)
		}
	}
	st := db.EngineStats()
	if st.Checkpoints == 0 {
		t.Fatal("no automatic checkpoint fired under a 64 KiB WAL threshold")
	}
	// Every record must remain reachable across an explicit checkpoint
	// plus reopen (incremental meta flip, not a rewrite).
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db = reopenPaging(t, db, dir)
	rows, err := db.Query(`SELECT COUNT(*) FROM blob`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsExact(rows); got != "500\n" {
		t.Fatalf("after incremental checkpoints + reopen: got %q rows, want 500", got)
	}
}

// TestCrashPagingChildHelper is the crash child for the paging engine:
// a 16-row resident budget, a 64 KiB-class pool and four secondary
// index images, killed mid-storm by the parent. Columns derive from n
// so the parent can recompute what every index must answer.
func TestCrashPagingChildHelper(t *testing.T) {
	dir := os.Getenv("RDB_CRASH_PAGING_DIR")
	if dir == "" {
		t.Skip("not a crash child")
	}
	db, err := OpenDurableOpts(dir, DurableOptions{
		CheckpointBytes: 1 << 14,
		PoolPages:       64,
		ResidentRows:    16,
	})
	if err != nil {
		fmt.Printf("CHILD_ERR open: %v\n", err)
		os.Exit(3)
	}
	if len(db.TableNames()) == 0 {
		for _, sql := range []string{
			`CREATE TABLE ev (n INTEGER PRIMARY KEY, grp INTEGER, score INTEGER, tag TEXT UNIQUE, data TEXT)`,
			`CREATE INDEX ix_grp ON ev(grp)`,
			`CREATE ORDERED INDEX ord_sc ON ev(score)`,
			`CREATE INDEX cmp ON ev(grp, score)`,
		} {
			if _, err := db.Exec(sql); err != nil {
				fmt.Printf("CHILD_ERR ddl: %v\n", err)
				os.Exit(3)
			}
		}
	}
	start := int64(1)
	row, err := db.QueryRow(`SELECT n FROM ev ORDER BY n DESC LIMIT 1`)
	if err != nil {
		fmt.Printf("CHILD_ERR resume: %v\n", err)
		os.Exit(3)
	}
	if row != nil {
		start = row["n"].(int64) + 1
	}
	for n := start; ; n++ {
		if _, err := db.Exec(`INSERT INTO ev (n, grp, score, tag, data) VALUES (?, ?, ?, ?, ?)`,
			n, n%5, n%97, fmt.Sprintf("t%08d", n), fmt.Sprintf("payload-%d", n)); err != nil {
			fmt.Printf("CHILD_ERR insert: %v\n", err)
			os.Exit(3)
		}
		fmt.Printf("ACK %d\n", n)
	}
}

// TestCrashTorturePagingIndexes SIGKILLs the paging child across
// generations and verifies the persisted index images recover without
// a rebuild: zero resident rows right after open, no acknowledged
// commit lost, and hash/ordered/composite/unique/pk index paths all
// agreeing with recomputed ground truth.
func TestCrashTorturePagingIndexes(t *testing.T) {
	if testing.Short() {
		t.Skip("crash torture spawns child processes")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(0xFA111))
	var lastAck int64

	for gen := 0; gen < 3; gen++ {
		acked, err := runCrashChildNamed(t, dir, 5+rng.Intn(60), "TestCrashPagingChildHelper", "RDB_CRASH_PAGING_DIR")
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if acked > 0 {
			lastAck = acked
		}

		db := openPaging(t, dir)
		if st := db.EngineStats(); st.RowsResident != 0 {
			t.Fatalf("generation %d: recovery materialized %d rows (index rebuild?)", gen, st.RowsResident)
		}
		rows, err := db.Query(`SELECT n, grp, score, tag, data FROM ev ORDER BY n`)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		total := int64(rows.Len())
		if total < lastAck {
			t.Fatalf("generation %d: %d acked commits, only %d recovered", gen, lastAck, total)
		}
		grp3, score90, comp := 0, 0, 0
		for i, row := range boxed(rows) {
			n, ok := row[0].(int64)
			if !ok || n != int64(i+1) {
				t.Fatalf("generation %d: sequence hole at %d: %v", gen, i+1, row[0])
			}
			if row[1] != n%5 || row[2] != n%97 ||
				row[3] != fmt.Sprintf("t%08d", n) || row[4] != fmt.Sprintf("payload-%d", n) {
				t.Fatalf("generation %d: commit %d corrupted: %v", gen, n, row)
			}
			if n%5 == 3 {
				grp3++
			}
			if n%97 >= 90 {
				score90++
			}
			if n%5 == 2 && n%97 > 50 {
				comp++
			}
		}
		// Every index path must agree with the recomputed ground truth.
		for _, c := range []struct {
			sql  string
			args []Value
			want string
		}{
			{`SELECT COUNT(*) FROM ev WHERE grp = 3`, nil, fmt.Sprintf("%d\n", grp3)},
			{`SELECT COUNT(*) FROM ev WHERE score >= 90`, nil, fmt.Sprintf("%d\n", score90)},
			{`SELECT COUNT(*) FROM ev WHERE grp = 2 AND score > 50`, nil, fmt.Sprintf("%d\n", comp)},
			{`SELECT n FROM ev WHERE tag = ?`, []Value{fmt.Sprintf("t%08d", total)}, fmt.Sprintf("%d\n", total)},
			{`SELECT data FROM ev WHERE n = ?`, []Value{total}, fmt.Sprintf("payload-%d\n", total)},
		} {
			got, err := db.Query(c.sql, c.args...)
			if err != nil {
				t.Fatalf("generation %d: %s: %v", gen, c.sql, err)
			}
			if s := rowsExact(got); s != c.want {
				t.Fatalf("generation %d: %s: got %q, want %q", gen, c.sql, s, c.want)
			}
		}
		lastAck = total
		if err := db.Close(); err != nil {
			t.Fatalf("generation %d: close: %v", gen, err)
		}
	}
}
