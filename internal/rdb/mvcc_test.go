package rdb

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSnapshotIsolationBasics(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, val INTEGER NOT NULL)`)
	mustExec(t, db, `INSERT INTO kv (id, val) VALUES (1, 10), (2, 20)`)

	s := db.Snapshot()
	defer s.Close()
	mustExec(t, db, `UPDATE kv SET val = 11 WHERE id = 1`)
	mustExec(t, db, `DELETE FROM kv WHERE id = 2`)
	mustExec(t, db, `INSERT INTO kv (id, val) VALUES (3, 30)`)

	rows, err := s.Query(`SELECT id, val FROM kv ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if rowsExact(rows) != "1,10\n2,20\n" {
		t.Fatalf("snapshot drifted:\n%s", rowsExact(rows))
	}
	live, err := db.Query(`SELECT id, val FROM kv ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if rowsExact(live) != "1,11\n3,30\n" {
		t.Fatalf("live state wrong:\n%s", rowsExact(live))
	}
	s2 := db.Snapshot()
	defer s2.Close()
	if s2.Seq() <= s.Seq() {
		t.Fatalf("snapshot seq did not advance: %d then %d", s.Seq(), s2.Seq())
	}
	fresh, err := s2.Query(`SELECT id, val FROM kv ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if rowsExact(fresh) != rowsExact(live) {
		t.Fatalf("new snapshot lags live state:\n%s", rowsExact(fresh))
	}

	st := db.Stats()
	if st.SnapshotsTaken < 2 || st.ActiveSnapshots != 2 || st.HeadSeq == 0 {
		t.Fatalf("snapshot counters: %+v", st)
	}
	s2.Close() // double Close must not double-decrement
	s2.Close()
	if got := db.Stats().ActiveSnapshots; got != 1 {
		t.Fatalf("active snapshots = %d, want 1", got)
	}
}

// TestSnapshotMidTransaction pins the commit boundary: a snapshot taken
// while a write transaction is open sees none of its uncommitted rows
// (Snapshot takes no lock, so it does not block behind the writer).
func TestSnapshotMidTransaction(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE n (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO n (id) VALUES (1)`)

	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO n (id) VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	s := db.Snapshot()
	rows, err := s.Query(`SELECT COUNT(*) FROM n`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Value() != int64(1) {
		t.Fatalf("snapshot saw uncommitted write: %v", rows.Data[0][0].Value())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The old snapshot stays frozen; a fresh one sees the commit.
	rows, _ = s.Query(`SELECT COUNT(*) FROM n`)
	if rows.Data[0][0].Value() != int64(1) {
		t.Fatalf("snapshot moved after commit: %v", rows.Data[0][0].Value())
	}
	s.Close()
	s2 := db.Snapshot()
	defer s2.Close()
	rows, _ = s2.Query(`SELECT COUNT(*) FROM n`)
	if rows.Data[0][0].Value() != int64(2) {
		t.Fatalf("fresh snapshot missed commit: %v", rows.Data[0][0].Value())
	}
}

// snapshotHammer races snapshot readers against committing writers.
// Writers insert row pairs atomically and bump counters in place (the
// copy-on-write path); readers demand every snapshot shows complete
// pairs only. Run with -race this doubles as the data-race proof for
// lock-free snapshot reads.
func snapshotHammer(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE pairs (id INTEGER PRIMARY KEY AUTOINCREMENT, batch INTEGER NOT NULL, half INTEGER NOT NULL)`)
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, val INTEGER NOT NULL)`)
	for i := int64(1); i <= 8; i++ {
		mustExec(t, db, `INSERT INTO kv (id, val) VALUES (?, 0)`, i)
	}

	const writers, rounds = 4, 40
	var batch, committed atomic.Int64
	var stop atomic.Bool
	var readerErr atomic.Value

	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for r := 0; r < rounds; r++ {
				b := batch.Add(1)
				tx := db.Begin()
				if _, err := tx.Exec(`INSERT INTO pairs (batch, half) VALUES (?, 0)`, b); err != nil {
					tx.Rollback()
					t.Error(err)
					return
				}
				if _, err := tx.Exec(`INSERT INTO pairs (batch, half) VALUES (?, 1)`, b); err != nil {
					tx.Rollback()
					t.Error(err)
					return
				}
				if _, err := tx.Exec(`UPDATE kv SET val = val + 1 WHERE id = ?`, int64(r%8+1)); err != nil {
					tx.Rollback()
					t.Error(err)
					return
				}
				if (r+w)%7 == 6 {
					if err := tx.Rollback(); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				committed.Add(1)
			}
		}(w)
	}

	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for !stop.Load() {
				s := db.Snapshot()
				rows, err := s.Query(`SELECT batch, COUNT(*) AS n FROM pairs GROUP BY batch`)
				if err != nil {
					readerErr.Store(err)
					s.Close()
					return
				}
				for _, row := range boxed(rows) {
					if row[1] != int64(2) {
						readerErr.Store(errTornPair(row[0], row[1]))
						s.Close()
						return
					}
				}
				kv, err := s.Query(`SELECT COUNT(*) FROM kv`)
				if err != nil || kv.Data[0][0].Value() != int64(8) {
					readerErr.Store(errTornPair("kv", kv))
					s.Close()
					return
				}
				s.Close()
			}
		}()
	}

	wwg.Wait()
	stop.Store(true)
	rwg.Wait()
	if e := readerErr.Load(); e != nil {
		t.Fatalf("snapshot reader: %v", e)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM pairs`)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * committed.Load(); rows.Data[0][0].Value() != want {
		t.Fatalf("pairs = %v, want %d", rows.Data[0][0].Value(), want)
	}
}

type tornPairError struct {
	batch Value
	n     any
}

func errTornPair(batch Value, n any) error { return &tornPairError{batch, n} }

func (e *tornPairError) Error() string {
	return "incomplete pair in snapshot: batch " + FormatValue(e.batch)
}

func TestSnapshotHammerMemory(t *testing.T) {
	snapshotHammer(t, Open())
}

func TestSnapshotHammerDurable(t *testing.T) {
	db, err := OpenDurableOpts(t.TempDir(), DurableOptions{CheckpointBytes: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snapshotHammer(t, db)
}
