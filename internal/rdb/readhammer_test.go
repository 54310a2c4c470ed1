package rdb

import (
	"sync"
	"sync/atomic"
	"testing"
)

// readHammer races live readers against committing writers. Writers
// insert row pairs atomically, bump counters in place and roll back
// every seventh transaction; readers demand every read shows complete
// pairs only and all 8 counters. Run with -race this doubles as the
// data-race proof for reads under the shared lock.
func readHammer(t *testing.T, db *DB) {
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
				if err := addTo(inTx{tx}, "kv", "val", "id", int64(r%8+1), 1); err != nil {
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
				rows, err := db.Query(`SELECT batch FROM pairs`)
				if err != nil {
					readerErr.Store(err)
					return
				}
				halves := map[int64]int64{}
				for _, row := range rows.Data {
					halves[row[0].Int()]++
				}
				for b, n := range halves {
					if n != 2 {
						readerErr.Store(errTornPair(b, n))
						return
					}
				}
				kv, err := db.Query(`SELECT COUNT(*) FROM kv`)
				if err != nil || kv.Data[0][0].Value() != int64(8) {
					readerErr.Store(errTornPair("kv", kv))
					return
				}
			}
		}()
	}

	wwg.Wait()
	stop.Store(true)
	rwg.Wait()
	if e := readerErr.Load(); e != nil {
		t.Fatalf("reader: %v", e)
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
	return "incomplete pair in a read: batch " + FormatValue(e.batch)
}

func TestReadHammerMemory(t *testing.T) {
	readHammer(t, Open())
}

func TestReadHammerDurable(t *testing.T) {
	db, err := OpenDurableOpts(t.TempDir(), DurableOptions{CheckpointBytes: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	readHammer(t, db)
}
