package rdb

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentQueryExecTx hammers the engine from concurrent readers,
// writers and transactions under -race: the page service now computes
// units of one topological level in parallel, so SELECTs must be safe
// against each other and against concurrent Exec/Begin.
func TestConcurrentQueryExecTx(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE kv (oid INTEGER PRIMARY KEY, k TEXT, n INTEGER)`)
	for i := 0; i < 32; i++ {
		mustExec(t, db, `INSERT INTO kv (oid, k, n) VALUES (?, ?, ?)`, int64(i+1), fmt.Sprintf("k%02d", i), int64(i))
	}

	var wg sync.WaitGroup
	// Readers: point lookups and scans.
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				rows, err := db.Query(`SELECT k, n FROM kv WHERE k = ?`, fmt.Sprintf("k%02d", i%32))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if rows.Len() > 1 {
					t.Errorf("duplicate key rows: %d", rows.Len())
					return
				}
				if _, err := db.Query(`SELECT COUNT(*) AS c FROM kv WHERE n >= 0`); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}(r)
	}
	// Writer: updates in place.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := db.Exec(`UPDATE kv SET n = ? WHERE k = ?`, int64(i), fmt.Sprintf("k%02d", i%32)); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	// Transactions: insert + rollback, insert + commit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tx := db.Begin()
			if _, err := tx.Exec(`INSERT INTO kv (oid, k, n) VALUES (?, ?, ?)`, int64(1000+i), fmt.Sprintf("tx%03d", i), int64(i)); err != nil {
				t.Errorf("tx insert: %v", err)
				tx.Rollback()
				return
			}
			if i%2 == 0 {
				tx.Rollback()
			} else if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	res, err := db.Query(`SELECT COUNT(*) AS c FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	// 32 base rows + 25 committed tx rows.
	if got := res.Data[0][0].Value(); got != int64(57) {
		t.Fatalf("row count = %v, want 57", got)
	}
}
