package rdb

import (
	"testing"
	"testing/quick"
)

func txDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE acct (oid INTEGER PRIMARY KEY AUTOINCREMENT, owner TEXT UNIQUE, balance INTEGER)`)
	mustExec(t, db, `INSERT INTO acct (owner, balance) VALUES ('a', 100), ('b', 50)`)
	return db
}

func TestTxCommit(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if err := addTo(inTx{tx}, "acct", "balance", "owner", "a", -10); err != nil {
		t.Fatal(err)
	}
	if err := addTo(inTx{tx}, "acct", "balance", "owner", "b", 10); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, `SELECT balance FROM acct ORDER BY owner`)
	if rows.Data[0][0].Value() != int64(90) || rows.Data[1][0].Value() != int64(60) {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestTxRollbackUpdate(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`UPDATE acct SET balance = 0 WHERE owner = 'a'`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	m, _ := db.QueryRow(`SELECT balance FROM acct WHERE owner = 'a'`)
	if m["balance"] != int64(100) {
		t.Fatalf("balance = %v", m["balance"])
	}
}

func TestTxRollbackInsert(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO acct (owner, balance) VALUES ('c', 1)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	n, _ := db.RowCount("acct")
	if n != 2 {
		t.Fatalf("count = %d", n)
	}
	// The unique index entry must be gone too.
	mustExec(t, db, `INSERT INTO acct (owner, balance) VALUES ('c', 2)`)
}

func TestTxRollbackDelete(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`DELETE FROM acct WHERE owner = 'b'`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	m, _ := db.QueryRow(`SELECT balance FROM acct WHERE owner = 'b'`)
	if m == nil || m["balance"] != int64(50) {
		t.Fatalf("row = %v", m)
	}
}

func TestTxSeesOwnWrites(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO acct (owner, balance) VALUES ('c', 7)`); err != nil {
		t.Fatal(err)
	}
	rows, err := inTx{tx}.Query(`SELECT COUNT(*) FROM acct`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Value() != int64(3) {
		t.Fatalf("count inside tx = %v", rows.Data[0][0].Value())
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestTxDoneErrors(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE FROM acct`); err != ErrTxDone {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Rollback(); err != ErrTxDone {
		t.Fatalf("err = %v", err)
	}
}

func TestTxRollbackMixedSequence(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	ops := []string{
		`INSERT INTO acct (owner, balance) VALUES ('x', 1)`,
		`UPDATE acct SET balance = 999 WHERE owner = 'a'`,
		`DELETE FROM acct WHERE owner = 'b'`,
		`INSERT INTO acct (owner, balance) VALUES ('y', 2)`,
		`UPDATE acct SET balance = 0 WHERE owner = 'x'`,
	}
	for _, op := range ops {
		if _, err := tx.Exec(op); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, `SELECT owner, balance FROM acct ORDER BY owner`)
	if rows.Len() != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
	if rows.Data[0][1].Value() != int64(100) || rows.Data[1][1].Value() != int64(50) {
		t.Fatalf("balances = %v", rows.Data)
	}
}

// Property: a rolled-back transaction leaves total balance unchanged no
// matter what sequence of transfers it performed.
func TestTxRollbackInvariantProperty(t *testing.T) {
	f := func(transfers []int8) bool {
		db := Open()
		if _, err := db.Exec(`CREATE TABLE acct (oid INTEGER PRIMARY KEY AUTOINCREMENT, balance INTEGER)`); err != nil {
			return false
		}
		if _, err := db.Exec(`INSERT INTO acct (balance) VALUES (100), (100)`); err != nil {
			return false
		}
		tx := db.Begin()
		for _, d := range transfers {
			if err := addTo(inTx{tx}, "acct", "balance", "oid", 1, -int64(d)); err != nil {
				tx.Rollback()
				return false
			}
			if err := addTo(inTx{tx}, "acct", "balance", "oid", 2, int64(d)); err != nil {
				tx.Rollback()
				return false
			}
		}
		if err := tx.Rollback(); err != nil {
			return false
		}
		rows, err := db.Query(`SELECT balance FROM acct ORDER BY oid`)
		if err != nil {
			return false
		}
		return rows.Data[0][0].Value() == int64(100) && rows.Data[1][0].Value() == int64(100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
