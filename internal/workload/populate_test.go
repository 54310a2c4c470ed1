package workload

import (
	"maps"
	"strings"
	"testing"

	"webmlgo/internal/codegen"
	"webmlgo/internal/rdb"
)

// smallDDL returns the DDL of the small spec's application, minus every
// statement that mentions skip (when skip is non-empty).
func smallDDL(t *testing.T, skip string) []string {
	t.Helper()
	m, err := Generate(small())
	if err != nil {
		t.Fatal(err)
	}
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, stmt := range art.DDL {
		if skip == "" || !strings.Contains(stmt, skip) {
			out = append(out, stmt)
		}
	}
	return out
}

func applyDDL(t *testing.T, db *rdb.DB, ddl []string) {
	t.Helper()
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("DDL: %v", err)
		}
	}
}

// TestPopulateCommitsOnce: the whole load is one WAL record and one
// fsync, however many rows it inserts.
func TestPopulateCommitsOnce(t *testing.T) {
	db, err := rdb.OpenDurableOpts(t.TempDir(), rdb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	applyDDL(t, db, smallDDL(t, ""))
	before := db.EngineStats()
	if err := Populate(db, 10, 7); err != nil {
		t.Fatal(err)
	}
	after := db.EngineStats()
	if d := after.WALAppends - before.WALAppends; d != 1 {
		t.Errorf("WAL appends across Populate = %d, want 1", d)
	}
	if d := after.WALFsyncs - before.WALFsyncs; d != 1 {
		t.Errorf("WAL fsyncs across Populate = %d, want 1", d)
	}
	if n, err := db.RowCount("rel_pricelistproduct"); err != nil || n != 30 {
		t.Fatalf("bridge rows = %d, %v; want 30", n, err)
	}
}

// TestPopulateIsAtomic: when the last pass fails, the passes before it
// leave no rows behind.
func TestPopulateIsAtomic(t *testing.T) {
	db := rdb.Open()
	applyDDL(t, db, smallDDL(t, "rel_pricelistproduct"))
	err := Populate(db, 10, 7)
	if err == nil || !strings.Contains(err.Error(), "rel_pricelistproduct") {
		t.Fatalf("err = %v, want the missing bridge table", err)
	}
	for _, name := range db.TableNames() {
		if n, err := db.RowCount(name); err != nil || n != 0 {
			t.Errorf("table %s holds %d rows (%v) after a failed Populate", name, n, err)
		}
	}
}

// TestPopulateFailureWritesNothing: a durable load that fails late, over
// tables that already hold rows, leaves every table's row count, the
// WAL and what a reopen of the directory shows as they were.
func TestPopulateFailureWritesNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := rdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	applyDDL(t, db, smallDDL(t, "rel_pricelistproduct"))
	for _, sql := range []string{
		`INSERT INTO family (name) VALUES ('Before')`,
		`INSERT INTO country (name, code) VALUES ('Before', 'B0001')`,
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	counts := func(db *rdb.DB) map[string]int {
		out := map[string]int{}
		for _, name := range db.TableNames() {
			n, err := db.RowCount(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = n
		}
		return out
	}
	before, appends := counts(db), db.EngineStats().WALAppends
	if err := Populate(db, 10, 7); err == nil || !strings.Contains(err.Error(), "rel_pricelistproduct") {
		t.Fatalf("err = %v, want the missing bridge table", err)
	}
	if got := counts(db); !maps.Equal(got, before) {
		t.Errorf("row counts after a failed Populate = %v, want %v", got, before)
	}
	if got := db.EngineStats().WALAppends; got != appends {
		t.Errorf("WAL appends after a failed Populate = %d, want %d", got, appends)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = rdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := counts(db); !maps.Equal(got, before) {
		t.Errorf("row counts after a reopen = %v, want %v", got, before)
	}
}
