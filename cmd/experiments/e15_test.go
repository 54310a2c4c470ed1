package main

import "testing"

// TestE15Capacity is E15a's verdict: an 8,000-row dataset checkpointed to
// at least 4x a 64-page pool, served with the row cache within its 256
// rows and the pool within its 64 pages, answers its queries right.
func TestE15Capacity(t *testing.T) {
	r := e15Capacity()
	if !r.ok() {
		t.Fatalf("page file %d B for a %d B pool (want >= 4x), %d rows cached (budget %d), %d pages pooled (budget %d), queries correct: %v",
			r.dataset, r.budget, r.stats.RowsResident, e15Opts.ResidentRows, r.stats.PoolResident, e15Opts.PoolPages, r.correct)
	}
	t.Logf("page file %.1fx the pool, %d rows cached, %d pages pooled", float64(r.dataset)/float64(r.budget), r.stats.RowsResident, r.stats.PoolResident)
}
