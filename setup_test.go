package webmlgo

// Allocation ceilings for set-up. Set-up time tracks bytes allocated more
// than work done (garbage collection is a quarter of its CPU), so each
// stage the end-to-end benchmark's set-up runs at Acer-Euro scale is held
// to about 1.1 times the allocations it makes today.

import (
	"runtime"
	"testing"

	"webmlgo/internal/codegen"
	"webmlgo/internal/rdb"
	"webmlgo/internal/workload"
)

const (
	// generateAllocBudget bounds codegen.New + Generate of the validated
	// Acer-Euro model (≈ 26,200 mallocs).
	generateAllocBudget = 28_800
	// populateAllocBudget bounds workload.Populate of 200 rows per entity
	// into a durable database holding the Acer-Euro schema (≈ 34,100).
	populateAllocBudget = 37_400
)

// minMallocs returns the fewest heap allocations one of three calls of
// run made, each after its own prepare, which is not counted.
func minMallocs(t *testing.T, prepare func(), run func()) uint64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var ms runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		prepare()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		run()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	return best
}

func TestGenerateAllocBudget(t *testing.T) {
	m, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	n := minMallocs(t, func() {
		// Validating again drops the memoized artifacts, so the count
		// is a generation from scratch.
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}, func() {
		g, err := codegen.New(m)
		if err == nil {
			_, err = g.Generate()
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("generation: %d mallocs (budget %d)", n, generateAllocBudget)
	if n > generateAllocBudget {
		t.Fatalf("generating Acer-Euro made %d allocations, budget %d", n, generateAllocBudget)
	}
}

func TestPopulateAllocBudget(t *testing.T) {
	m, err := workload.Generate(workload.AcerEuro())
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
	var db *rdb.DB
	n := minMallocs(t, func() {
		if db != nil {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if db, err = rdb.OpenDurableOpts(t.TempDir(), rdb.DurableOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, stmt := range art.DDL {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
	}, func() {
		if err := workload.Populate(db, 200, 7); err != nil {
			t.Fatal(err)
		}
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("populate: %d mallocs (budget %d)", n, populateAllocBudget)
	if n > populateAllocBudget {
		t.Fatalf("loading 200 rows per Acer-Euro entity made %d allocations, budget %d", n, populateAllocBudget)
	}
}
