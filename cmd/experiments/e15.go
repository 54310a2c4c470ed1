package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"webmlgo/internal/rdb"
)

// e15 checks the larger-than-RAM data tier (eviction-marker slots
// over one bounded row cache, persisted index images, incremental
// checkpoints) on three gates:
//
//  1. capacity — the on-disk dataset must reach >= 4x the buffer-pool
//     budget while the engine's in-memory footprint (cached rows,
//     pooled pages) stays pinned to the configured budgets (the part
//     TestE15 runs: the other two are wall-clock ratios);
//  2. hot-set speed — point reads over a hot set that fits the
//     residency budget must stay within 1.3x of a durable engine whose
//     row cache is unbounded (ResidentRows 0), so both read cache hits;
//  3. flat checkpoints — incremental checkpoint time after a
//     fixed-size write batch must stay flat (<= 1.8x) as the database
//     doubles, because the cost follows the dirty set, not the file.
func e15() {
	e15Capacity()
	e15HotSet()
	e15Checkpoint()
}

// e15Opts is the constrained configuration every sub-experiment serves
// from: a 256 KiB buffer pool and a 256-row row cache.
var e15Opts = rdb.DurableOptions{PoolPages: 64, ResidentRows: 256}

func e15SeedPaged(db *rdb.DB, from, to int) {
	_, err := db.Exec(`CREATE TABLE item (oid INTEGER PRIMARY KEY AUTOINCREMENT, grp INTEGER, name TEXT, pad TEXT)`)
	if err != nil { // table may exist when growing an open database
		if from == 0 {
			must(err)
		}
	} else {
		_, err = db.Exec(`CREATE INDEX idx_item_grp ON item(grp)`)
		must(err)
	}
	pad := make([]byte, 160)
	for i := range pad {
		pad[i] = 'x'
	}
	tx := db.Begin()
	for i := from; i < to; i++ {
		_, err := tx.Exec(`INSERT INTO item (grp, name, pad) VALUES (?, ?, ?)`,
			int64(i%100), fmt.Sprintf("item-%d", i), string(pad))
		must(err)
		if (i-from)%500 == 499 {
			must(tx.Commit())
			tx = db.Begin()
		}
	}
	must(tx.Commit())
}

// e15Capacity grows a dataset to several times the page budget and
// checks the engine's in-memory footprint and its answers.
func e15Capacity() {
	fmt.Println("\n--- E15a: dataset beyond the memory budget ---")
	dir, err := os.MkdirTemp("", "webml-e15a-*")
	must(err)
	defer os.RemoveAll(dir)
	db, err := rdb.OpenDurableOpts(dir, e15Opts)
	must(err)
	defer db.Close()

	const rows = 8000
	e15SeedPaged(db, 0, rows)
	must(db.Checkpoint())

	fi, err := os.Stat(filepath.Join(dir, "pages.db"))
	must(err)
	n, err := db.QueryRow(`SELECT COUNT(*) AS n FROM item`)
	must(err)
	r, err := db.QueryRow(`SELECT name FROM item WHERE oid = ?`, int64(rows/2))
	must(err)
	dataset, budget := fi.Size(), int64(e15Opts.PoolPages)*4096
	st := db.EngineStats()
	fmt.Printf("  page file %d KiB, pool budget %d KiB (%.1fx)\n",
		dataset/1024, budget/1024, float64(dataset)/float64(budget))
	fmt.Printf("  resident rows %d (budget %d), pooled pages %d (budget %d), evicted %d, faults %d\n",
		st.RowsResident, e15Opts.ResidentRows, st.PoolResident, e15Opts.PoolPages, st.RowsEvicted, st.RowFaults)
	check("dataset >= 4x page budget", dataset >= 4*budget)
	check("row cache and pool within their budgets",
		st.RowsResident <= e15Opts.ResidentRows && st.PoolResident <= e15Opts.PoolPages)
	check("queries over the paged-out set correct", n["n"] == int64(rows) && r["name"] == fmt.Sprintf("item-%d", rows/2-1))
}

// e15HotSet interleaves point reads over a 128-key hot set between the
// paged engine and a durable engine with an unbounded row cache, best of
// twelve short rounds each (the E12/E14 discipline, so a scheduler
// hiccup cannot decide the ratio).
func e15HotSet() {
	fmt.Println("\n--- E15b: hot-set reads under eviction ---")
	pagedDir, err := os.MkdirTemp("", "webml-e15b-paged-*")
	must(err)
	defer os.RemoveAll(pagedDir)
	residentDir, err := os.MkdirTemp("", "webml-e15b-resident-*")
	must(err)
	defer os.RemoveAll(residentDir)

	paged, err := rdb.OpenDurableOpts(pagedDir, e15Opts)
	must(err)
	defer paged.Close()
	resident, err := rdb.OpenDurable(residentDir)
	must(err)
	defer resident.Close()

	const rows, hot = 8000, 128
	e15SeedPaged(paged, 0, rows)
	e15SeedPaged(resident, 0, rows)

	read := func(db *rdb.DB) func() {
		i := 0
		return func() {
			i++
			_, err := db.Query(`SELECT name FROM item WHERE oid = ?`, int64(i%hot+1))
			must(err)
		}
	}
	fns := []func(){read(resident), read(paged)}
	for _, fn := range fns { // warm plan + row caches before timing
		timeOp(2*hot, fn)
	}
	const iters, rounds = 3000, 12
	best := [2]time.Duration{1 << 62, 1 << 62}
	for round := 0; round < rounds; round++ {
		for i, fn := range fns {
			if t := timeOp(iters, fn); t < best[i] {
				best[i] = t
			}
		}
	}
	ratio := float64(best[1]) / float64(best[0])
	st := paged.EngineStats()
	fmt.Printf("  unbounded row cache %v/read, 256-row cache %v/read (x%.2f), paged engine: %d evicted, %d faults\n",
		best[0], best[1], ratio, st.RowsEvicted, st.RowFaults)
	check("hot-set reads within 1.3x of an unbounded row cache", ratio <= 1.3)
}

// e15Checkpoint times an incremental checkpoint after a fixed 128-row
// update batch, doubles the database, and times it again: the dirty
// set is identical, so the checkpoint must not follow the file size.
func e15Checkpoint() {
	fmt.Println("\n--- E15d: incremental checkpoints flat across growth ---")
	dir, err := os.MkdirTemp("", "webml-e15d-*")
	must(err)
	defer os.RemoveAll(dir)
	opts := e15Opts
	opts.CheckpointBytes = 1 << 30 // explicit checkpoints only
	db, err := rdb.OpenDurableOpts(dir, opts)
	must(err)
	defer db.Close()

	const rows = 8000
	ckpt := func() time.Duration {
		best := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			tx := db.Begin()
			for k := 0; k < 128; k++ {
				_, err := tx.Exec(`UPDATE item SET name = ? WHERE oid = ?`,
					fmt.Sprintf("upd-%d-%d", trial, k), int64(k*37+1))
				must(err)
			}
			must(tx.Commit())
			start := time.Now()
			must(db.Checkpoint())
			if t := time.Since(start); t < best {
				best = t
			}
		}
		return best
	}

	e15SeedPaged(db, 0, rows)
	must(db.Checkpoint())
	small := ckpt()
	e15SeedPaged(db, rows, 2*rows)
	must(db.Checkpoint())
	large := ckpt()

	fi, err := os.Stat(filepath.Join(dir, "pages.db"))
	must(err)
	ratio := float64(large) / float64(small)
	fmt.Printf("  checkpoint after 128-row batch: %v at %d rows, %v at %d rows (x%.2f), file %d KiB\n",
		small, rows, large, 2*rows, ratio, fi.Size()/1024)
	check("incremental checkpoint flat across 2x growth", ratio <= 1.8)
}
