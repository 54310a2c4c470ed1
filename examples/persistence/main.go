// Command persistence demonstrates the operational surface of the
// runtime: a durable database directory (restart persistence for the
// embedded data tier), an application reopened over it, hot query
// overrides with EXPLAIN verification (Section 6's optimisation
// workflow), and the Controller's per-action metrics.
//
//	go run ./examples/persistence
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"webmlgo"
	"webmlgo/internal/fixture"
)

func main() {
	dir, err := os.MkdirTemp("", "webmlgo-persistence")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- First life: create the schema in a durable directory, seed,
	// write through an operation, close. ---
	db, err := webmlgo.OpenDurableDatabasePaged(dir, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	app, err := webmlgo.New(fixture.Figure1Model(), webmlgo.WithDatabase(db))
	if err != nil {
		log.Fatal(err)
	}
	// WithDatabase skips DDL: a new directory gets the schema here, and
	// the statements land in the write-ahead log like any other commit.
	for _, stmt := range app.Artifacts.DDL {
		if _, err := db.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}
	if err := fixture.Seed(db); err != nil {
		log.Fatal(err)
	}
	do(app, "/page/volumesPage")
	do(app, "/op/createVolume?title=Persisted+Volume&year=2004")
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	files, _ := os.ReadDir(dir)
	fmt.Printf("1. durable directory closed: %s (%d files)\n", dir, len(files))

	// --- Second life: reopen and verify the write survived. ---
	db, err = webmlgo.OpenDurableDatabasePaged(dir, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	app2, err := webmlgo.New(fixture.Figure1Model(), webmlgo.WithDatabase(db))
	if err != nil {
		log.Fatal(err)
	}
	body := do(app2, "/page/volumesPage")
	fmt.Printf("2. reopened app lists the persisted volume: %v\n",
		strings.Contains(body, "Persisted Volume"))

	// --- Hot query override + plan check (Section 6). ---
	plan, err := app2.ExplainUnit("volumeData")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. generated query plan:\n   %s\n", plan)
	err = app2.Repo().OverrideQuery("volumeData",
		"SELECT t.oid, t.title, t.year FROM volume t WHERE t.oid = ? -- tuned by the data expert")
	if err != nil {
		log.Fatal(err)
	}
	plan, err = app2.ExplainUnit("volumeData")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4. overridden query still hits the key:\n   %s\n", plan)
	fmt.Printf("   optimized descriptors: %d\n", app2.Repo().OptimizedCount())

	// --- Controller metrics. ---
	do(app2, "/page/volumePage?volume=1")
	do(app2, "/page/volumePage?volume=1")
	fmt.Println("5. per-action metrics:")
	for _, s := range app2.Metrics() {
		fmt.Printf("   %-28s count=%d errors=%d mean=%v\n", s.Action, s.Count, s.Errors, s.Mean())
	}
}

func do(app *webmlgo.App, path string) string {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	app.Handler().ServeHTTP(rr, req)
	return rr.Body.String()
}
