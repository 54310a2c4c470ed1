package webmlgo

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"webmlgo/internal/cache"
	"webmlgo/internal/er"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
)

// Snapshot writes a consistent snapshot of the application's database to
// w, giving the embedded data tier restart persistence.
func (a *App) Snapshot(w io.Writer) error { return a.DB.Dump(w) }

// SnapshotFile writes the snapshot to a file, crash-safely: the
// snapshot is written to a temporary file and fsynced, renamed over
// path, and the rename is fsynced through the directory.
func (a *App) SnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	err = a.DB.Dump(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// RestoreDatabase reads a snapshot produced by Snapshot and returns the
// database, ready to pass to New via WithDatabase.
func RestoreDatabase(r io.Reader) (*rdb.DB, error) { return rdb.Restore(r) }

// OpenDurableDatabasePaged opens (or creates) a durable database rooted
// at dir — a write-ahead log plus a page-backed B-tree — recovered to
// the last committed state, with explicit memory budgets for serving
// datasets larger than RAM (zero budgets are rdb.OpenDurable): poolPages
// bounds the buffer pool (4 KiB pages; <=0 selects the default 2048)
// and residentRows bounds how many decoded rows stay materialized in
// table slots (<=0 = unlimited). Rows beyond the budget are swept to
// eviction markers after each commit and fault back in on demand.
func OpenDurableDatabasePaged(dir string, poolPages, residentRows int) (*rdb.DB, error) {
	return rdb.OpenDurableOpts(dir, rdb.DurableOptions{PoolPages: poolPages, ResidentRows: residentRows})
}

// RestoreDatabaseFile reads a snapshot file.
func RestoreDatabaseFile(path string) (*rdb.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rdb.Restore(f)
}

// Metrics returns the Controller's per-action statistics.
func (a *App) Metrics() []mvc.ActionStats { return a.Controller.Metrics() }

// CacheStats is the public snapshot of both cache levels' counters —
// the observability companion of Section 6's caching architecture. A
// level not enabled by the App's options is nil.
type CacheStats struct {
	// Bean is the business-tier bean cache (WithBeanCache).
	Bean *cache.Stats
	// Edge is the ESI surrogate tier's fragment cache (WithEdgeCache).
	Edge *cache.Stats
}

// CacheMetrics returns the counters of every enabled cache level.
func (a *App) CacheMetrics() CacheStats {
	var out CacheStats
	if a.BeanCache != nil {
		s := a.BeanCache.Stats()
		out.Bean = &s
	}
	if a.Edge != nil {
		s := a.Edge.Stats()
		out.Edge = &s
	}
	return out
}

// Bootstrap reverse-engineers a conforming database (Section 1's
// "pre-existing data sources"), derives the default browse hypertext
// over the recovered schema, and assembles a running application over
// the same database — an application out of nothing but data. The
// returned issues list reports any tables that did not fit the standard
// mapping and were skipped.
func Bootstrap(name string, db *rdb.DB, opts ...Option) (*App, []string, error) {
	schema, issues, err := er.Reverse(db)
	if err != nil {
		return nil, issues, err
	}
	model, err := webml.DeriveDefaultHypertext(name, schema)
	if err != nil {
		return nil, issues, err
	}
	app, err := New(model, append([]Option{WithDatabase(db)}, opts...)...)
	if err != nil {
		return nil, issues, err
	}
	return app, issues, nil
}

// ExplainUnit returns the database access plan of a unit's query — the
// check a data expert runs after overriding a descriptor (Section 6).
func (a *App) ExplainUnit(unitID string) (string, error) {
	d := a.Repo().Unit(unitID)
	if d == nil {
		return "", fmt.Errorf("webmlgo: no unit %q", unitID)
	}
	if d.Query == "" {
		return "", fmt.Errorf("webmlgo: unit %q has no query", unitID)
	}
	return a.DB.Explain(d.Query)
}
