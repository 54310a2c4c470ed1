package webmlgo

import (
	"fmt"

	"webmlgo/internal/cache"
	"webmlgo/internal/er"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
)

// OpenDurableDatabasePaged opens (or creates) a durable database rooted
// at dir — a write-ahead log plus a page-backed B-tree — recovered to
// the last committed state, with explicit memory budgets for serving
// datasets larger than RAM (zero budgets are rdb.OpenDurable): poolPages
// bounds the buffer pool (4 KiB pages; <=0 selects the default 2048)
// and residentRows bounds the row cache, the one place decoded rows live
// (<=0 = unlimited). Commits write rows through to the cache and reads
// fault them in; the least recently used row beyond the budget is
// dropped and faults back in on demand.
func OpenDurableDatabasePaged(dir string, poolPages, residentRows int) (*rdb.DB, error) {
	return rdb.OpenDurableOpts(dir, rdb.DurableOptions{PoolPages: poolPages, ResidentRows: residentRows})
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
