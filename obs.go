package webmlgo

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/ejb"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
	"webmlgo/internal/rdb"
)

// debugRing is the capacity of the trace ring at /debug/traces and of
// the flight recorder's ring at /debug/queries.
const debugRing = 256

// WithObservability enables request tracing across every tier: the edge
// (or controller, without an edge) allocates a trace per request, the
// page service, caches and remote EJB calls contribute spans, and container
// tiers stitch theirs back over the wire. The last 256 finished traces
// are served at /debug/traces; traces at or past slowTrace (<=0 selects
// 250ms) are additionally retained as slow exemplars. It also turns on
// the per-page and per-unit latency histograms feeding /metrics. For
// production serving, set App.Obs.SampleEvery = n to trace 1-in-n
// requests — histograms stay exact on every request regardless of
// sampling.
//
// slowQuery > 0 arms the slow-query flight recorder: data-tier
// executions taking at least slowQuery are captured — SQL, bound
// parameters, the analyzed plan with per-operator actuals, and the
// owning trace ID — into a ring of 256 served at /debug/queries
// (time.Nanosecond captures every query). Queries below the threshold
// pay only the operator counters, never the ring's lock. slowQuery <= 0
// leaves the recorder off.
func WithObservability(slowTrace, slowQuery time.Duration) Option {
	return func(c *config) {
		c.withObs = true
		c.slowTrace = slowTrace
		c.slowQuery = slowQuery
	}
}

// wireObservability attaches the tracer, the data-tier trace hooks, the
// flight recorder and the model-derived histogram families to an
// assembled app (called at the end of New).
func (a *App) wireObservability(cfg *config) {
	if !cfg.withObs {
		return
	}
	if cfg.slowQuery > 0 {
		a.DB.EnableQueryRecorder(debugRing, cfg.slowQuery)
	}
	a.Obs = obs.NewTracer(debugRing, cfg.slowTrace)
	a.Controller.Obs = a.Obs
	if ps, ok := a.Controller.Pages.(*mvc.PageService); ok {
		ps.PageLat = obs.NewHistogramVec("webml_page_compute_seconds",
			"Page computation latency by page.", "page")
		ps.UnitLat = obs.NewHistogramVec("webml_unit_compute_seconds",
			"Unit service latency by unit.", "unit")
	}
	if a.Edge != nil {
		a.Edge.Obs = a.Obs
	}
	// Bridge the data tier's zero-dependency hook seam into the tracer:
	// rdb spans (query execution, WAL sync, commits)
	// become children of whatever span the request context carries, and
	// the flight recorder stamps captured queries with the owning trace
	// ID so /debug/queries rows join against /debug/traces.
	a.DB.SetTraceHooks(&rdb.TraceHooks{
		Span: func(ctx context.Context, name string) rdb.SpanFinish {
			sp := obs.Leaf(ctx, name)
			if sp == nil {
				return nil
			}
			return func(err error, labels ...string) {
				for i := 0; i+1 < len(labels); i += 2 {
					sp.Label(labels[i], labels[i+1])
				}
				sp.EndErr(err)
			}
		},
		TraceID: obs.TraceID,
	})
}

// MetricsRegistry returns the web tier's /metrics registry, built on
// first use: per-action, per-page, per-unit and per-endpoint latency
// histograms (p50/p95/p99 derived), every enabled cache level's
// counters, edge dispositions, breaker states, retry/degraded counters
// and trace-ring stats — one Prometheus-text exposition for the whole
// stack.
func (a *App) MetricsRegistry() *obs.Registry {
	a.regOnce.Do(func() { a.registry = a.buildRegistry() })
	return a.registry
}

// MetricsHandler returns the /metrics endpoint.
func (a *App) MetricsHandler() http.Handler { return a.MetricsRegistry() }

// TracesHandler returns the /debug/traces endpoint (404 without
// WithObservability).
func (a *App) TracesHandler() http.Handler {
	if a.Obs == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "tracing disabled (WithObservability)", http.StatusNotFound)
		})
	}
	return a.Obs.Handler()
}

// queryRecordView is the JSON form of one flight-recorder capture at
// /debug/queries. TraceID is rendered in the same %016x form as
// /debug/traces trace IDs — the join key between the two endpoints.
type queryRecordView struct {
	At         time.Time   `json:"at"`
	TraceID    string      `json:"trace_id,omitempty"`
	SQL        string      `json:"sql"`
	Params     []rdb.Value `json:"params,omitempty"`
	PlanCached bool        `json:"plan_cached"`
	Rows       int64       `json:"rows"`
	ElapsedMS  float64     `json:"elapsed_ms"`
	Plan       string      `json:"plan"`
}

// QueriesHandler returns the /debug/queries endpoint: the slow-query
// flight recorder's ring as JSON, newest first (404 unless
// WithObservability was given a slow-query threshold).
//
//	GET /debug/queries            captured queries (newest first)
//	GET /debug/queries?min=50ms   captures at least this slow
//	GET /debug/queries?limit=10   bound the count
func (a *App) QueriesHandler() http.Handler {
	const usage = "/debug/queries?min=<duration>&limit=<n>"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enabled, threshold := a.DB.RecorderEnabled()
		if !enabled {
			http.Error(w, "query recorder disabled (WithObservability with a slow-query threshold)", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		min, err := obs.ParseDebugDuration("min", q.Get("min"))
		if err != nil {
			obs.DebugParamError(w, err, usage)
			return
		}
		limit, err := obs.ParseDebugLimit("limit", q.Get("limit"))
		if err != nil {
			obs.DebugParamError(w, err, usage)
			return
		}
		recs := a.DB.QueryRecords(min, limit)
		views := make([]queryRecordView, 0, len(recs))
		for _, rec := range recs {
			v := queryRecordView{
				At:         rec.At,
				SQL:        rec.SQL,
				Params:     rec.Params,
				PlanCached: rec.CacheHit,
				Rows:       rec.Rows,
				ElapsedMS:  float64(rec.Elapsed.Microseconds()) / 1000,
				Plan:       rec.Plan,
			}
			if rec.TraceID != 0 {
				v.TraceID = fmt.Sprintf("%016x", rec.TraceID)
			}
			views = append(views, v)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]interface{}{ //nolint:errcheck // best-effort debug endpoint
			"threshold": threshold.String(),
			"captured":  a.DB.Stats().QueriesRecorded,
			"queries":   views,
		})
	})
}

// FleetHandler returns the /debug/fleet endpoint: the elastic
// supervisor's current shape plus its retained scale-event ring,
// newest first (404 without WithElasticFleet).
//
//	GET /debug/fleet              fleet stats + scale events
//	GET /debug/fleet?limit=10     bound the event count
func (a *App) FleetHandler() http.Handler {
	const usage = "/debug/fleet?limit=<n>"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.Fleet == nil {
			http.Error(w, "fleet supervisor disabled (WithElasticFleet)", http.StatusNotFound)
			return
		}
		limit, err := obs.ParseDebugLimit("limit", r.URL.Query().Get("limit"))
		if err != nil {
			obs.DebugParamError(w, err, usage)
			return
		}
		events := a.Fleet.Events()
		// Newest first, like /debug/traces and /debug/queries.
		for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
			events[i], events[j] = events[j], events[i]
		}
		if limit > 0 && len(events) > limit {
			events = events[:limit]
		}
		s := a.Fleet.Stats()
		s.Events = nil // the full ring rides alongside, not inside
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]interface{}{ //nolint:errcheck // best-effort debug endpoint
			"fleet":  s,
			"events": events,
		})
	})
}

func (a *App) buildRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.RegisterVec(a.Controller.ActionHistograms())
	if ps, ok := a.Controller.Pages.(*mvc.PageService); ok {
		if ps.PageLat != nil {
			reg.RegisterVec(ps.PageLat)
		}
		if ps.UnitLat != nil {
			reg.RegisterVec(ps.UnitLat)
		}
	}
	if a.Remote != nil {
		reg.RegisterVec(a.Remote.CallLat)
		reg.RegisterVec(a.Remote.BatchLat)
		reg.Register(func(e *obs.Exposition) {
			sent, recv, inflight := a.Remote.FrameStats()
			e.Counter("webml_ejb_frames_sent_total", "Request frames sent to containers.", nil, float64(sent))
			e.Counter("webml_ejb_frames_recv_total", "Reply frames received from containers.", nil, float64(recv))
			e.Gauge("webml_ejb_inflight_frames", "Request frames awaiting their reply.", nil, float64(inflight))
		})
		reg.Register(func(e *obs.Exposition) {
			for _, ep := range a.Remote.Health() {
				labels := map[string]string{"addr": ep.Addr}
				state := 0.0
				switch ep.State {
				case ejb.BreakerOpen:
					state = 1
				case ejb.BreakerHalfOpen:
					state = 0.5
				}
				e.Gauge("webml_breaker_open", "Breaker state per container endpoint (0 closed, 0.5 half-open, 1 open).", labels, state)
				e.Counter("webml_breaker_opens_total", "Times the breaker tripped open.", labels, float64(ep.Opens))
				e.Counter("webml_breaker_rejected_total", "Calls rejected by the open breaker.", labels, float64(ep.Rejected))
			}
		})
	}
	reg.Register(func(e *obs.Exposition) {
		emit := func(level string, s *cache.Stats) {
			if s == nil {
				return
			}
			l := map[string]string{"cache": level}
			e.Counter("webml_cache_hits_total", "Cache hits by level.", l, float64(s.Hits))
			e.Counter("webml_cache_misses_total", "Cache misses by level.", l, float64(s.Misses))
			e.Counter("webml_cache_puts_total", "Cache stores by level.", l, float64(s.Puts))
			e.Counter("webml_cache_evictions_total", "Cache evictions by level.", l, float64(s.Evictions))
			e.Counter("webml_cache_invalidations_total", "Model-driven invalidations by level.", l, float64(s.Invalidations))
			e.Counter("webml_cache_expirations_total", "TTL expirations by level.", l, float64(s.Expirations))
			e.Counter("webml_cache_degraded_hits_total", "Stale beans served in degraded mode.", l, float64(s.DegradedHits))
		}
		cs := a.CacheMetrics()
		emit("bean", cs.Bean)
		emit("edge", cs.Edge)
	})
	if a.Edge != nil {
		reg.Register(func(e *obs.Exposition) {
			hit, stale, miss := a.Edge.Dispositions()
			for _, d := range []struct {
				name string
				v    int64
			}{{"hit", hit}, {"stale", stale}, {"miss", miss}} {
				e.Counter("webml_edge_resolutions_total", "Edge resolutions by X-Cache disposition.",
					map[string]string{"disposition": d.name}, float64(d.v))
			}
		})
	}
	reg.RegisterVec(mvc.QueryLat)
	reg.Register(func(e *obs.Exposition) {
		s := a.DB.Stats()
		e.Counter("webml_rdb_stmt_cache_hits_total", "Parsed-statement cache hits.", nil, float64(s.StmtCacheHits))
		e.Counter("webml_rdb_stmt_cache_misses_total", "Parsed-statement cache misses.", nil, float64(s.StmtCacheMisses))
		e.Counter("webml_rdb_plan_cache_hits_total", "Compiled-plan cache hits.", nil, float64(s.PlanCacheHits))
		e.Counter("webml_rdb_plan_cache_misses_total", "Compiled-plan cache misses (first compile or revalidation).", nil, float64(s.PlanCacheMisses))
		for _, p := range []struct {
			path string
			v    uint64
		}{{"point", s.PointLookups}, {"range", s.RangeScans}, {"scan", s.FullScans}} {
			e.Counter("webml_rdb_access_total", "Base-table accesses by chosen path.",
				map[string]string{"path": p.path}, float64(p.v))
		}
		e.Counter("webml_rdb_joins_total", "Join executions by strategy.",
			map[string]string{"strategy": "indexed"}, float64(s.IndexedJoins))
		e.Counter("webml_rdb_joins_total", "Join executions by strategy.",
			map[string]string{"strategy": "loop"}, float64(s.LoopJoins))
		e.Counter("webml_rdb_sorts_eliminated_total", "ORDER BY clauses satisfied by index order.", nil, float64(s.SortsEliminated))
		e.Counter("webml_rdb_analyzed_queries_total", "Queries executed with operator-level runtime counters collected.", nil, float64(s.AnalyzedQueries))
		e.Counter("webml_rdb_queries_recorded_total", "Queries captured by the slow-query flight recorder.", nil, float64(s.QueriesRecorded))
	})
	if a.DB.EngineName() == "durable" {
		reg.Register(func(e *obs.Exposition) {
			s := a.DB.EngineStats()
			e.Counter("webml_rdb_wal_appends_total", "Committed change-sets appended to the WAL.", nil, float64(s.WALAppends))
			e.Counter("webml_rdb_wal_fsyncs_total", "WAL disk flushes (group commit amortizes these).", nil, float64(s.WALFsyncs))
			e.Counter("webml_rdb_wal_batches_total", "Group-commit leader rounds.", nil, float64(s.WALBatches))
			e.Counter("webml_rdb_wal_bytes_total", "WAL frame bytes appended since open.", nil, float64(s.WALBytes))
			e.Gauge("webml_rdb_wal_size_bytes", "Current physical WAL length.", nil, float64(s.WALSize))
			e.Counter("webml_rdb_pool_hits_total", "Buffer-pool page hits.", nil, float64(s.PoolHits))
			e.Counter("webml_rdb_pool_misses_total", "Buffer-pool page misses (disk reads).", nil, float64(s.PoolMisses))
			e.Counter("webml_rdb_pool_evictions_total", "Clean pages evicted from the buffer pool.", nil, float64(s.PoolEvictions))
			e.Gauge("webml_rdb_pool_resident_pages", "Pages currently cached in the buffer pool.", nil, float64(s.PoolResident))
			e.Gauge("webml_rdb_pool_dirty_pages", "Dirty pages pinned until the next checkpoint.", nil, float64(s.PoolDirty))
			e.Gauge("webml_rdb_pool_pinned_pages", "Pages with at least one active pin.", nil, float64(s.PoolPinned))
			e.Counter("webml_rdb_row_faults_total", "Rows faulted back from the page store into the row cache.", nil, float64(s.RowFaults))
			e.Counter("webml_rdb_rows_evicted_total", "Rows the row cache dropped to stay within its bound since open.", nil, float64(s.RowsEvicted))
			e.Gauge("webml_rdb_rows_resident", "Rows the row cache currently holds.", nil, float64(s.RowsResident))
			e.Counter("webml_rdb_checkpoints_total", "Page-file checkpoints (WAL resets).", nil, float64(s.Checkpoints))
			e.Counter("webml_rdb_recovered_records_total", "WAL records replayed at the last open.", nil, float64(s.RecoveredRecords))
		})
		reg.RegisterVec(a.faultLat)
	}
	if a.Admission != nil {
		reg.RegisterVec(a.Admission.Sojourn)
		reg.Register(func(e *obs.Exposition) {
			s := a.Admission.Stats()
			e.Gauge("webml_admission_active", "Actions currently holding an admission slot.", nil, float64(s.Active))
			e.Gauge("webml_admission_queued", "Actions waiting for an admission slot.", nil, float64(s.Queued))
			e.Gauge("webml_admission_queued_high_water", "Peak admission queue depth.", nil, float64(s.QueuedHighWater))
			standing := 0.0
			if s.Standing {
				standing = 1
			}
			e.Gauge("webml_admission_standing_queue", "1 while the CoDel detector sees a standing queue.", nil, standing)
			e.Gauge("webml_admission_retry_after_seconds", "Drain-rate Retry-After currently advertised on sheds.", nil, s.RetryAfter)
			for class, cs := range s.Classes {
				l := map[string]string{"class": class}
				e.Counter("webml_admission_admitted_total", "Admitted actions by priority class.", l, float64(cs.Admitted))
				for _, sh := range []struct {
					reason string
					v      int64
				}{{"full", cs.ShedFull}, {"timeout", cs.ShedTimeout}, {"displaced", cs.ShedDisplaced}, {"overload", cs.ShedOverload}} {
					e.Counter("webml_admission_shed_total", "Shed actions by priority class and reason.",
						map[string]string{"class": class, "reason": sh.reason}, float64(sh.v))
				}
			}
		})
	}
	if a.Fleet != nil {
		reg.Register(func(e *obs.Exposition) {
			s := a.Fleet.Stats()
			e.Gauge("webml_fleet_size", "Serving container clones.", nil, float64(s.Size))
			e.Gauge("webml_fleet_min", "Fleet size floor.", nil, float64(s.Min))
			e.Gauge("webml_fleet_max", "Fleet size ceiling.", nil, float64(s.Max))
			e.Gauge("webml_fleet_draining", "Clones draining toward retirement.", nil, float64(s.Draining))
			e.Counter("webml_fleet_scale_ups_total", "Clones added by the supervisor.", nil, float64(s.ScaleUps))
			e.Counter("webml_fleet_scale_downs_total", "Clones drained and retired by the supervisor.", nil, float64(s.ScaleDowns))
		})
	}
	if a.Edge != nil {
		reg.Counter("webml_edge_shed_stale_kept_total",
			"Background refreshes load-shed by the origin with the stale entry kept serving.", nil,
			func() float64 { return float64(a.Edge.ShedKept()) })
	}
	if a.Resilient != nil {
		reg.Counter("webml_retries_total", "Unit-read retry attempts.", nil,
			func() float64 { return float64(a.Resilient.Retries.Load()) })
	}
	if a.Faults != nil {
		reg.Register(func(e *obs.Exposition) {
			c := a.Faults.Counts()
			for _, f := range []struct {
				kind string
				v    int64
			}{{"latency", c.Latencies}, {"error", c.Errors}, {"panic", c.Panics}} {
				e.Counter("webml_faults_injected_total", "Injected chaos events by kind.",
					map[string]string{"kind": f.kind}, float64(f.v))
			}
		})
	}
	if a.Obs != nil {
		reg.Register(func(e *obs.Exposition) {
			started, slow := a.Obs.Stats()
			e.Counter("webml_traces_total", "Requests traced.", nil, float64(started))
			e.Counter("webml_traces_slow_total", "Traces past the slow threshold.", nil, float64(slow))
		})
	}
	return reg
}
