package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"webmlgo/internal/admit"
	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/ejb"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
	"webmlgo/internal/rdb"
	"webmlgo/internal/rdb/storage/pager"
	"webmlgo/internal/rdb/storage/wal"
	"webmlgo/internal/webml"
)

// counters is a snapshot of every public Stats() surface of the stack.
type counters struct {
	edgeHit, edgeStale, edgeMiss int64
	edge, bean                   cache.Stats
	admit                        admit.Stats
	framesSent                   int64
	queue                        obs.HistSnapshot
	db                           rdb.DBStats
	eng                          rdb.EngineStats
}

func snapshot(st *stack) counters {
	var c counters
	c.edgeHit, c.edgeStale, c.edgeMiss = st.app.Edge.Dispositions()
	c.edge, c.bean = st.app.Edge.Stats(), st.app.BeanCache.Stats()
	c.admit = st.app.Admission.Stats()
	c.framesSent, _, _ = st.app.Remote.FrameStats()
	c.queue = st.ctr.QueueLatency()
	c.db, c.eng = st.db.Stats(), st.db.EngineStats()
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sheds(s admit.Stats) (n int64) {
	for _, c := range s.Classes {
		n += c.Shed
	}
	return n
}

// replayBlock is how many requests the replay sends with the shims off
// before (or after) sending the same requests with them on.
const replayBlock = 250

// runTraced is the --trace 1 run. The stack was built with the shims in
// place but switched off. Counters are deltas over an open phase at the
// workload's rate; times come from the replay of the stream's first
// replayLen requests, one at a time, each block of replayBlock once with
// the shims off and once with them on, in alternating order, so that what
// the first pass leaves in the caches helps neither side; probes time the
// layers that have no seam to put a shim on.
func runTraced(cfg runConfig, rep *report, st *stack, drv *driver, rec *recorder) error {
	set := func(name string, v float64) { rep.set(perLayer, name, v) }

	// Open phase: counters, and the generator's own numbers.
	c0 := snapshot(st)
	op, err := openPhase(cfg, rep, drv)
	if err != nil {
		return err
	}
	c1 := snapshot(st)
	reqs, writes := float64(op.Attempted), float64(op.Ops)
	set("loadgen.late_p99_ms", rep.Diagnostics["late_p99_ms"])
	set("loadgen.p999_ms", rep.Diagnostics["p999_ms"])

	dHit, dStale, dMiss := float64(c1.edgeHit-c0.edgeHit), float64(c1.edgeStale-c0.edgeStale), float64(c1.edgeMiss-c0.edgeMiss)
	set("edge.hit_ratio", ratio(dHit, dHit+dStale+dMiss))
	set("edge.purged_per_write", ratio(float64(c1.edge.Invalidations-c0.edge.Invalidations), writes))
	rep.Diagnostics["edge.resolutions_per_req"] = (dHit + dStale + dMiss) / reqs
	set("admit.shed", float64(sheds(c1.admit)-sheds(c0.admit)))
	set("admit.queued_high_water", float64(c1.admit.QueuedHighWater))
	bHits, bMisses := float64(c1.bean.Hits-c0.bean.Hits), float64(c1.bean.Misses-c0.bean.Misses)
	set("cache.hit_ratio", ratio(bHits, bHits+bMisses))
	set("cache.evictions_per_req", float64(c1.bean.Evictions-c0.bean.Evictions)/reqs)
	set("cache.invalidated_per_write", ratio(float64(c1.bean.Invalidations-c0.bean.Invalidations), writes))
	set("ejb.frames_per_req", float64(c1.framesSent-c0.framesSent)/reqs)
	set("ejb.container_queue_p99_us", float64(c1.queue.Delta(c0.queue).Quantile(0.99))/1e3)
	planHits, planMisses := float64(c1.db.PlanCacheHits-c0.db.PlanCacheHits), float64(c1.db.PlanCacheMisses-c0.db.PlanCacheMisses)
	stmtHits, stmtMisses := float64(c1.db.StmtCacheHits-c0.db.StmtCacheHits), float64(c1.db.StmtCacheMisses-c0.db.StmtCacheMisses)
	set("rdb.plan_hit_ratio", ratio(planHits, planHits+planMisses))
	set("rdb.stmt_hit_ratio", ratio(stmtHits, stmtHits+stmtMisses))
	set("rdb.point_lookups_per_req", float64(c1.db.PointLookups-c0.db.PointLookups)/reqs)
	set("rdb.range_scans_per_req", float64(c1.db.RangeScans-c0.db.RangeScans)/reqs)
	set("rdb.full_scans_per_req", float64(c1.db.FullScans-c0.db.FullScans)/reqs)
	set("rdb.row_faults_per_req", float64(c1.eng.RowFaults-c0.eng.RowFaults)/reqs)
	set("rdb.rows_resident", float64(c1.eng.RowsResident))
	appends := float64(c1.eng.WALAppends - c0.eng.WALAppends)
	set("wal.fsyncs_per_append", ratio(float64(c1.eng.WALFsyncs-c0.eng.WALFsyncs), appends))
	set("wal.bytes_per_append", ratio(float64(c1.eng.WALBytes-c0.eng.WALBytes), appends))
	set("wal.appends_per_write", ratio(appends, writes))
	poolHits, poolMisses := float64(c1.eng.PoolHits-c0.eng.PoolHits), float64(c1.eng.PoolMisses-c0.eng.PoolMisses)
	set("pager.pool_hit_ratio", ratio(poolHits, poolHits+poolMisses))
	set("pager.evictions_per_req", float64(c1.eng.PoolEvictions-c0.eng.PoolEvictions)/reqs)
	set("pager.checkpoints", float64(c1.eng.Checkpoints-c0.eng.Checkpoints))

	// Replays, shims off and on.
	var plain, traced phaseResult
	for from := 0; from < cfg.Replay; from += replayBlock {
		for pass := 0; pass < 2; pass++ {
			if on := (from/replayBlock+pass)%2 == 1; on {
				rec.on.Store(true)
				drv.replay(&traced, from, replayBlock, rec)
				rec.on.Store(false)
			} else {
				drv.replay(&plain, from, replayBlock, nil)
			}
		}
	}
	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	b := budgetOf(spans, traced)
	rep.Samples["replay_requests"], rep.Samples["replay_ops"] = int64(b.requests), int64(b.ops)
	rep.Samples["spans"] = int64(len(spans))
	gets, ops := float64(b.requests-b.ops), float64(b.ops)
	all := float64(b.requests)
	us := func(ns int64, over float64) float64 { return ratio(float64(ns)/1e3, over) }
	set("http.self_us", us(b.self[spClient]+b.opSelf[spClient], all))
	set("http.resp_bytes", float64(traced.Bytes)/all)
	set("edge.self_us", us(b.self[spHandler]+b.opSelf[spHandler], all))
	set("edge.origin_fetches_per_req", float64(b.count[spOrigin])/all)
	set("mvc.controller_self_us", us(b.self[spOrigin], gets))
	set("mvc.op_self_us", us(b.opSelf[spOrigin], ops))
	set("mvc.page_self_us", us(b.self[spPages], gets))
	set("mvc.units_per_page", ratio(float64(b.units[spUnits]), float64(b.count[spPages])))
	set("mvc.unit_us", us(b.self[spContainer], gets))
	set("mvc.op_exec_us", us(b.opSelf[spContainer], ops))
	set("cache.self_us", us(b.self[spUnits], gets))
	set("cache.purge_self_us", us(b.opSelf[spOpBiz], ops))
	set("ejb.call_self_us", us(b.self[spRemote]+b.opSelf[spRemote], all))
	set("ejb.calls_per_req", float64(b.count[spRemote])/all)
	set("ejb.units_per_call", ratio(float64(b.units[spRemote]), float64(b.count[spRemote])))
	set("render.self_us", us(b.self[spRender], gets))

	// The budget's one independent check. Inside the handler span the self
	// times add up to it by construction, so what can be wrong is the part
	// outside: the HTTP stack's share is measured a second time, by sending
	// bodies of the replay's sizes through a bare http.Server, and the
	// server-side layers plus that probe must account for the latency the
	// client saw. The probe's handler writes its body at once, as the edge
	// does; behind a controller that writes as it renders, the client and
	// the handler overlap less well and the real share is larger.
	probeUS, err := probeHTTP(drv.ver, traced.Sizes)
	if err != nil {
		return fmt.Errorf("http probe: %w", err)
	}
	set("http.probe_us", probeUS)
	tracedMS, plainMS := mean(succeeded(traced.Lat)), mean(succeeded(plain.Lat))
	set("trace.sum_ratio", ratio(us(b.serverTotal, all)+probeUS, tracedMS*1e3))
	set("trace.overhead_ratio", ratio(tracedMS, plainMS))
	rep.Diagnostics["replay_mean_ms"], rep.Diagnostics["replay_traced_mean_ms"] = plainMS, tracedMS

	if err := runProbes(cfg, rep, st, drv.strm, rec, ratio(float64(c1.eng.WALBytes-c0.eng.WALBytes), appends)); err != nil {
		return err
	}
	if cfg.OutDir == "" {
		return nil
	}
	return writeTrace(filepath.Join(cfg.OutDir, cfg.Spec.Name+".trace.json"), cfg, spans)
}

// probeSink keeps the compiler from dropping the probe's hashing.
var probeSink uint64

// probeHTTP serves bodies of the given sizes from a bare http.Server on
// loopback to the generator's own client, one at a time, hashing each as
// the oracle does, and returns the mean of round trip minus time inside the
// handler, in microseconds: what http.self_us is in the replay, measured
// with no program behind the handler and no span.
func probeHTTP(ver *verifier, sizes []int) (float64, error) {
	canned := bytes.Repeat([]byte("<td>0123456789abcdef</td>\n"), 1+slices.Max(sizes)/26)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var inHandler atomic.Int64 // nanoseconds
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		n, _ := strconv.Atoi(r.URL.Path[1:]) // a bad path serves an empty body, which the length check below reports
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(canned[:n]) //nolint:errcheck // a short write shows as a wrong length at the client
		inHandler.Add(int64(time.Since(t0)))
	})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.close()
	paths := make([]string, len(sizes))
	for i, n := range sizes {
		paths[i] = "/" + strconv.Itoa(n)
	}
	t0 := time.Now()
	for i, p := range paths {
		status, body, err := c.do(p, "")
		if err != nil || status != http.StatusOK || len(body) != sizes[i] {
			return 0, fmt.Errorf("GET %s: status %d, %d bytes, %v", p, status, len(body), err)
		}
		probeSink += ver.hashOf(body)
	}
	return float64(int64(time.Since(t0))-inHandler.Load()) / 1e3 / float64(len(sizes)), nil
}

// budget is the per-layer account of a traced replay. Requests that are
// operations are kept apart (opSelf), because the same seam means a
// different thing on the write path.
type budget struct {
	requests, ops int
	self, opSelf  [numLayers]int64 // nanoseconds
	count, units  [numLayers]int64 // spans, and unit calls they carried
	serverTotal   int64            // self time of every layer below the client
}

func budgetOf(spans []span, replay phaseResult) budget {
	b := budget{requests: replay.Attempted, ops: replay.Ops}
	byReq := make([][]span, replay.Attempted)
	for _, s := range spans {
		if int(s.Req) < len(byReq) {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
		b.count[s.Layer]++
		b.units[s.Layer] += int64(s.N)
	}
	for i, ss := range byReq {
		self := selfTimes(ss)
		for l, ns := range self {
			if layer(l) != spClient {
				b.serverTotal += ns
			}
			if replay.IsOp[i] {
				b.opSelf[l] += ns
			} else {
				b.self[l] += ns
			}
		}
	}
	return b
}

func writeTrace(path string, cfg runConfig, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.Spec.Name, cfg.Seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// ---- probes ----

// probe calls fn n times on this goroutine and returns the mean time in
// microseconds and the mean number of heap allocations per call.
func probe(n int, fn func(i int) error) (us, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / 1e3 / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// cannedBusiness answers unit calls with beans captured from the run, so a
// batch sent to a container over it costs encode, loopback and decode only.
type cannedBusiness struct{ beans map[string]*mvc.UnitBean }

func (c cannedBusiness) ComputeUnit(_ context.Context, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
	if b := c.beans[d.ID]; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("canned: no bean for %s", d.ID)
}

func (cannedBusiness) ExecuteOperation(context.Context, *descriptor.Unit, map[string]mvc.Value) (*mvc.OpResult, error) {
	return nil, errors.New("canned: no operations")
}

// runProbes times the public functions of the layers that have no
// interface seam, single-threaded, on inputs taken from the workload.
func runProbes(cfg runConfig, rep *report, st *stack, strm *stream, rec *recorder, walPayload float64) error {
	set := func(name string, v float64) { rep.set(perLayer, name, v) }
	repo := st.app.Repo()
	ctx := context.Background()
	// A probe makes as many calls as the replay has requests (2000 in a
	// driver's run); the ones that fsync on every call, 3/20 of that.
	probeCalls := cfg.Replay
	probeSyncCalls := max(cfg.Replay*3/20, 1)

	// admit: uncontended acquire + release.
	us, _, err := probe(probeCalls, func(int) error {
		release, err := st.app.Admission.Acquire(ctx, admit.Interactive)
		if err == nil {
			release()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("admit probe: %w", err)
	}
	set("admit.acquire_us", us)

	// Units to probe with: the first data unit a target shows (a pk
	// lookup), the first index without inputs (a whole-entity read) and a
	// modify of the data unit's entity.
	var dataUnit, listUnit, modifyUnit *descriptor.Unit
	for _, t := range strm.targets {
		for _, u := range repo.Page(t.Page).Units {
			d := repo.Unit(u.ID)
			switch {
			case d.Kind == string(webml.DataUnit) && dataUnit == nil:
				dataUnit = d
			case d.Kind == string(webml.IndexUnit) && len(d.Inputs) == 0 && listUnit == nil:
				listUnit = d
			}
		}
	}
	for _, d := range repo.Units() {
		if d.Kind == string(webml.ModifyUnit) && dataUnit != nil && d.Entity == dataUnit.Entity {
			modifyUnit = d
			break
		}
	}
	if dataUnit == nil || listUnit == nil || modifyUnit == nil {
		return fmt.Errorf("probes: workload has no data unit, index or modify to probe with")
	}
	oidOf := func(i int) int64 { return int64(i%rowsPerEntity + 1) }

	// cache: BeanCache.Get of the data unit's beans.
	keys := make([]string, rowsPerEntity)
	for i := range keys {
		keys[i] = cache.Key(dataUnit.ID, map[string]string{"id": fmt.Sprint(oidOf(i))})
	}
	hits := 0
	us, allocs, _ := probe(probeCalls, func(i int) error {
		if _, ok := st.app.BeanCache.Get(keys[i%len(keys)]); ok {
			hits++
		}
		return nil
	})
	set("cache.get_us", us)
	set("cache.get_allocs", allocs)
	rep.Diagnostics["cache.get_probe_hit_ratio"] = float64(hits) / float64(probeCalls)

	// rdb: point lookup, whole-entity read, one modify-shaped commit.
	us, allocs, err = probe(probeCalls, func(i int) error {
		_, err := st.db.Query(dataUnit.Query, oidOf(i))
		return err
	})
	if err != nil {
		return fmt.Errorf("rdb point probe: %w", err)
	}
	set("rdb.point_us", us)
	set("rdb.point_allocs", allocs)
	us, _, err = probe(probeCalls, func(int) error {
		_, err := st.db.Query(listUnit.Query)
		return err
	})
	if err != nil {
		return fmt.Errorf("rdb scan probe: %w", err)
	}
	set("rdb.scan_us", us)
	col := firstDisplay(modifyUnit.Entity)
	table := strings.ToLower(modifyUnit.Entity)
	us, _, err = probe(probeSyncCalls, func(i int) error {
		oid := oidOf(i)
		row, err := st.db.QueryRow("SELECT "+col+" FROM "+table+" WHERE oid = ?", oid)
		if err != nil {
			return err
		}
		// Writing the name back leaves the data as the run left it.
		args := make([]rdb.Value, len(modifyUnit.Inputs))
		for j, p := range modifyUnit.Inputs {
			if args[j] = row[col]; p.Name == "oid" {
				args[j] = oid
			}
		}
		_, err = st.db.Exec(modifyUnit.Query, args...)
		return err
	})
	if err != nil {
		return fmt.Errorf("rdb commit probe: %w", err)
	}
	set("rdb.commit_us", us)

	// wal: append + sync on a scratch log, payload as large as the run's.
	if walPayload < 1 {
		walPayload = 64
	}
	log, _, _, err := wal.Open(filepath.Join(cfg.Root, "probe.wal"))
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	payload := make([]byte, int(walPayload))
	us, _, err = probe(probeSyncCalls, func(int) error {
		lsn, err := log.Append(payload)
		if err != nil {
			return err
		}
		return log.Sync(lsn)
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	set("wal.append_sync_us", us)

	// pager: BTree.Get on a scratch file of as many records as the run's
	// database has rows, pooled like it.
	pagesPath := filepath.Join(cfg.Root, "probe.pages")
	rows := st.populatedRows
	value := make([]byte, 64)
	err = pager.WriteCheckpoint(pagesPath, 0, nil, func(emit func(pager.Key, []byte) error) error {
		for i := 0; i < rows; i++ {
			if err := emit(pager.MakeKey(1, uint64(i)), value); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("pager probe: %w", err)
	}
	pool := 0 // the pager's default
	if cfg.Spec.Cold {
		fi, err := os.Stat(pagesPath)
		if err != nil {
			return err
		}
		pool = int(fi.Size() / pager.PageSize / 2)
	}
	store, err := pager.Open(pagesPath, pool)
	if err != nil {
		return fmt.Errorf("pager probe: %w", err)
	}
	us, _, err = probe(probeCalls, func(i int) error {
		_, _, err := store.Tree().Get(pager.MakeKey(1, uint64(i*7919%rows)))
		return err
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pager probe: %w", err)
	}
	set("pager.get_us", us)

	// render: RenderPage on the first page state the run rendered inline.
	set("render.page_us", 0)
	set("render.page_allocs", 0)
	if rec.renderPD != nil {
		us, allocs, err = probe(probeCalls, func(int) error {
			_, err := st.app.Renderer.RenderPage(rec.renderPD, rec.renderSt, rec.renderCtx)
			return err
		})
		if err != nil {
			return fmt.Errorf("render probe: %w", err)
		}
		set("render.page_us", us)
		set("render.page_allocs", allocs)
	}

	// ejb: the first level batch the run sent, through a client and a
	// container of their own over a canned business. The codec has no
	// public entry point, so this is encode + loopback + decode.
	set("ejb.codec_us", 0)
	set("ejb.codec_allocs", 0)
	if len(rec.batch) > 0 {
		canned := cannedBusiness{beans: map[string]*mvc.UnitBean{}}
		for i, c := range rec.batch {
			canned.beans[c.D.ID] = rec.batchOut[i].Bean
		}
		ctr := ejb.NewContainer(canned, 16)
		addr, err := ctr.Serve("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("ejb probe: %w", err)
		}
		defer ctr.Close()
		rb, err := ejb.Dial(addr)
		if err != nil {
			return fmt.Errorf("ejb probe: %w", err)
		}
		defer rb.Close()
		rb.Wire = ejb.WireFramed
		us, allocs, err = probe(probeCalls, func(int) error {
			for _, r := range rb.ComputeUnits(ctx, rec.batch) {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("ejb probe: %w", err)
		}
		set("ejb.codec_us", us)
		set("ejb.codec_allocs", allocs)
		rep.Samples["codec_batch_units"] = int64(len(rec.batch))
	}
	return nil
}
