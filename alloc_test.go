package webmlgo

// Allocation guards for the row path. Each test runs one shape at 20
// and at 200 rows and bounds the allocations an *extra* row costs, so
// fixed per-query, per-page and per-call overheads cancel and a per-row
// allocation reintroduced anywhere between the plan's projection and
// the response bytes fails here, in go test.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/cell"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/ejb"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/render"
)

// allocSlope returns the allocations per extra row of the work that
// shape(rows) prepares.
func allocSlope(t *testing.T, shape func(rows int) func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	small, large := shape(20), shape(200)
	return (testing.AllocsPerRun(100, large) - testing.AllocsPerRun(100, small)) / 180
}

// rowsBean is an index bean of n (oid, Title) rows, oids past the
// runtime's preallocated small integers.
func rowsBean(n int) *mvc.UnitBean {
	b := &mvc.UnitBean{UnitID: "idx", Kind: "index", Fields: []string{"oid", "Title"}}
	for i := 0; i < n; i++ {
		b.Nodes = append(b.Nodes, mvc.Node{Values: cells(int64(1000+i), fmt.Sprintf("title %d", i))})
	}
	return b
}

// cells unboxes one literal row for a test bean.
func cells(row ...mvc.Value) []cell.Cell {
	out := make([]cell.Cell, len(row))
	for i, v := range row {
		var err error
		if out[i], err = cell.Of(v); err != nil {
			panic(err)
		}
	}
	return out
}

// itemTable creates table item<rows> of rows (oid, title) rows and
// returns its name.
func itemTable(t *testing.T, db *rdb.DB, rows int) string {
	t.Helper()
	table := fmt.Sprintf("item%d", rows)
	if _, err := db.Exec("CREATE TABLE " + table + " (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec("INSERT INTO "+table+" (title) VALUES (?)", fmt.Sprintf("title %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return table
}

func TestAllocSlopeCompiledSelect(t *testing.T) {
	db := rdb.Open()
	slope := allocSlope(t, func(rows int) func() {
		query := "SELECT t.oid, t.title FROM " + itemTable(t, db, rows) + " t ORDER BY t.oid"
		return func() {
			if res, err := db.Query(query); err != nil || res.Len() != rows {
				t.Fatalf("%d rows, err %v", res.Len(), err)
			}
		}
	})
	if slope > 0.25 {
		t.Fatalf("compiled SELECT ... ORDER BY allocates %.2f per extra row, want <= 0.25", slope)
	}
	t.Logf("compiled SELECT ... ORDER BY: %.3f allocs per extra row", slope)
}

// TestAllocScrollerWindowConstant: the generated scroller statements —
// one window in primary-key order and the count beside it — cost the
// same allocations whether the table holds 20 rows or 2,000, at the
// first window and at the last.
func TestAllocScrollerWindowConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := rdb.Open()
	shape := func(rows int) (window, count float64) {
		table := itemTable(t, db, rows)
		last := int64(rows - 10)
		window = testing.AllocsPerRun(100, func() {
			for _, offset := range []int64{0, last} {
				if res, err := db.Query("SELECT t.oid, t.title FROM "+table+" t ORDER BY t.oid LIMIT 10 OFFSET ?", offset); err != nil || res.Len() != 10 {
					t.Fatalf("%d rows, err %v", res.Len(), err)
				}
			}
		})
		count = testing.AllocsPerRun(100, func() {
			if res, err := db.Query("SELECT COUNT(*) FROM " + table + " t"); err != nil || res.Data[0][0].Value() != int64(rows) {
				t.Fatalf("count %v, err %v", res.Data, err)
			}
		})
		return window, count
	}
	smallWindow, smallCount := shape(20)
	largeWindow, largeCount := shape(2000)
	// Boxing OFFSET 1990, or the count 2,000, costs one allocation that a
	// small integer does not; nothing else may differ.
	if largeWindow > smallWindow+1 || largeCount > smallCount+1 {
		t.Fatalf("scroller allocations grow with the table: window %.0f -> %.0f, count %.0f -> %.0f",
			smallWindow, largeWindow, smallCount, largeCount)
	}
	t.Logf("scroller window pair: %.0f allocs at 20 rows, %.0f at 2,000; count: %.0f and %.0f", smallWindow, largeWindow, smallCount, largeCount)
}

// TestAllocListingConstant: a listing — every row in primary-key order,
// no LIMIT — is sized by its plan's last run, so its rows and their slab
// cost one allocation each whether the table holds 20 rows or 2,000.
func TestAllocListingConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := rdb.Open()
	listing := func(rows int) float64 {
		query := "SELECT t.oid, t.title FROM " + itemTable(t, db, rows) + " t ORDER BY t.oid"
		return testing.AllocsPerRun(100, func() {
			if res, err := db.Query(query); err != nil || res.Len() != rows {
				t.Fatalf("%d rows, err %v", res.Len(), err)
			}
		})
	}
	small, large := listing(20), listing(2000)
	if large > small+1 {
		t.Fatalf("listing allocations grow with the table: %.0f at 20 rows, %.0f at 2,000", small, large)
	}
	t.Logf("listing: %.0f allocs at 20 rows, %.0f at 2,000", small, large)
}

// TestAllocQueryExact pins what a generated unit query costs the engine
// once its plan is cached and sized. The execution is one allocation: its
// context, frame and argument slots, the result header, a one-row
// result's row list and a COUNT's cell. A result of more rows adds its
// row list and the slab its rows are cut from.
func TestAllocQueryExact(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := rdb.Open()
	table := itemTable(t, db, 200)
	id, offset := rdb.Value(int64(150)), rdb.Value(int64(20)) // boxed once, outside the runs
	for _, c := range []struct {
		name, sql    string
		args         []rdb.Value
		rows, allocs int
	}{
		{"listing", "SELECT t.oid, t.title FROM " + table + " t ORDER BY t.oid", nil, 200, 3},
		{"count", "SELECT COUNT(*) FROM " + table + " t", nil, 1, 1},
		{"point read", "SELECT t.oid, t.title FROM " + table + " t WHERE t.oid = ?", []rdb.Value{id}, 1, 2},
		{"window", "SELECT t.oid, t.title FROM " + table + " t ORDER BY t.oid LIMIT 10 OFFSET ?", []rdb.Value{offset}, 10, 3},
	} {
		got := testing.AllocsPerRun(100, func() {
			if res, err := db.Query(c.sql, c.args...); err != nil || res.Len() != c.rows {
				t.Fatalf("%s: %d rows, err %v", c.name, res.Len(), err)
			}
		})
		if got != float64(c.allocs) {
			t.Errorf("%s: %.0f allocs, want %d", c.name, got, c.allocs)
		}
		t.Logf("%s: %.0f allocs", c.name, got)
	}
}

func TestAllocSlopeRenderPage(t *testing.T) {
	pd := &descriptor.Page{ID: "p", Template: "p", Units: []descriptor.UnitRef{{ID: "idx"}},
		Anchors: []descriptor.Anchor{{FromUnit: "idx", Action: "page/detail",
			Params: []descriptor.EdgeParam{{Source: "oid", Target: "id"}}}}}
	repo := descriptor.NewRepository()
	repo.PutPage(pd)
	repo.PutTemplate("p", `<html><body><webml:indexUnit id="idx"/></body></html>`)
	engine := render.NewEngine(repo)
	slope := allocSlope(t, func(rows int) func() {
		state := &mvc.PageState{PageID: "p", Beans: map[string]*mvc.UnitBean{"idx": rowsBean(rows)}}
		return func() {
			if _, err := engine.RenderPage(pd, state, &mvc.RequestContext{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if slope > 0.25 {
		t.Fatalf("RenderPage of an anchored index allocates %.2f per extra row, want <= 0.25", slope)
	}
	t.Logf("RenderPage, anchored index: %.3f allocs per extra row", slope)
}

// TestAllocSlopeRenderTemplate: a compiled page is served by appending
// its statics around what the tags write, so the size of the template
// costs no allocation — nothing is cloned, walked or serialized per
// request — and over the tag's own allocations a page costs a fixed few:
// the tag context and the bytes returned.
func TestAllocSlopeRenderTemplate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	state := &mvc.PageState{PageID: "p", Beans: map[string]*mvc.UnitBean{"idx": rowsBean(20)}}
	ctx := &mvc.RequestContext{Error: "redisplayed"}
	var engine *render.Engine
	var pd *descriptor.Page
	shape := func(elements int) float64 {
		pd = &descriptor.Page{ID: "p", Template: "p", Units: []descriptor.UnitRef{{ID: "idx"}},
			Menu: []descriptor.MenuItem{{Action: "page/home", Label: "Home"}, {Action: "page/p", Label: "P & Q"}},
			Anchors: []descriptor.Anchor{{FromUnit: "idx", Action: "page/detail",
				Params: []descriptor.EdgeParam{{Source: "oid", Target: "id"}}}}}
		repo := descriptor.NewRepository()
		repo.PutPage(pd)
		repo.PutTemplate("p", `<html><body>`+strings.Repeat(`<p class="static">text &amp; <b>more</b></p>`, elements/2)+
			`<webml:indexUnit id="idx"/></body></html>`)
		engine = render.NewEngine(repo)
		return testing.AllocsPerRun(100, func() {
			if out, err := engine.RenderPage(pd, state, ctx); err != nil || len(out) < 22*elements {
				t.Fatalf("%d bytes, err %v", len(out), err)
			}
		})
	}
	large, small := shape(1000), shape(10)
	var w bytes.Buffer
	rc := &render.Context{Page: pd, State: state, Request: ctx}
	tag := testing.AllocsPerRun(100, func() {
		w.Reset()
		engine.Tags["index"](rc, &w, state.Beans["idx"])
	})
	if small != large || small-tag > 2 {
		t.Fatalf("RenderPage allocates %.0f at 10 static elements and %.0f at 1,000, of which the tag %.0f: want equal, and <= 2 over the tag", small, large, tag)
	}
	t.Logf("RenderPage: %.0f allocs at 10 and at 1,000 static elements, %.0f of them the tag's", small, tag)
}

// cannedBeans answers every unit call with the bean deployed under the
// descriptor's ID.
type cannedBeans map[string]*mvc.UnitBean

func (c cannedBeans) ComputeUnit(_ context.Context, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
	return c[d.ID], nil
}

func (cannedBeans) ExecuteOperation(context.Context, *descriptor.Unit, map[string]mvc.Value) (*mvc.OpResult, error) {
	return &mvc.OpResult{OK: true}, nil
}

// TestAllocSlopeCodec sends a bean through a real container over
// loopback: a sibling list decodes into one slab of cells whose text
// aliases the frame's one string copy, and encoding only reads cells, so
// an extra row allocates nothing on either side — no box per field, no
// map, no key. What is left of the slope is the larger frame's buffer
// growing in the pooled encoder and the reader.
func TestAllocSlopeCodec(t *testing.T) {
	beans := cannedBeans{"b20": rowsBean(20), "b200": rowsBean(200)}
	ctr := ejb.NewContainer(beans, 4)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close() //nolint:errcheck // test teardown
	client, err := ejb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	slope := allocSlope(t, func(rows int) func() {
		d := &descriptor.Unit{ID: fmt.Sprintf("b%d", rows), Kind: "index"}
		return func() {
			if bean, err := client.ComputeUnit(context.Background(), d, nil); err != nil || len(bean.Nodes) != rows {
				t.Fatalf("bean %+v, err %v", bean, err)
			}
		}
	})
	if slope > 0.1 {
		t.Fatalf("bean encode + decode allocates %.2f per extra row, want <= 0.1", slope)
	}
	t.Logf("bean encode + decode: %.3f allocs per extra row", slope)
}

// TestAllocSlopeBatchItems sends levels of 20 and of 200 units through a
// real container over loopback, each under a deadline as a request's
// level is: the level is one frame out and one reply frame back under
// one deadline, so an extra unit costs its descriptor, its bean and its
// response, not a frame, a reply buffer, a deadline or a request of its
// own.
func TestAllocSlopeBatchItems(t *testing.T) {
	slope := batchItemsSlope(t, &descriptor.Unit{ID: "b", Kind: "index"})
	// 5.0 per extra unit today; a reply frame, a deadline and a request
	// of its own per unit cost 15.0, a response and a decoded descriptor
	// per unit 8.0.
	if slope > 6 {
		t.Fatalf("a level allocates %.2f per extra unit, want <= 6", slope)
	}
	t.Logf("level over loopback: %.3f allocs per extra unit", slope)
}

// TestAllocSlopeBatchItemsDescriptor sends TestAllocSlopeBatchItems's
// levels with a descriptor of a generated index unit: the container
// decodes each descriptor once, so an extra unit costs what it costs
// with a descriptor of two fields. Decoded per item, the descriptor's
// struct, slices and cache policy cost 4 more.
func TestAllocSlopeBatchItemsDescriptor(t *testing.T) {
	small := batchItemsSlope(t, &descriptor.Unit{ID: "b", Kind: "index"})
	large := batchItemsSlope(t, &descriptor.Unit{ID: "b", Kind: "index", Entity: "paper",
		Query:   "SELECT oid, title, year FROM paper WHERE issue_oid = ? ORDER BY title",
		Inputs:  []descriptor.ParamDef{{Name: "issue"}},
		Outputs: []descriptor.FieldDef{{Name: "oid", Column: "oid"}, {Name: "Title", Column: "title"}, {Name: "Year", Column: "year"}},
		Reads:   []string{"entity:paper", "rel:issue-paper"},
		Cache:   &descriptor.CachePolicy{Enabled: true, TTLSeconds: 60},
	})
	if large > small+0.5 {
		t.Fatalf("a level of generated descriptors allocates %.2f per extra unit, of two-field ones %.2f: want within 0.5", large, small)
	}
	t.Logf("per extra unit: %.3f allocs with a generated descriptor, %.3f with two fields", large, small)
}

// batchItemsSlope is the allocations an extra unit of a level costs over
// loopback, every unit of the level carrying a copy of d.
func batchItemsSlope(t *testing.T, d *descriptor.Unit) float64 {
	t.Helper()
	ctr := ejb.NewContainer(cannedBeans{"b": rowsBean(1)}, 256)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close() //nolint:errcheck // test teardown
	client, err := ejb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	return allocSlope(t, func(units int) func() {
		calls := make([]mvc.UnitCall, units)
		for i := range calls {
			dc := *d
			calls[i] = mvc.UnitCall{D: &dc}
		}
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i, r := range client.ComputeUnits(ctx, calls) {
				if r.Err != nil || len(r.Bean.Nodes) != 1 {
					t.Fatalf("unit %d: bean %+v, err %v", i, r.Bean, r.Err)
				}
			}
		}
	})
}

// TestAllocRemoteOperation bounds an operation over loopback, a frame of
// one item: the reply's items are one slice of values, a one-item
// frame's response lives in the frame the container serves it by, and
// the container decodes the descriptor once. A boxed response on either
// side, a response slice per frame in the container and a descriptor
// decoded per frame cost 18.
func TestAllocRemoteOperation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctr := ejb.NewContainer(cannedBeans{}, 4)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close() //nolint:errcheck // test teardown
	client, err := ejb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	d := &descriptor.Unit{ID: "op", Kind: "modify", Entity: "volume"}
	inputs := map[string]mvc.Value{"oid": int64(3)}
	op := func() {
		if res, err := client.ExecuteOperation(context.Background(), d, inputs); err != nil || !res.OK {
			t.Fatalf("result %+v, err %v", res, err)
		}
	}
	op() // dials
	allocs := testing.AllocsPerRun(200, op)
	if allocs > 14 {
		t.Fatalf("an operation over loopback allocates %.1f times, want <= 14", allocs)
	}
	t.Logf("operation over loopback: %.1f allocs", allocs)
}

// TestAllocSlopeFragmentFill fills the fragment of a detail page's data
// unit through the controller, on pages where the data unit feeds 20 and
// 200 index units: the fill computes the data unit's cone, the unit
// alone, so a unit elsewhere on the page costs no allocation.
func TestAllocSlopeFragmentFill(t *testing.T) {
	var fills float64
	slope := allocSlope(t, func(units int) func() {
		repo := descriptor.NewRepository()
		beans := cannedBeans{"d": {UnitID: "d", Kind: "data", Fields: []string{"oid", "Title"},
			Nodes: []mvc.Node{{Values: cells(int64(1001), "a detail")}}}}
		pd := &descriptor.Page{ID: "p", Template: "p", Units: []descriptor.UnitRef{{ID: "d"}}}
		repo.PutUnit(&descriptor.Unit{ID: "d", Kind: "data"})
		for i := 0; i < units; i++ {
			id := fmt.Sprintf("i%d", i)
			beans[id] = rowsBean(3)
			repo.PutUnit(&descriptor.Unit{ID: id, Kind: "index"})
			pd.Units = append(pd.Units, descriptor.UnitRef{ID: id})
			pd.Edges = append(pd.Edges, descriptor.Edge{From: "d", To: id,
				Params: []descriptor.EdgeParam{{Source: "oid", Target: "parent"}}})
		}
		repo.PutPage(pd)
		ctrl := mvc.NewController(repo, beans, render.NewEngine(repo))
		ctrl.EdgeFragments = true
		req := httptest.NewRequest(http.MethodGet, "/fragment/p/d?oid=1001", nil)
		req.Header.Set("Surrogate-Capability", `webmlgo="ESI/1.0"`)
		fill := func() {
			rr := httptest.NewRecorder()
			ctrl.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "a detail") {
				t.Fatalf("fill: status %d\n%s", rr.Code, rr.Body.String())
			}
		}
		if units == 20 {
			fills = testing.AllocsPerRun(100, fill)
		}
		return fill
	})
	// A fill that computes the whole page costs 3 per extra unit.
	if slope > 0.01 {
		t.Fatalf("a fragment fill allocates %.2f per extra unit on its page, want 0", slope)
	}
	t.Logf("fragment fill: %.0f allocs, %.3f per extra unit on the page", fills, slope)
}

// pagedItems opens a database with a 16-row cache whose tables, an item
// and a wide one per row count, are fully paged out: every slot is an
// eviction marker and, reopened, the cache is empty, so a row is served
// from the 16-entry row cache or faulted. An item row has five
// columns (oid, title, body, price, stock), a wide row an oid and twelve
// texts.
func pagedItems(t *testing.T, rowCounts ...int) *rdb.DB {
	t.Helper()
	dir := t.TempDir()
	db, err := rdb.OpenDurableOpts(dir, rdb.DurableOptions{ResidentRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range rowCounts {
		table := fmt.Sprintf("item%d", rows)
		if _, err := db.Exec("CREATE TABLE " + table + " (oid INTEGER PRIMARY KEY, title TEXT NOT NULL, body TEXT, price INTEGER, stock INTEGER)"); err != nil {
			t.Fatal(err)
		}
		wide := fmt.Sprintf("wide%d", rows)
		const wideCols = "c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11"
		if _, err := db.Exec("CREATE TABLE " + wide + " (oid INTEGER PRIMARY KEY, " +
			strings.ReplaceAll(wideCols, ",", " TEXT,") + " TEXT)"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := db.Exec("INSERT INTO "+table+" (oid, title, body, price, stock) VALUES (?, ?, ?, ?, ?)",
				int64(1000+i), fmt.Sprintf("title %d", i), fmt.Sprintf("body of item %d", i), int64(i%200), int64(i%7)); err != nil {
				t.Fatal(err)
			}
			args := []rdb.Value{int64(1000 + i)}
			for c := 0; c < 12; c++ {
				args = append(args, fmt.Sprintf("column %d of row %d", c, i))
			}
			if _, err := db.Exec("INSERT INTO "+wide+" (oid, "+wideCols+") VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", args...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = rdb.OpenDurableOpts(dir, rdb.DurableOptions{ResidentRows: 16}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck // test teardown
	return db
}

// TestAllocRowFault bounds what an evicted row costs over a cached one:
// the same point read answered from the row cache, then cycling through
// more rows than the cache holds, so every read descends the page tree.
// The difference is the fault: the first chunks of the execution's image
// arena and row slab, which a query's only fault allocates at the size of
// its one image and its one row — its cells are decoded into the row, a
// text aliasing the image, whatever the columns the plan reads, and the
// cache recycles its oldest entry. The cached read's own count is pinned
// too: a hit allocates nothing.
func TestAllocRowFault(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 512
	db := pagedItems(t, rows)
	next := 0
	for _, c := range []struct {
		query         string
		fault, cached float64 // bounds
	}{
		{"SELECT t.oid, t.title, t.body, t.price, t.stock FROM item512 t WHERE t.oid = ?", 2, 7},
		{"SELECT t.title FROM item512 t WHERE t.oid = ?", 2, 7},
	} {
		read := func(stride int) func() {
			return func() {
				next = (next + stride) % rows
				if res, err := db.Query(c.query, int64(1000+next)); err != nil || res.Len() != 1 {
					t.Fatalf("%d rows, err %v", res.Len(), err)
				}
			}
		}
		cached := testing.AllocsPerRun(200, read(0))
		before := db.EngineStats().RowFaults
		evicted := testing.AllocsPerRun(200, read(1))
		if faults := db.EngineStats().RowFaults - before; faults < 200 {
			t.Fatalf("%s: cycling reads faulted %d rows, want every one of 200", c.query, faults)
		}
		if fault := evicted - cached; fault > c.fault || cached > c.cached {
			t.Fatalf("%s: a row fault allocates %.1f over a cached read (%.1f vs %.1f), want <= %.0f over <= %.0f",
				c.query, fault, evicted, cached, c.fault, c.cached)
		}
		t.Logf("%s: row fault %.1f allocs over a cached point read (%.1f vs %.1f)", c.query, evicted-cached, evicted, cached)
	}
}

// TestAllocSlopeRowFault: a faulted row is decoded into cells, a text
// aliasing the image, and the faults of one query share its image arena
// and row slab, so an extra faulted row costs only its share of a 4 KiB
// image chunk and of a 32-row chunk — whatever its width — not an image,
// a row or a box of its own. Each query scans a fully paged-out table
// through a 16-entry cache, so every row of every run is a fault; the
// 100-row and 400-row tables cancel the per-query costs.
func TestAllocSlopeRowFault(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := pagedItems(t, 100, 400)
	for _, shape := range []string{
		"SELECT t.oid, t.title FROM item t ORDER BY t.oid",
		"SELECT COUNT(*) FROM item t WHERE t.title LIKE '%9%'",
		"SELECT * FROM item t",
		"SELECT * FROM wide t",
	} {
		allocs := func(rows int) float64 {
			suffix := fmt.Sprint(rows) + " "
			query := strings.NewReplacer("item ", "item"+suffix, "wide ", "wide"+suffix).Replace(shape)
			before := db.EngineStats().RowFaults
			n := testing.AllocsPerRun(20, func() {
				if _, err := db.Query(query); err != nil {
					t.Fatal(err)
				}
			})
			if faults := db.EngineStats().RowFaults - before; faults < 21*uint64(rows) {
				t.Fatalf("%s: %d faults in 21 runs, want every row of every run", query, faults)
			}
			return n
		}
		slope := (allocs(400) - allocs(100)) / 300
		if slope > 0.25 {
			t.Fatalf("%s: a faulted row allocates %.2f, want <= 0.25", shape, slope)
		}
		t.Logf("%s: %.3f allocs per extra faulted row", shape, slope)
	}
}

// hitWriter discards the body and keeps one header map across requests,
// as a server connection's response would if it reused its map: what the
// edge's hit path allocates is then all that a run counts.
type hitWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *hitWriter) Header() http.Header { return w.h }

func (w *hitWriter) WriteHeader(code int) { w.code = code }

func (w *hitWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestAllocEdgeHit: a page whose container and fragments are all cached
// and fresh costs the edge no allocation. It writes the page from the
// cached bodies, with a validator and header memoized on the container.
func TestAllocEdgeHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	app := newApp(t, WithEdgeCache(1024, time.Minute))
	defer app.Edge.Close()
	h := app.Handler()
	for _, path := range edgePages {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := &hitWriter{h: make(http.Header)}
		h.ServeHTTP(w, r) // fills the container and its fragments
		hit := func() {
			w.code, w.n = http.StatusOK, 0
			h.ServeHTTP(w, r)
		}
		allocs := testing.AllocsPerRun(100, hit)
		if w.h.Get("X-Cache") != "HIT" || w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("%s: X-Cache %q, status %d, %d bytes; want a HIT with a body",
				path, w.h.Get("X-Cache"), w.code, w.n)
		}
		if allocs != 0 {
			t.Errorf("%s: an edge hit allocates %.0f times, want 0", path, allocs)
		}
	}
}

// TestAllocEdgeRefill pins what one fragment refill costs end to end: a
// page whose container and fragments are cached has one fragment purged
// (entity:issue, read by volume 1's issue and paper index alone), and the
// next GET of the page refills it through the controller, the page
// service over the fragment's two-unit cone, the local business tier and
// the renderer, then assembles the page. The count includes the purge.
// edgeRefillAllocs is TestAllocEdgeRefill's exact count.
const edgeRefillAllocs = 74

func TestAllocEdgeRefill(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	app := newApp(t, WithEdgeCache(1024, time.Minute))
	defer app.Edge.Close()
	h := app.Handler()
	r := httptest.NewRequest(http.MethodGet, "/page/volumePage?volume=1", nil)
	w := &hitWriter{h: make(http.Header)}
	h.ServeHTTP(w, r) // fills the container and its fragments
	_, _, miss0 := app.Edge.Dispositions()
	refill := func() {
		app.Edge.Invalidate("entity:issue")
		w.code, w.n = http.StatusOK, 0
		h.ServeHTTP(w, r)
	}
	const runs = 100
	allocs := testing.AllocsPerRun(runs, refill)
	_, _, miss := app.Edge.Dispositions()
	if w.code != http.StatusOK || w.n == 0 || !strings.Contains(w.h.Get("X-Cache"), "HIT") {
		t.Fatalf("status %d, %d bytes, X-Cache %q; want the cached container's page",
			w.code, w.n, w.h.Get("X-Cache"))
	}
	// AllocsPerRun runs the function once more to warm up.
	if fetches := float64(miss-miss0) / (runs + 1); fetches != 1 {
		t.Fatalf("%.2f origin fetches per GET, want the one purged fragment", fetches)
	}
	t.Logf("a fragment refill allocates %.0f times", allocs)
	if allocs != edgeRefillAllocs {
		t.Errorf("a fragment refill allocates %.0f times, want %d", allocs, edgeRefillAllocs)
	}
}

// TestAllocUntracedAdmission: admission costs an untraced action no
// allocation. The slot lives on the controller's stack, and the
// admission.wait span's labels are made only for a trace.
func TestAllocUntracedAdmission(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	count := func(opts ...Option) float64 {
		h := newApp(t, opts...).Handler()
		r := httptest.NewRequest(http.MethodGet, "/page/volumePage?volume=1", nil)
		r.Header.Set("User-Agent", "Go-http-client/1.1")
		w := &hitWriter{h: make(http.Header)}
		return testing.AllocsPerRun(100, func() {
			w.code, w.n = http.StatusOK, 0
			clear(w.h)
			h.ServeHTTP(w, r)
			if w.code != http.StatusOK || w.n == 0 {
				t.Fatalf("status %d, %d bytes", w.code, w.n)
			}
		})
	}
	plain, admitted := count(), count(WithAdmission(64, 256))
	t.Logf("a page action allocates %.0f times, %.0f behind admission", plain, admitted)
	if admitted != plain {
		t.Errorf("admission adds %.0f allocations to an untraced action, want 0", admitted-plain)
	}
}
