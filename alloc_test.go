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
	slope := allocSlope(t, func(units int) func() {
		calls := make([]mvc.UnitCall, units)
		for i := range calls {
			calls[i] = mvc.UnitCall{D: &descriptor.Unit{ID: "b", Kind: "index"}}
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
	// 9.0 per extra unit today; a reply frame, a deadline and a request
	// of its own per unit cost 15.0.
	if slope > 12 {
		t.Fatalf("a level allocates %.2f per extra unit, want <= 12", slope)
	}
	t.Logf("level over loopback: %.3f allocs per extra unit", slope)
}

// pagedItems opens a database with a 16-row budget whose tables, an item
// and a wide one per row count, are fully paged out: reopened, every slot
// is an eviction marker and reads never repopulate slots, so a row is
// served from the 16-entry row cache or faulted. An item row has five
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
