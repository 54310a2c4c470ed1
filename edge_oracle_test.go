package webmlgo

// The exactness oracle of Section 6's model-derived invalidation: a
// seeded sequence of operations runs against the Acer-Euro application
// with both cache levels on, and after every operation everything the
// caches serve must equal a recompute with no cache at all.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/edge"
	"webmlgo/internal/mvc"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

// oracleRows is the population per entity: unscoped lists then hold
// more rows than a bean is tagged object by object, scroller windows and
// relationship-scoped indexes fewer.
const oracleRows = 70

// acerEdgeStack is the Acer-Euro application in process with the bean
// cache and the edge tier on, and a controller over the same database and
// descriptors with no cache at all: the fresh recompute.
func acerEdgeStack(t *testing.T) (*App, *mvc.Controller) {
	t.Helper()
	m, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(m, WithCompiledStyle(B2CStyle()), WithBeanCache(1<<14), WithEdgeCache(1<<14, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	if err := workload.Populate(app.DB, oracleRows, 7); err != nil {
		t.Fatal(err)
	}
	fresh := mvc.NewController(app.Repo(), mvc.NewLocalBusiness(app.DB), app.Renderer)
	fresh.EdgeFragments = true
	return app, fresh
}

// serve answers one GET; surrogate asks for edge output (containers and
// fragments), cookie bypasses the edge.
func serve(h http.Handler, path string, surrogate bool, cookie string) (int, string) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if surrogate {
		req.Header.Set("Surrogate-Capability", edge.Capability)
	}
	if cookie != "" {
		req.Header.Set("Cookie", cookie)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.String()
}

// oracleWorkingSet returns the page URLs the oracle reads: the first four
// page clusters of the first public site view (browse pages with and
// without a keyword and past the first window, detail pages of three
// objects, manage pages), and the operations of those clusters.
func oracleWorkingSet(app *App) (pages []string, ops []*webml.Unit) {
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/page/sv01_p%03d", i)
		switch i % 3 {
		case 0:
			pages = append(pages, p, p+"?kw=1", p+"?offset=10")
		case 1:
			pages = append(pages, p+"?id=1", p+"?id=2", p+"?id=5")
		default:
			pages = append(pages, p)
		}
	}
	for _, op := range app.Model.Operations {
		if strings.HasPrefix(op.ID, "sv01_p00") || strings.HasPrefix(op.ID, "sv01_p01") {
			ops = append(ops, op)
		}
	}
	return pages, ops
}

// oracleOp draws one operation request.
func oracleOp(rng *rand.Rand, ops []*webml.Unit, step int) string {
	op := ops[rng.Intn(len(ops))]
	oid := func() string { return fmt.Sprint(rng.Intn(oracleRows+5) + 1) }
	q := url.Values{}
	switch op.Kind {
	case webml.CreateUnit:
		q.Set("name", fmt.Sprintf("Created %d", step))
	case webml.ModifyUnit:
		q.Set("oid", oid())
		q.Set("name", fmt.Sprintf("Renamed %d", step))
	case webml.DeleteUnit:
		q.Set("oid", oid())
	case webml.ConnectUnit, webml.DisconnectUnit:
		q.Set("from", oid())
		q.Set("to", oid())
	}
	return "/op/" + op.ID + "?" + q.Encode()
}

// TestEdgeExactnessOracle: after every operation of a seeded sequence of
// creates, modifies, deletes, connects and disconnects, every page the
// edge assembles from cached fragments, and every page rendered from
// cached beans, equals a fresh recompute: no stale read. It also counts
// the fragments each operation purged whose bytes did not change —
// over-invalidation — and reports it.
func TestEdgeExactnessOracle(t *testing.T) {
	app, fresh := acerEdgeStack(t)
	h := app.Handler()
	pages, ops := oracleWorkingSet(app)
	if len(ops) < 5 {
		t.Fatalf("working set has %d operations", len(ops))
	}

	// The fragments of the working set, from its page containers.
	seen := map[string]bool{}
	var fragments []string
	for _, p := range pages {
		code, container := serve(fresh, p, true, "")
		if code != http.StatusOK {
			t.Fatalf("container %s: status %d", p, code)
		}
		for _, seg := range edge.ParseESI([]byte(container)) {
			if seg.Src != "" && !seen[seg.Src] {
				seen[seg.Src] = true
				fragments = append(fragments, seg.Src)
			}
		}
	}
	sort.Strings(fragments)

	cached := func() map[string]bool {
		out := map[string]bool{}
		for _, f := range fragments {
			if _, ok := app.Edge.Store.Get(f); ok {
				out[f] = true
			}
		}
		return out
	}
	freshFragments := func() map[string]string {
		out := map[string]string{}
		for _, f := range fragments {
			_, out[f] = serve(fresh, f, true, "")
		}
		return out
	}
	stale := 0
	check := func(step int, op string) {
		for _, p := range pages {
			_, want := serve(fresh, p, false, "")
			if _, got := serve(h, p, false, ""); got != want {
				stale++
				t.Errorf("step %d (%s): edge serves a stale %s", step, op, p)
			}
			if _, got := serve(h, p, false, "WSESSION=oracle"); got != want {
				stale++
				t.Errorf("step %d (%s): bean cache serves a stale %s", step, op, p)
			}
		}
	}

	const steps = 100
	rng := rand.New(rand.NewSource(1))
	check(0, "warm-up")
	purged, over, applied := 0, 0, 0
	for step := 1; step <= steps; step++ {
		before, beforeBytes := cached(), freshFragments()
		op := oracleOp(rng, ops, step)
		code, body := serve(h, op, false, "")
		if code != http.StatusFound {
			t.Fatalf("step %d: %s answered %d: %s", step, op, code, body)
		}
		if !strings.Contains(body, "_error=") {
			applied++
		}
		after, afterBytes := cached(), freshFragments()
		for f := range before {
			if !after[f] {
				purged++
				if afterBytes[f] == beforeBytes[f] {
					over++
				}
			}
		}
		check(step, op)
	}
	if stale != 0 {
		t.Fatalf("%d stale reads", stale)
	}
	if applied < steps/2 {
		t.Fatalf("only %d of %d operations applied", applied, steps)
	}
	t.Logf("%d operations (%d applied) over %d pages and %d fragments: %d fragments purged, %d of them unchanged (over-invalidation), 0 stale reads",
		steps, applied, len(pages), len(fragments), purged, over)
}

// TestEdgeKeywordlessScrollerSurvivesModify: a search scroller reached
// without its keyword computed nothing, so it depends on nothing, and a
// modify of its entity leaves its fragment cached.
func TestEdgeKeywordlessScrollerSurvivesModify(t *testing.T) {
	app, fresh := acerEdgeStack(t)
	h := app.Handler()
	const scroller = "/fragment/sv01_p000/sv01_p000_scr"
	if code, _ := serve(h, "/page/sv01_p000", false, ""); code != http.StatusOK {
		t.Fatalf("browse page status %d", code)
	}
	if _, ok := app.Edge.Store.Get(scroller); !ok {
		t.Fatalf("%s not cached after its page was served", scroller)
	}
	if code, body := serve(h, "/op/sv01_p002_modify?oid=1&name=Renamed", false, ""); code != http.StatusFound || strings.Contains(body, "_error") {
		t.Fatalf("modify answered %d: %s", code, body)
	}
	if _, ok := app.Edge.Store.Get(scroller); !ok {
		t.Fatalf("%s was purged by a modify although it shows no row", scroller)
	}
	_, want := serve(fresh, "/page/sv01_p000", false, "")
	if _, got := serve(h, "/page/sv01_p000", false, ""); got != want {
		t.Fatal("browse page differs from a fresh render after the modify")
	}
}
