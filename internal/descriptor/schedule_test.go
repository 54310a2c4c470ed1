package descriptor

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func diamondPage() *Page {
	return &Page{
		ID:    "diamond",
		Units: []UnitRef{{ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "d"}},
		Edges: []Edge{
			{From: "a", To: "b"},
			{From: "a", To: "c"},
			{From: "b", To: "d"},
			{From: "c", To: "d"},
		},
	}
}

func TestComputeScheduleLevels(t *testing.T) {
	s, err := ComputeSchedule(diamondPage())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a"}, {"b", "c"}, {"d"}}
	if len(s.Levels) != len(want) {
		t.Fatalf("levels = %v", s.Levels)
	}
	for i, lvl := range want {
		if len(s.Levels[i]) != len(lvl) {
			t.Fatalf("level %d = %v, want %v", i, s.Levels[i], lvl)
		}
		for j, id := range lvl {
			if s.Levels[i][j] != id {
				t.Fatalf("level %d = %v, want %v", i, s.Levels[i], lvl)
			}
		}
	}
	if len(s.Order) != 4 || s.Order[0] != "a" || s.Order[3] != "d" {
		t.Fatalf("order = %v", s.Order)
	}
	if len(s.Incoming["d"]) != 2 {
		t.Fatalf("incoming[d] = %v", s.Incoming["d"])
	}
}

// TestComputeScheduleLongestPathLevels checks depth is longest-path: a
// unit fed both directly by the root and through a chain lands after the
// whole chain.
func TestComputeScheduleLongestPathLevels(t *testing.T) {
	pd := &Page{
		ID:    "p",
		Units: []UnitRef{{ID: "a"}, {ID: "b"}, {ID: "c"}},
		Edges: []Edge{
			{From: "a", To: "c"}, // direct
			{From: "a", To: "b"},
			{From: "b", To: "c"}, // via chain
		},
	}
	s, err := ComputeSchedule(pd)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Levels) != 3 || s.Levels[2][0] != "c" {
		t.Fatalf("levels = %v, want c alone at depth 2", s.Levels)
	}
}

func TestScheduleMemoized(t *testing.T) {
	r := NewRepository()
	r.PutPage(diamondPage())
	s1, err := r.Schedule("diamond")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Schedule("diamond")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("schedule not memoized (pointer identity lost)")
	}
}

func TestScheduleInvalidatedOnHotSwap(t *testing.T) {
	r := NewRepository()
	r.PutPage(diamondPage())
	s1, err := r.Schedule("diamond")
	if err != nil {
		t.Fatal(err)
	}
	// Hot-swap the page with a different topology (Section 8).
	r.PutPage(&Page{
		ID:    "diamond",
		Units: []UnitRef{{ID: "x"}, {ID: "y"}},
		Edges: []Edge{{From: "x", To: "y"}},
	})
	s2, err := r.Schedule("diamond")
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s1 {
		t.Fatal("hot-swap served the stale schedule")
	}
	if len(s2.Order) != 2 || s2.Order[0] != "x" {
		t.Fatalf("new schedule = %v", s2.Order)
	}
}

func TestScheduleUnknownPage(t *testing.T) {
	r := NewRepository()
	if _, err := r.Schedule("ghost"); err == nil {
		t.Fatal("unknown page accepted")
	}
}

func TestComputeScheduleErrors(t *testing.T) {
	if _, err := ComputeSchedule(&Page{
		ID:    "p",
		Units: []UnitRef{{ID: "a"}, {ID: "b"}},
		Edges: []Edge{{From: "a", To: "b"}, {From: "b", To: "a"}},
	}); err == nil {
		t.Fatal("cycle accepted")
	}
	if _, err := ComputeSchedule(&Page{
		ID:    "p",
		Units: []UnitRef{{ID: "a"}},
		Edges: []Edge{{From: "ghost", To: "a"}},
	}); err == nil {
		t.Fatal("unknown edge source accepted")
	}
	if _, err := ComputeSchedule(&Page{
		ID:    "p",
		Units: []UnitRef{{ID: "a"}},
		Edges: []Edge{{From: "a", To: "ghost"}},
	}); err == nil {
		t.Fatal("unknown edge target accepted")
	}
}

// TestScheduleOfCone: a fragment ID names the plan of the unit's cone,
// the unit and its transitive transport-edge sources, in the page's
// levels and order.
func TestScheduleOfCone(t *testing.T) {
	r := NewRepository()
	r.PutPage(diamondPage())
	for _, tc := range []struct {
		id, levels, order string
	}{
		{"diamond/a", "[[a]]", "[a]"},
		{"diamond/b", "[[a] [b]]", "[a b]"},
		{"diamond/c", "[[a] [c]]", "[a c]"},
		{"diamond/d", "[[a] [b c] [d]]", "[a b c d]"},
	} {
		s, err := r.Schedule(tc.id)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if levels, order := fmt.Sprint(s.Levels), fmt.Sprint(s.Order); levels != tc.levels || order != tc.order {
			t.Fatalf("%s: levels %s order %s, want %s %s", tc.id, levels, order, tc.levels, tc.order)
		}
		if s.Page == nil || s.Page.ID != "diamond" {
			t.Fatalf("%s: cone names page %v", tc.id, s.Page)
		}
	}
	if _, err := r.Schedule("diamond/ghost"); err == nil || !strings.Contains(err.Error(), `no unit "ghost"`) {
		t.Fatalf("unit not on the page: err %v", err)
	}
	if _, err := r.Schedule("diamond/"); err == nil {
		t.Fatal("empty unit ID accepted")
	}
	if _, err := r.Schedule("ghost/a"); err == nil {
		t.Fatal("unknown page accepted")
	}
}

// TestScheduleConeMemoized: a cone is derived once per page schedule and
// listed nowhere a page is.
func TestScheduleConeMemoized(t *testing.T) {
	r := NewRepository()
	r.PutPage(diamondPage())
	c1, err := r.Schedule("diamond/b")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.Schedule("diamond/b")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("cone not memoized (pointer identity lost)")
	}
	if _, pages, _ := r.Counts(); pages != 1 || len(r.Pages()) != 1 {
		t.Fatalf("cones listed as pages: %d, %v", pages, r.Pages())
	}
}

// TestScheduleConeFollowsHotSwap: a page put with a transport edge added
// or removed gets new cones, as it gets a new schedule.
func TestScheduleConeFollowsHotSwap(t *testing.T) {
	page := func(edges ...Edge) *Page {
		return &Page{ID: "p", Units: []UnitRef{{ID: "a"}, {ID: "b"}, {ID: "c"}}, Edges: edges}
	}
	r := NewRepository()
	for _, step := range []struct {
		pd   *Page
		cone string
	}{
		{page(Edge{From: "a", To: "c"}), "[a c]"},
		{page(Edge{From: "a", To: "c"}, Edge{From: "b", To: "c"}), "[a b c]"},
		{page(), "[c]"},
	} {
		r.PutPage(step.pd)
		s, err := r.Schedule("p/c")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(s.Order); got != step.cone || s.Page != step.pd {
			t.Fatalf("cone of c = %s over %p, want %s over %p", got, s.Page, step.cone, step.pd)
		}
	}
}

// TestScheduleConeConcurrentHotSwap looks cones up while the page is
// swapped between two topologies: every plan is one of the two cones,
// over the descriptor it was derived from (run under -race).
func TestScheduleConeConcurrentHotSwap(t *testing.T) {
	chain := &Page{ID: "p", Units: []UnitRef{{ID: "a"}, {ID: "b"}, {ID: "c"}},
		Edges: []Edge{{From: "a", To: "b"}, {From: "b", To: "c"}}}
	alone := &Page{ID: "p", Units: []UnitRef{{ID: "a"}, {ID: "b"}, {ID: "c"}}}
	want := map[*Page]string{chain: "[[a] [b] [c]]", alone: "[[c]]"}
	r := NewRepository()
	r.PutPage(chain)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s, err := r.Schedule("p/c")
				if err != nil {
					errs <- err
					return
				}
				if got := fmt.Sprint(s.Levels); got != want[s.Page] {
					errs <- fmt.Errorf("cone levels %s over %p, want %s", got, s.Page, want[s.Page])
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		r.PutPage([]*Page{chain, alone}[i%2])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
