package mvc

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/obs"
)

// computedUnits returns the sorted IDs the business computed, and forgets
// them.
func (r *recordingBusiness) computedUnits() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.order...)
	r.order = r.order[:0]
	sort.Strings(out)
	return fmt.Sprint(out)
}

// TestComputeConeOfFragment: a fragment ID computes the unit's cone and
// nothing else, with the parameters its edges carry, and is observed
// under its page's ID.
func TestComputeConeOfFragment(t *testing.T) {
	repo := descriptor.NewRepository()
	fanPage(repo, 4)
	rb := &recordingBusiness{}
	ps := &PageService{Repo: repo, Business: rb,
		PageLat: obs.NewHistogramVec("webml_page_compute_seconds", "", "page")}
	for _, tc := range []struct{ id, computed string }{
		{"fan/root", "[root]"},
		{"fan/mid02", "[mid02 root]"},
		{"fan/sink", "[mid00 mid01 mid02 mid03 root sink]"},
		{"fan", "[mid00 mid01 mid02 mid03 root sink]"},
	} {
		state, err := ps.ComputePage(context.Background(), tc.id, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if got := rb.computedUnits(); got != tc.computed {
			t.Fatalf("%s computed %s, want %s", tc.id, got, tc.computed)
		}
		if state.PageID != "fan" || len(state.Order) != 6 {
			t.Fatalf("%s: state of page %q ordering %v", tc.id, state.PageID, state.Order)
		}
	}
	state, err := ps.ComputePage(context.Background(), "fan/mid02", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b := state.Beans["mid02"]; b == nil || fmt.Sprint(b.Fields) != "[id parent]" || b.Nodes[0].Values[1].Value() != "root" {
		t.Fatalf("mid02 bean %+v: the root's parameter did not reach it", b)
	}
	if _, err := ps.ComputePage(context.Background(), "fan/ghost", nil, nil); err == nil {
		t.Fatal("a unit not on the page computed")
	}
	var series []string
	for _, s := range ps.PageLat.Snapshot() {
		series = append(series, fmt.Sprintf("%s:%d", s.LabelValue, s.Hist.Count))
	}
	if got := fmt.Sprint(series); got != "[fan:6]" {
		t.Fatalf("page latency series %s, want one series for the page, [fan:6]", got)
	}
}

// fanWithoutEdges is fanPage's page with n middle units and no transport
// edges: every unit is its own cone.
func fanWithoutEdges(repo *descriptor.Repository, n int) *descriptor.Page {
	pd := &descriptor.Page{ID: "fan", Units: []descriptor.UnitRef{{ID: "root"}}}
	for i := 0; i < n; i++ {
		pd.Units = append(pd.Units, descriptor.UnitRef{ID: fmt.Sprintf("mid%02d", i)})
	}
	pd.Units = append(pd.Units, descriptor.UnitRef{ID: "sink"})
	repo.PutPage(pd)
	return pd
}

// TestComputeConeAfterHotSwap: the fill after a PutPage that removes or
// adds transport edges computes the new cone.
func TestComputeConeAfterHotSwap(t *testing.T) {
	repo := descriptor.NewRepository()
	fanPage(repo, 2)
	rb := &recordingBusiness{}
	ps := &PageService{Repo: repo, Business: rb}
	for _, step := range []struct {
		put      func()
		computed string
	}{
		{func() {}, "[mid00 mid01 root sink]"},
		{func() { fanWithoutEdges(repo, 2) }, "[sink]"},
		{func() { fanPage(repo, 2) }, "[mid00 mid01 root sink]"},
	} {
		step.put()
		if _, err := ps.ComputePage(context.Background(), "fan/sink", nil, nil); err != nil {
			t.Fatal(err)
		}
		if got := rb.computedUnits(); got != step.computed {
			t.Fatalf("sink's fill computed %s, want %s", got, step.computed)
		}
	}
}

// TestComputeConeDuringHotSwap fills a fragment while its page is swapped
// between two topologies: every fill computes the cone of the descriptor
// its state comes from (run under -race).
func TestComputeConeDuringHotSwap(t *testing.T) {
	repo := descriptor.NewRepository()
	fanPage(repo, 4)
	ps := &PageService{Repo: repo, Business: &countingBusiness{}}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				state, err := ps.ComputePage(context.Background(), "fan/sink", nil, nil)
				if err != nil {
					errs <- err
					return
				}
				// Six units: the fan, whose sink's cone is the page.
				// Five: the page without edges, whose sink is alone.
				if want := map[int]int{6: 6, 5: 1}[len(state.Order)]; len(state.Beans) != want {
					errs <- fmt.Errorf("%d beans over a page of %d units, want %d", len(state.Beans), len(state.Order), want)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			fanWithoutEdges(repo, 3)
		} else {
			fanPage(repo, 4)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
