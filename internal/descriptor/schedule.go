package descriptor

import (
	"container/heap"
	"fmt"
	"sync"
)

// Schedule is the precomputed unit-computation plan of one page: the
// topological order of its units along the transport-link edges, the
// same units grouped into levels (every unit's inputs are produced by
// strictly earlier levels, so the units of one level may compute
// concurrently), and the incoming-edge index used to propagate
// parameters. Page topology is fixed between descriptor deployments, so
// the Repository memoizes one Schedule per page and recomputes it only
// when the page descriptor is hot-swapped.
//
// The plan of one unit's cone (see cone) is a Schedule too, memoized on
// its page's: a fragment of the unit needs nothing else computed.
type Schedule struct {
	// Page is the descriptor the plan was computed from.
	Page *Page
	// Order lists unit IDs so every edge source precedes its targets;
	// units not constrained by edges keep their display order.
	Order []string
	// Display lists every unit ID of the page in display order; a cone
	// shares its page's.
	Display []string
	// Levels partitions Order: level k holds the units whose longest
	// dependency chain has length k. All inputs of a level-k unit come
	// from levels < k.
	Levels [][]string
	// Incoming maps a unit ID to its incoming parameter-propagation
	// edges. A cone shares its page's index.
	Incoming map[string][]Edge

	mu    sync.RWMutex
	cones map[string]*Schedule // unit ID -> the plan of its cone
}

// posHeap is a min-heap of unit display positions (the stable
// tie-breaker of the topological sort).
type posHeap []int

func (h posHeap) Len() int            { return len(h) }
func (h posHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h posHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *posHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *posHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// ComputeSchedule builds the Schedule of a page descriptor. The model
// validator guarantees acyclicity; a cycle in a hand-edited descriptor
// is reported as an error, as are edges naming unknown units.
func ComputeSchedule(pd *Page) (*Schedule, error) {
	n := len(pd.Units)
	ids := make([]string, n)
	indeg := make([]int, n)
	depth := make([]int, n)
	pos := make(map[string]int, n)
	for i, u := range pd.Units {
		ids[i] = u.ID
		pos[u.ID] = i
	}
	adj := make(map[int][]int)
	var incoming map[string][]Edge
	for _, e := range pd.Edges {
		from, ok := pos[e.From]
		if !ok {
			return nil, fmt.Errorf("descriptor: page %q edge from unknown unit %q", pd.ID, e.From)
		}
		to, ok := pos[e.To]
		if !ok {
			return nil, fmt.Errorf("descriptor: page %q edge to unknown unit %q", pd.ID, e.To)
		}
		adj[from] = append(adj[from], to)
		indeg[to]++
		if incoming == nil {
			incoming = make(map[string][]Edge)
		}
		incoming[e.To] = append(incoming[e.To], e)
	}

	// Kahn's algorithm over a position-ordered heap: the ready unit
	// earliest in display order runs next (stable, and O(n log n) rather
	// than an O(n²) ready-list scan).
	ready := make(posHeap, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	heap.Init(&ready)
	order := make([]string, 0, n)
	maxDepth := 0
	byDepth := make(map[int][]string)
	for ready.Len() > 0 {
		i := heap.Pop(&ready).(int)
		order = append(order, ids[i])
		byDepth[depth[i]] = append(byDepth[depth[i]], ids[i])
		if depth[i] > maxDepth {
			maxDepth = depth[i]
		}
		for _, next := range adj[i] {
			if d := depth[i] + 1; d > depth[next] {
				depth[next] = d
			}
			indeg[next]--
			if indeg[next] == 0 {
				heap.Push(&ready, next)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("descriptor: page %q has a cycle in its unit topology", pd.ID)
	}
	levels := make([][]string, 0, maxDepth+1)
	for d := 0; d <= maxDepth; d++ {
		levels = append(levels, byDepth[d])
	}
	return &Schedule{Page: pd, Order: order, Display: ids, Levels: levels, Incoming: incoming}, nil
}

// cone returns the plan of one unit's cone: the unit plus the units it
// takes transport-edge parameters from, transitively. Every input of a
// cone unit comes from the cone, and a unit's longest dependency chain
// runs through its cone, so the cone keeps the page's order and levels
// with the other units left out. The plan is derived on first use and
// memoized on s; it errors when the unit is not on the page.
func (s *Schedule) cone(unitID string) (*Schedule, error) {
	s.mu.RLock()
	c := s.cones[unitID]
	s.mu.RUnlock()
	if c != nil {
		return c, nil
	}
	in := map[string]bool{unitID: true}
	for stack := []string{unitID}; len(stack) > 0; {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range s.Incoming[u] {
			if !in[e.From] {
				in[e.From] = true
				stack = append(stack, e.From)
			}
		}
	}
	c = &Schedule{Page: s.Page, Display: s.Display, Incoming: s.Incoming}
	for _, id := range s.Order {
		if in[id] {
			c.Order = append(c.Order, id)
		}
	}
	if len(c.Order) == 0 {
		return nil, fmt.Errorf("descriptor: page %q has no unit %q", s.Page.ID, unitID)
	}
	for _, level := range s.Levels {
		var kept []string
		for _, id := range level {
			if in[id] {
				kept = append(kept, id)
			}
		}
		if kept != nil {
			c.Levels = append(c.Levels, kept)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if memo := s.cones[unitID]; memo != nil {
		return memo, nil
	}
	if s.cones == nil {
		s.cones = make(map[string]*Schedule)
	}
	s.cones[unitID] = c
	return c, nil
}
