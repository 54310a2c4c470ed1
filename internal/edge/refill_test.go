package edge

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scribblingOrigin serves /page/p<i>, a container over /frag/f<i>?x=<i>,
// and the fragment, tagged entity:f<i> and entity:all with max-age i+1.
// Like any handler may, it writes into the request's header and URL and
// into its own response header as it answers.
func scribblingOrigin(w http.ResponseWriter, r *http.Request) {
	query := r.URL.RawQuery
	r.Header.Set("X-Scribble", r.URL.Path)
	r.Header.Add("Surrogate-Capability", "scribbled")
	r.URL.RawQuery = "scribbled"
	h := w.Header()
	h.Add("X-Scribble", query)
	if i, ok := strings.CutPrefix(r.URL.Path, "/page/p"); ok {
		h.Set("Surrogate-Control", `content="ESI/1.0"`)
		fmt.Fprintf(w, `<div><esi:include src="/frag/f%s?x=%s"/></div>`, i, i)
		return
	}
	i, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/frag/f"))
	h["X-Webml-Deps"] = []string{fmt.Sprintf("entity:f%d", i), "entity:all"}
	h.Set("Surrogate-Control", fmt.Sprintf("max-age=%d", i+1))
	h.Add("Surrogate-Control", "scribbled")
	fmt.Fprintf(w, "fragment %d of %s", i, query)
}

// TestEdgeRefillSharesNothing refills different fragments concurrently,
// round after round, through an origin that writes into every request
// and response it sees: no fetch shares a request, URL or header with
// another (the race detector watches), and every stored entry keeps
// exactly its own deps, TTL and body.
func TestEdgeRefillSharesNothing(t *testing.T) {
	const pages, rounds = 8, 20
	s := New(http.HandlerFunc(scribblingOrigin), 128, time.Minute)
	defer s.Close()
	for round := 0; round < rounds; round++ {
		s.Invalidate("entity:all")
		var wg sync.WaitGroup
		for i := 0; i < pages; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("/page/p%d", i), nil)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				if want := fmt.Sprintf("<div>fragment %d of x=%d</div>", i, i); w.Body.String() != want {
					t.Errorf("page %d: %q, want %q", i, w.Body.String(), want)
				}
			}(i)
		}
		wg.Wait()
		for i := 0; i < pages; i++ {
			key := fmt.Sprintf("/frag/f%d?x=%d", i, i)
			v, ok := s.Store.Get(key)
			if !ok {
				t.Fatalf("round %d: %s not stored", round, key)
			}
			e := v.(*entry)
			deps := []string{fmt.Sprintf("entity:f%d", i), "entity:all"}
			body := fmt.Sprintf("fragment %d of x=%d", i, i)
			if !slices.Equal(e.deps, deps) || e.ttl != time.Duration(i+1)*time.Second ||
				string(e.body) != body || cap(e.body) != len(e.body) || e.header != nil {
				t.Fatalf("round %d: %s stored deps %q, ttl %v, body %q (cap %d), header %v; want %q, %v, %q, exact, none",
					round, key, e.deps, e.ttl, e.body, cap(e.body), e.header, deps, time.Duration(i+1)*time.Second, body)
			}
		}
	}
}
