package mvc_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"webmlgo/internal/descriptor"
)

// TestConcurrentReadsNeverSeeStaleBeans is the -race hammer of the issue:
// readers compute pages (with the bean cache on) while a writer streams
// createVolume operations through the controller. Model-driven
// invalidation must be exact — a reader that starts after operation k
// completed must see volume k on the page, never a stale cached bean.
// This is TestStaleReadNeverServed under concurrency.
func TestConcurrentReadsNeverSeeStaleBeans(t *testing.T) {
	ctl, _, beans := buildApp(t, true)
	if beans == nil {
		t.Fatal("bean cache required")
	}
	// Cache the volume index too, so the page the readers watch is served
	// from the bean cache and staleness would be observable.
	vi := ctl.Repo.Unit("volIndex")
	if vi == nil {
		t.Fatal("volIndex descriptor missing")
	}
	clone := *vi
	clone.Cache = &descriptor.CachePolicy{Enabled: true}
	ctl.Repo.PutUnit(&clone)

	const writes = 25
	const readers = 8

	// committed holds the highest k whose createVolume response has been
	// received: its invalidation happened-before any read that loads it.
	var committed, reads atomic.Int64
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= writes; k++ {
			rr, body := get(t, ctl, fmt.Sprintf("/op/createVolume?title=Race+Vol+%03d&year=%d", k, 2000+k), nil)
			if rr.Code >= 400 {
				t.Errorf("write %d failed: %d %s", k, rr.Code, body)
				return
			}
			committed.Store(int64(k))
			// Interleave with the readers: let a couple of page computations
			// land (and cache beans) before the next invalidating write.
			if k < writes {
				for target := reads.Load() + 2; reads.Load() < target; {
					runtime.Gosched()
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := committed.Load() // snapshot BEFORE the request starts
				rr, body := get(t, ctl, "/page/volumesPage", nil)
				reads.Add(1)
				if rr.Code != 200 {
					t.Errorf("read failed: %d", rr.Code)
					return
				}
				if k >= 1 {
					want := fmt.Sprintf("Race Vol %03d", k)
					if !strings.Contains(body, want) {
						t.Errorf("stale bean served: volume %q committed before the read started but absent", want)
						return
					}
				}
				if k >= writes {
					return
				}
			}
		}()
	}
	wg.Wait()

	// Final sanity: the page reflects every write.
	_, body := get(t, ctl, "/page/volumesPage", nil)
	if !strings.Contains(body, fmt.Sprintf("Race Vol %03d", writes)) {
		t.Fatalf("final volume missing:\n%s", body)
	}
	if st := beans.Stats(); st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("hammer exercised neither hits nor invalidations: %+v", st)
	}
}
