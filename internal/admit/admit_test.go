package admit

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hold acquires n slots that stay held until the returned release is
// called.
func hold(t *testing.T, l *Limiter, n int) func() {
	t.Helper()
	releases := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		rel, err := l.Acquire(context.Background(), Interactive)
		if err != nil {
			t.Fatalf("hold %d: %v", i, err)
		}
		releases = append(releases, rel)
	}
	return func() {
		for _, r := range releases {
			r()
		}
	}
}

func TestFastPathAdmits(t *testing.T) {
	l := NewLimiter(2, 4)
	rel, err := l.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if got := l.Stats().Active; got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}
	rel()
	rel() // idempotent
	if got := l.Stats().Active; got != 0 {
		t.Fatalf("active after release = %d, want 0", got)
	}
}

func TestQueueGrantsHighestPriorityFirst(t *testing.T) {
	l := NewLimiter(1, 8)
	release := hold(t, l, 1)

	order := make(chan Priority, 3)
	var wg sync.WaitGroup
	start := func(p Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := l.Acquire(context.Background(), p)
			if err != nil {
				t.Errorf("acquire %v: %v", p, err)
				return
			}
			order <- p
			rel()
		}()
	}
	start(Bulk)
	waitQueued(t, l, 1)
	start(Interactive)
	waitQueued(t, l, 2)
	start(Operations)
	waitQueued(t, l, 3)

	release()
	wg.Wait()
	close(order)
	var got []Priority
	for p := range order {
		got = append(got, p)
	}
	want := []Priority{Operations, Interactive, Bulk}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
}

func waitQueued(t *testing.T, l *Limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, l.Stats().Queued)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestFullQueueShedsSamePriority(t *testing.T) {
	l := NewLimiter(1, 1)
	l.interval = time.Second
	release := hold(t, l, 1)
	defer release()

	done := make(chan struct{})
	go func() {
		defer close(done)
		rel, err := l.Acquire(context.Background(), Interactive)
		if err == nil {
			rel()
		}
	}()
	waitQueued(t, l, 1)

	if _, err := l.Acquire(context.Background(), Interactive); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("same-priority overflow: err = %v, want ErrQueueFull", err)
	}
	if !IsShed(ErrQueueFull) || !IsShed(ErrTimedOut) || !IsShed(ErrDisplaced) || !IsShed(ErrOverloaded) {
		t.Fatal("IsShed must cover every shed error")
	}
	release()
	<-done
}

func TestFullQueueDisplacesLowerPriority(t *testing.T) {
	l := NewLimiter(1, 1)
	l.interval = time.Second
	release := hold(t, l, 1)

	bulkErr := make(chan error, 1)
	go func() {
		_, err := l.Acquire(context.Background(), Bulk)
		bulkErr <- err
	}()
	waitQueued(t, l, 1)

	// The queue is full of bulk; an operation displaces it.
	opGranted := make(chan error, 1)
	go func() {
		rel, err := l.Acquire(context.Background(), Operations)
		if err == nil {
			defer rel()
		}
		opGranted <- err
	}()

	if err := <-bulkErr; !errors.Is(err, ErrDisplaced) {
		t.Fatalf("bulk waiter: err = %v, want ErrDisplaced", err)
	}
	release()
	if err := <-opGranted; err != nil {
		t.Fatalf("operation after displacement: %v", err)
	}
	st := l.Stats()
	if st.Classes["bulk"].ShedDisplaced != 1 {
		t.Fatalf("bulk shedDisplaced = %d, want 1", st.Classes["bulk"].ShedDisplaced)
	}
}

func TestStandingQueueShedsBulkOnSight(t *testing.T) {
	l := NewLimiter(1, 64)
	l.target = time.Millisecond
	l.interval = 5 * time.Millisecond

	// Hold the only slot and let queued waiters age past the target for a
	// full interval: churn grants through slow holders so the detector
	// observes sojourns.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rel, err := l.Acquire(context.Background(), Interactive)
				if err != nil {
					continue
				}
				time.Sleep(2 * time.Millisecond) // each grant exceeds the target
				rel()
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for !l.Stats().Standing {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("standing queue never detected")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := l.Acquire(context.Background(), Bulk); !errors.Is(err, ErrOverloaded) {
		close(stop)
		wg.Wait()
		t.Fatalf("bulk under standing queue: err = %v, want ErrOverloaded", err)
	}
	close(stop)
	wg.Wait()
	// Once drained, the standing flag clears and bulk admits again.
	rel, err := l.Acquire(context.Background(), Bulk)
	if err != nil {
		t.Fatalf("bulk after drain: %v", err)
	}
	rel()
}

func TestCancelWhileQueuedIsNotAShed(t *testing.T) {
	l := NewLimiter(1, 4)
	l.interval = time.Second
	release := hold(t, l, 1)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := l.Acquire(ctx, Interactive)
		errCh <- err
	}()
	waitQueued(t, l, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	st := l.Stats()
	if st.Classes["interactive"].Shed != 0 {
		t.Fatalf("cancel counted as shed: %+v", st.Classes["interactive"])
	}
	if st.Queued != 0 {
		t.Fatalf("queued after cancel = %d, want 0", st.Queued)
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	l := NewLimiter(1, 4)
	l.interval = 5 * time.Millisecond
	release := hold(t, l, 1)
	defer release()

	if _, err := l.Acquire(context.Background(), Interactive); !errors.Is(err, ErrTimedOut) {
		t.Fatalf("queued past the interval: err = %v, want ErrTimedOut", err)
	}
	if got := l.Stats().Classes["interactive"].ShedTimeout; got != 1 {
		t.Fatalf("shedTimeout = %d, want 1", got)
	}
}

// TestNoPriorityInversionUnderSaturation is the inversion guarantee:
// under sustained saturation from crawler-class and interactive load,
// operations are never shed while bulk requests are being admitted —
// the displacement and grant order always sacrifice the lower class.
func TestNoPriorityInversionUnderSaturation(t *testing.T) {
	l := NewLimiter(4, 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Saturating flood: 16 goroutines of bulk and interactive reads.
	for i := 0; i < 16; i++ {
		pri := Bulk
		if i%2 == 0 {
			pri = Interactive
		}
		wg.Add(1)
		go func(p Priority) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rel, err := l.Acquire(context.Background(), p)
				if err != nil {
					continue
				}
				time.Sleep(500 * time.Microsecond)
				rel()
			}
		}(pri)
	}
	// Two serial operation submitters: op concurrency stays far below
	// MaxConcurrency, so an op only ever waits on other ops ahead of it
	// plus in-flight grants — well inside the queue timeout.
	var opFailures atomic.Int64
	var opCount atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rel, err := l.Acquire(context.Background(), Operations)
				opCount.Add(1)
				if err != nil {
					opFailures.Add(1)
					continue
				}
				time.Sleep(500 * time.Microsecond)
				rel()
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	st := l.Stats()
	ops := st.Classes["operations"]
	bulk := st.Classes["bulk"]
	if opCount.Load() == 0 {
		t.Fatal("no operations attempted")
	}
	if ops.Shed != 0 || opFailures.Load() != 0 {
		t.Fatalf("operations shed under saturation: %+v (failures %d) while bulk admitted %d",
			ops, opFailures.Load(), bulk.Admitted)
	}
	if bulk.Admitted+bulk.Shed == 0 {
		t.Fatal("bulk load never arrived; saturation test is vacuous")
	}
	if bulk.Shed == 0 {
		t.Fatalf("bulk never shed — the limiter was not saturated (bulk %+v)", bulk)
	}
}

func TestRetryAfterTracksDrainRate(t *testing.T) {
	l := NewLimiter(4, 1000)
	if got := l.RetryAfter(); got != time.Second {
		t.Fatalf("idle RetryAfter = %v, want 1s floor", got)
	}
	// Simulate a measured drain rate of 50/s in the previous window and
	// a deep queue: Retry-After must scale with depth.
	l.mu.Lock()
	l.prevCount = 50
	l.queued = 149 // ceil(150/50) = 3s
	l.mu.Unlock()
	if got := l.RetryAfter(); got != 3*time.Second {
		t.Fatalf("RetryAfter = %v, want 3s", got)
	}
	l.mu.Lock()
	l.queued = 100000
	l.mu.Unlock()
	if got := l.RetryAfter(); got != 30*time.Second {
		t.Fatalf("RetryAfter = %v, want 30s cap", got)
	}
	l.mu.Lock()
	l.queued = 0
	l.mu.Unlock()
}

func TestClassify(t *testing.T) {
	cases := []struct {
		method, path, ua, hint string
		want                   Priority
	}{
		{"GET", "/page/home", "Mozilla/5.0", "", Interactive},
		{"GET", "/op/create?name=x", "Mozilla/5.0", "", Operations},
		{"POST", "/login", "Mozilla/5.0", "", Operations},
		{"GET", "/page/home", "Googlebot/2.1", "", Bulk},
		{"GET", "/page/home", "acme-spider", "", Bulk},
		{"GET", "/page/home", "Mozilla/5.0", "bulk", Bulk},
		{"GET", "/page/home", "Mozilla/5.0", "high", Operations},
	}
	for _, c := range cases {
		r := httptest.NewRequest(c.method, c.path, nil)
		r.Header.Set("User-Agent", c.ua)
		if c.hint != "" {
			r.Header.Set("X-Webml-Priority", c.hint)
		}
		if got := Classify(r); got != c.want {
			t.Errorf("Classify(%s %s ua=%q hint=%q) = %v, want %v",
				c.method, c.path, c.ua, c.hint, got, c.want)
		}
	}
}

// TestClassifyAllocatesNothing: matching crawler markers in any case
// makes no lower-cased copy of the User-Agent.
func TestClassifyAllocatesNothing(t *testing.T) {
	for ua, want := range map[string]Priority{
		"Go-http-client/1.1": Interactive, "Yahoo! SLURP": Bulk, "BingBot/2.0": Bulk, "sp": Interactive,
	} {
		r := httptest.NewRequest("GET", "/page/home", nil)
		r.Header.Set("User-Agent", ua)
		if got := Classify(r); got != want {
			t.Errorf("Classify(ua=%q) = %v, want %v", ua, got, want)
		}
		if n := testing.AllocsPerRun(10, func() { Classify(r) }); n != 0 {
			t.Errorf("Classify(ua=%q) allocates %.0f times, want 0", ua, n)
		}
	}
}

// TestAdmissionHammer drives every transition concurrently for the
// race detector: fast-path grants, queue grants, displacement,
// timeouts, cancellations, standing-queue flips.
func TestAdmissionHammer(t *testing.T) {
	l := NewLimiter(3, 6)
	l.target = 200 * time.Microsecond
	l.interval = 2 * time.Millisecond
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 24; i++ {
		pri := Priority(i % int(numPriorities))
		wg.Add(1)
		go func(p Priority, n int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if (n+j)%5 == 0 {
					ctx, cancel = context.WithTimeout(ctx, 300*time.Microsecond)
				}
				rel, err := l.Acquire(ctx, p)
				cancel()
				if err == nil {
					if j%3 == 0 {
						time.Sleep(100 * time.Microsecond)
					}
					rel()
				}
			}
		}(pri, i)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	st := l.Stats()
	if st.Active != 0 {
		t.Fatalf("active = %d after drain, want 0", st.Active)
	}
	if st.Queued != 0 {
		t.Fatalf("queued = %d after drain, want 0", st.Queued)
	}
}

func BenchmarkAcquireUncontended(b *testing.B) {
	l := NewLimiter(1024, 4096)
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rel, err := l.Acquire(ctx, Interactive)
			if err != nil {
				b.Fatal(err)
			}
			rel()
		}
	})
}

func BenchmarkAcquireContended(b *testing.B) {
	l := NewLimiter(4, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rel, err := l.Acquire(ctx, Interactive)
			if err != nil {
				continue
			}
			rel()
		}
	})
}
