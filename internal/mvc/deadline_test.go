package mvc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func newDeadline(parent context.Context, d time.Duration) *DeadlineContext {
	dc := &DeadlineContext{}
	dc.Init(parent, time.Now().Add(d))
	return dc
}

// TestDeadlineContextWaits: Await and Sleep end at the deadline or the
// parent's cancel without arming Done, take a value already waiting,
// honour a context derived with its own cancel, and ignore the deadline
// under a context detached from it.
func TestDeadlineContextWaits(t *testing.T) {
	type key struct{}
	t.Run("ready value first", func(t *testing.T) {
		dc := newDeadline(context.Background(), -time.Second)
		ch := make(chan int, 1)
		ch <- 7
		if v, ok, err := Await(dc, ch); v != 7 || !ok || err != nil {
			t.Fatalf("Await = %d, %v, %v; want the waiting value", v, ok, err)
		}
	})
	t.Run("deadline, through a value wrapper", func(t *testing.T) {
		dc := newDeadline(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, _, err := Await(context.WithValue(dc, key{}, 1), make(chan int))
		if !errors.Is(err, context.DeadlineExceeded) || time.Since(start) < 15*time.Millisecond {
			t.Fatalf("Await = %v after %v, want the deadline at 20ms", err, time.Since(start))
		}
		if dc.armed.Load() {
			t.Fatal("the wait armed Done")
		}
	})
	t.Run("parent cancel", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		dc := newDeadline(parent, time.Minute)
		time.AfterFunc(10*time.Millisecond, cancel)
		if err := Sleep(dc, time.Minute); !errors.Is(err, context.Canceled) {
			t.Fatalf("Sleep = %v, want the parent's cancel", err)
		}
	})
	t.Run("derived cancel", func(t *testing.T) {
		dc := newDeadline(context.Background(), time.Minute)
		defer dc.Release()
		child, cancel := context.WithCancel(dc)
		time.AfterFunc(10*time.Millisecond, cancel)
		if _, _, err := Await(child, make(chan int)); !errors.Is(err, context.Canceled) {
			t.Fatalf("Await = %v, want the child's cancel", err)
		}
	})
	t.Run("detached", func(t *testing.T) {
		dc := newDeadline(context.Background(), time.Millisecond)
		ch := make(chan int, 1)
		time.AfterFunc(20*time.Millisecond, func() { ch <- 1 })
		if v, ok, err := Await(context.WithoutCancel(dc), ch); v != 1 || !ok || err != nil {
			t.Fatalf("Await = %d, %v, %v; want the value past the detached deadline", v, ok, err)
		}
	})
	t.Run("sleep", func(t *testing.T) {
		dc := newDeadline(context.Background(), time.Minute)
		start := time.Now()
		if err := Sleep(dc, 5*time.Millisecond); err != nil || time.Since(start) < 5*time.Millisecond {
			t.Fatalf("Sleep = %v after %v, want nil after 5ms", err, time.Since(start))
		}
		short := newDeadline(context.Background(), 10*time.Millisecond)
		if err := Sleep(short, time.Minute); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Sleep past the deadline = %v", err)
		}
	})
}

// TestDeadlineContextDone: Done closes at the deadline for any caller,
// and concurrent callers share one channel with the waits.
func TestDeadlineContextDone(t *testing.T) {
	dc := newDeadline(context.Background(), 30*time.Millisecond)
	defer dc.Release()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-dc.Done()
			errs <- dc.Err()
		}()
		go func() {
			defer wg.Done()
			_, _, err := Await(dc, make(chan int))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the deadline", err)
		}
	}
}
