package mvc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// DeadlineContext is a request's one deadline as a value: an absolute
// time over a parent context, the HTTP request's in the web tier and the
// background in a container. Deadline and Err compare that time with the
// clock, so holding it arms no timer. The waits that can block under it
// go through Await and Sleep, which arm a pooled timer only when they
// block. Done keeps the context.Context contract for any other caller:
// its first call arms a timer and a channel, which Release stops.
type DeadlineContext struct {
	parent   context.Context
	deadline time.Time

	armed  atomic.Bool // Done was called
	mu     sync.Mutex
	done   context.Context
	cancel context.CancelFunc
}

// deadlineKey finds a DeadlineContext under value-only wrappers.
type deadlineKey struct{}

// Init sets up a zero DeadlineContext, held in state its owner already
// allocates per request. The owner calls Release when the request ends.
func (c *DeadlineContext) Init(parent context.Context, deadline time.Time) {
	c.parent, c.deadline = parent, deadline
}

// Deadline implements context.Context.
func (c *DeadlineContext) Deadline() (time.Time, bool) { return c.deadline, true }

// Err implements context.Context: DeadlineExceeded once the clock has
// reached the deadline, otherwise the parent's error. It may report the
// deadline a moment before a channel armed by Done closes.
func (c *DeadlineContext) Err() error {
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return c.parent.Err()
}

// Value implements context.Context by delegating to the parent.
func (c *DeadlineContext) Value(key any) any {
	if key == (deadlineKey{}) {
		return c
	}
	return c.parent.Value(key)
}

// Done implements context.Context, arming a timer on the first call.
func (c *DeadlineContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done, c.cancel = context.WithDeadline(c.parent, c.deadline)
		c.armed.Store(true)
	}
	return c.done.Done()
}

// Release stops what Done armed, if anything.
func (c *DeadlineContext) Release() {
	if c.armed.Load() {
		c.mu.Lock()
		c.cancel()
		c.mu.Unlock()
	}
}

// unarmedDeadline returns the DeadlineContext bounding ctx when a wait
// may stand in for ctx.Done() with a timer at its deadline and its
// parent's Done: ctx is it or value-only wrappers of it. A context
// derived with a cancellation of its own calls Done on its parent when
// it is made, so an unarmed DeadlineContext has none below it; and ctx
// must report the same deadline, which a detached context does not.
func unarmedDeadline(ctx context.Context) *DeadlineContext {
	c, _ := ctx.Value(deadlineKey{}).(*DeadlineContext)
	if c == nil || c.armed.Load() {
		return nil
	}
	if d, ok := ctx.Deadline(); !ok || !d.Equal(c.deadline) {
		return nil
	}
	return c
}

var timerPool sync.Pool

// Await receives from ch unless ctx ends first: ok is the receive's (false
// when ch was closed), and err is ctx's error if it ended the wait. A
// value already waiting is taken without looking at ctx.
func Await[T any](ctx context.Context, ch <-chan T) (v T, ok bool, err error) {
	return await(ctx, ch, time.Time{})
}

// Sleep waits for d unless ctx ends first, and returns ctx's error if it
// did.
func Sleep(ctx context.Context, d time.Duration) error {
	_, _, err := await[struct{}](ctx, nil, time.Now().Add(d))
	return err
}

// await is Await that also returns, with ctx's error, at wake (zero:
// never). Under an unarmed DeadlineContext it waits on the parent's Done
// and, only once it must block, a pooled timer at the deadline.
func await[T any](ctx context.Context, ch <-chan T, wake time.Time) (v T, ok bool, err error) {
	select {
	case v, ok = <-ch:
		return v, ok, nil
	default:
	}
	done, until := ctx.Done, wake
	if c := unarmedDeadline(ctx); c != nil {
		done = c.parent.Done
		if until.IsZero() || c.deadline.Before(until) {
			until = c.deadline
		}
	}
	var t *time.Timer
	defer func() {
		if t != nil {
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			timerPool.Put(t)
		}
	}()
	for {
		if err = ctx.Err(); err != nil {
			return v, false, err
		}
		var fire <-chan time.Time
		if !until.IsZero() {
			if t == nil {
				t, _ = timerPool.Get().(*time.Timer)
			}
			if t == nil {
				t = time.NewTimer(time.Until(until))
			} else {
				t.Reset(time.Until(until))
			}
			fire = t.C
		}
		select {
		case v, ok = <-ch:
			return v, ok, nil
		case <-done():
			return v, false, ctx.Err()
		case <-fire:
			if !wake.IsZero() && !time.Now().Before(wake) {
				return v, false, ctx.Err() // the sleep's end, or the deadline with it
			}
		}
	}
}
