package ejb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clone is one supervised container instance: the handle the Spawn
// factory returns.
type Clone struct {
	// Addr is the address the clone serves on (published to the fleet
	// membership).
	Addr string
	// Ctr is the container itself.
	Ctr *Container
}

// ScaleEvent records one fleet-size change for /healthz and the
// experiment harness.
type ScaleEvent struct {
	At     time.Time `json:"at"`
	Dir    string    `json:"dir"` // "up" or "down"
	Reason string    `json:"reason"`
	Addr   string    `json:"addr"`
	From   int       `json:"from"`
	To     int       `json:"to"`
}

// Supervisor is the elastic half of Section 4's argument: it scales
// container clones up when queue-depth or utilization signals say the
// fleet is saturated, and drains-then-retires the newest clone when
// the fleet has been idle long enough. Scale-down is lossless by
// construction: the clone leaves the membership first (clients stop
// selecting it), then the supervisor waits until both sides agree it
// holds no work — the client stub reports no in-flight calls against
// it AND the container reports no active invocations, no in-service
// frames and an empty capacity queue, sustained across consecutive
// polls — and only then closes it.
type Supervisor struct {
	// Spawn creates and starts one clone (listening, pages deployed).
	Spawn func() (*Clone, error)
	// Members is the membership the supervisor publishes to.
	Members *FleetMembership
	// ClientInFlight, when set, reports the client stub's in-flight
	// count against an address (RemoteBusiness.InFlight); nil skips the
	// client half of the drain handshake.
	ClientInFlight func(addr string) int

	// Min and Max bound the fleet size (Min <= size <= Max).
	Min, Max int
	// Interval is the evaluation period (<=0 selects 100ms).
	Interval time.Duration
	// IdleAfter is how long the fleet must stay idle before one clone
	// retires (<=0 selects 2s).
	IdleAfter time.Duration
	// Cooldown is the minimum gap between scale-ups (<=0 selects
	// 2×Interval) so one burst doesn't overshoot the fleet to Max.
	Cooldown time.Duration

	// scaleUpQueue triggers growth when queued invocations per clone
	// reach it (<=0 selects 2).
	scaleUpQueue int

	mu        sync.Mutex
	clones    []*Clone
	events    []ScaleEvent // bounded ring of maxScaleEvents entries
	eventPos  int          // next overwrite slot once the ring is full
	lastUp    time.Time
	idleSince time.Time
	started   bool
	stop      chan struct{}

	scaleUps   atomic.Int64
	scaleDowns atomic.Int64
	draining   atomic.Int64

	wg sync.WaitGroup
}

// The utilization bounds: growth when active/capacity across the fleet
// reaches scaleUpUtil, idleness while it stays at or below scaleDownUtil
// with an empty queue. drainTimeout caps how long a retiring clone may
// take to quiesce before it is closed anyway — a liveness bound, not the
// expected path.
const (
	scaleUpUtil   = 0.9
	scaleDownUtil = 0.1
	drainTimeout  = 10 * time.Second
)

// maxScaleEvents bounds the retained scale-decision history: enough
// for /debug/fleet to explain recent behavior, without a long-running
// supervisor growing its event slice forever.
const maxScaleEvents = 256

// recordEventLocked appends a scale event into the bounded ring. The
// caller must hold s.mu.
func (s *Supervisor) recordEventLocked(e ScaleEvent) {
	if len(s.events) < maxScaleEvents {
		s.events = append(s.events, e)
		return
	}
	s.events[s.eventPos] = e
	s.eventPos = (s.eventPos + 1) % maxScaleEvents
}

// eventsLocked reconstructs the ring in chronological order. The
// caller must hold s.mu.
func (s *Supervisor) eventsLocked() []ScaleEvent {
	n := len(s.events)
	out := make([]ScaleEvent, n)
	for i := 0; i < n; i++ {
		out[i] = s.events[(s.eventPos+i)%n]
	}
	return out
}

// NewSupervisor returns a supervisor over the spawn factory and
// membership, with the fleet bounded to [min, max].
func NewSupervisor(spawn func() (*Clone, error), members *FleetMembership, min, max int) *Supervisor {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	return &Supervisor{Spawn: spawn, Members: members, Min: min, Max: max}
}

func (s *Supervisor) interval() time.Duration {
	if s.Interval > 0 {
		return s.Interval
	}
	return 100 * time.Millisecond
}

// Start spawns the minimum fleet and begins the evaluation loop.
func (s *Supervisor) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("ejb: supervisor already started")
	}
	s.started = true
	s.stop = make(chan struct{})
	s.mu.Unlock()
	for i := 0; i < s.Min; i++ {
		if err := s.scaleUp("min"); err != nil {
			return err
		}
	}
	s.wg.Add(1)
	go s.loop()
	return nil
}

func (s *Supervisor) loop() {
	defer s.wg.Done()
	t := time.NewTicker(s.interval())
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.evaluate()
		}
	}
}

// evaluate runs one scaling decision: grow on saturation signals,
// shrink after sustained idleness.
func (s *Supervisor) evaluate() {
	s.mu.Lock()
	n := len(s.clones)
	if n == 0 {
		s.mu.Unlock()
		if s.Min > 0 {
			s.scaleUp("min") //nolint:errcheck // retried next tick
		}
		return
	}
	var queued, active, capacity int
	for _, c := range s.clones {
		m := c.Ctr.Metrics()
		queued += m.Queued
		active += m.Active
		capacity += m.Capacity
	}
	util := 0.0
	if capacity > 0 {
		util = float64(active) / float64(capacity)
	}
	upQueue := s.scaleUpQueue
	if upQueue <= 0 {
		upQueue = 2
	}
	cooldown := s.Cooldown
	if cooldown <= 0 {
		cooldown = 2 * s.interval()
	}
	idleAfter := s.IdleAfter
	if idleAfter <= 0 {
		idleAfter = 2 * time.Second
	}
	now := time.Now()

	var reason string
	switch {
	case queued >= upQueue*n:
		reason = fmt.Sprintf("queue-depth %d >= %d/clone", queued, upQueue)
	case util >= scaleUpUtil:
		reason = fmt.Sprintf("utilization %.2f >= %.2f", util, scaleUpUtil)
	}
	if reason != "" {
		s.idleSince = time.Time{}
		if n < s.Max && now.Sub(s.lastUp) >= cooldown {
			s.mu.Unlock()
			s.scaleUp(reason) //nolint:errcheck // retried next tick
			return
		}
		s.mu.Unlock()
		return
	}

	if queued == 0 && util <= scaleDownUtil && n > s.Min {
		if s.idleSince.IsZero() {
			s.idleSince = now
		} else if now.Sub(s.idleSince) >= idleAfter {
			// Retire the newest clone (LIFO keeps the stable base warm).
			c := s.clones[len(s.clones)-1]
			s.clones = s.clones[:len(s.clones)-1]
			s.idleSince = now // one retirement per idle period
			from := n
			s.recordEventLocked(ScaleEvent{At: now, Dir: "down",
				Reason: fmt.Sprintf("idle %v, utilization %.2f", idleAfter, util),
				Addr:   c.Addr, From: from, To: from - 1})
			s.mu.Unlock()
			s.scaleDowns.Add(1)
			s.retire(c)
			return
		}
	} else {
		s.idleSince = time.Time{}
	}
	s.mu.Unlock()
}

// scaleUp spawns one clone and publishes it.
func (s *Supervisor) scaleUp(reason string) error {
	clone, err := s.Spawn()
	if err != nil {
		return fmt.Errorf("ejb: spawn clone: %w", err)
	}
	s.mu.Lock()
	from := len(s.clones)
	s.clones = append(s.clones, clone)
	s.lastUp = time.Now()
	s.idleSince = time.Time{}
	s.recordEventLocked(ScaleEvent{At: s.lastUp, Dir: "up", Reason: reason,
		Addr: clone.Addr, From: from, To: from + 1})
	s.mu.Unlock()
	s.scaleUps.Add(1)
	s.Members.Add(clone.Addr)
	return nil
}

// retire drains one clone and closes it: membership removal already
// happened (callers remove-before-retire via the events path) — here
// the address is withdrawn first, then the supervisor polls until the
// clone is provably empty on both sides of the wire for two
// consecutive polls, then closes it.
func (s *Supervisor) retire(clone *Clone) {
	s.draining.Add(1)
	s.Members.Remove(clone.Addr)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.draining.Add(-1)
		deadline := time.Now().Add(drainTimeout)
		idleStreak := 0
		for time.Now().Before(deadline) {
			idle := clone.Ctr.Quiesced()
			if idle && s.ClientInFlight != nil {
				idle = s.ClientInFlight(clone.Addr) == 0
			}
			if idle {
				idleStreak++
				// Two consecutive idle observations with a settle gap
				// between them close the select-then-send race: a call
				// that picked this endpoint just before removal has
				// registered as in-flight (client) or active (container)
				// by the second poll.
				if idleStreak >= 2 {
					clone.Ctr.Close() //nolint:errcheck // retirement path
					return
				}
			} else {
				idleStreak = 0
			}
			select {
			case <-s.stop:
				clone.Ctr.Close() //nolint:errcheck // shutdown path
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		clone.Ctr.Close() //nolint:errcheck // drain timeout: close anyway
	}()
}

// Retire withdraws and drains the clone at addr (false when unknown) —
// the manual scale-down path, and the hook the drain tests drive
// directly.
func (s *Supervisor) Retire(addr string) bool {
	s.mu.Lock()
	var target *Clone
	keep := s.clones[:0]
	for _, c := range s.clones {
		if target == nil && c.Addr == addr {
			target = c
			continue
		}
		keep = append(keep, c)
	}
	s.clones = keep
	if target != nil {
		s.recordEventLocked(ScaleEvent{At: time.Now(), Dir: "down", Reason: "manual",
			Addr: addr, From: len(keep) + 1, To: len(keep)})
	}
	s.mu.Unlock()
	if target == nil {
		return false
	}
	s.scaleDowns.Add(1)
	s.retire(target)
	return true
}

// Stop ends the loop and closes every clone (draining ones close via
// their retire goroutines).
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	close(s.stop)
	clones := s.clones
	s.clones = nil
	s.mu.Unlock()
	for _, c := range clones {
		s.Members.Remove(c.Addr)
		c.Ctr.Close() //nolint:errcheck // shutdown path
	}
	s.wg.Wait()
}

// FleetSize returns the number of serving clones (draining ones
// excluded).
func (s *Supervisor) FleetSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clones)
}

// FleetStats is the supervisor's /healthz and /metrics snapshot.
type FleetStats struct {
	Size       int          `json:"size"`
	Min        int          `json:"min"`
	Max        int          `json:"max"`
	Draining   int          `json:"draining"`
	ScaleUps   int64        `json:"scaleUps"`
	ScaleDowns int64        `json:"scaleDowns"`
	Events     []ScaleEvent `json:"events,omitempty"`
}

// Stats snapshots the fleet (at most the last 32 scale events).
func (s *Supervisor) Stats() FleetStats {
	s.mu.Lock()
	events := s.eventsLocked()
	if len(events) > 32 {
		events = events[len(events)-32:]
	}
	size := len(s.clones)
	s.mu.Unlock()
	return FleetStats{
		Size: size, Min: s.Min, Max: s.Max,
		Draining:   int(s.draining.Load()),
		ScaleUps:   s.scaleUps.Load(),
		ScaleDowns: s.scaleDowns.Load(),
		Events:     events,
	}
}

// Events returns the retained scale events in chronological order (the
// last maxScaleEvents of them — the ring overwrites older history).
func (s *Supervisor) Events() []ScaleEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eventsLocked()
}
