package workload

import (
	"sync"
	"testing"
	"time"
)

// virtualClock is a discrete-event Clock: time moves only when every
// participant is asleep on it, and then jumps to the earliest wake-up. An
// op body that calls Sleep(d) takes exactly d, and everything else — the
// engine's bookkeeping, backend calls, goroutine scheduling — takes no
// time at all, so pacing, latency and rate-search verdicts are exact and
// independent of timer resolution, core count or scheduler load.
//
// The participants are the run's clients. A client that stops sleeping
// for good must Leave (after its last Sleep), or the others wait for it
// forever; single-client tests never need to, because the sole sleeper
// always advances the clock itself.
type virtualClock struct {
	mu       sync.Mutex
	now      time.Time
	active   int
	sleepers []sleeper
}

type sleeper struct {
	wake time.Time
	done chan struct{}
}

// newVirtualClock returns a clock for the given number of participants,
// starting at a fixed non-zero instant (the engine reads a zero time as
// "no scheduled arrival").
func newVirtualClock(participants int) *virtualClock {
	return &virtualClock{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC), active: participants}
}

// Now implements Clock.
func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock: block until the timeline reaches now+d.
func (c *virtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	s := sleeper{wake: c.now.Add(d), done: make(chan struct{})}
	c.sleepers = append(c.sleepers, s)
	c.advance()
	c.mu.Unlock()
	<-s.done
}

// Leave retires one participant.
func (c *virtualClock) Leave() {
	c.mu.Lock()
	c.active--
	c.advance()
	c.mu.Unlock()
}

// advance moves time to the earliest wake-up and releases every sleeper
// due then, once all active participants sleep. Callers hold mu.
func (c *virtualClock) advance() {
	if len(c.sleepers) == 0 || len(c.sleepers) < c.active {
		return
	}
	next := c.sleepers[0].wake
	for _, s := range c.sleepers[1:] {
		if s.wake.Before(next) {
			next = s.wake
		}
	}
	c.now = next
	keep := c.sleepers[:0]
	for _, s := range c.sleepers {
		if s.wake.After(next) {
			keep = append(keep, s)
		} else {
			close(s.done)
		}
	}
	c.sleepers = keep
}

// leaveAfter wraps op so that each client leaves clk after its n-th
// execution (warmup included); op must do its last Sleep inside Run.
func leaveAfter(clk *virtualClock, clients, n int, op Op) Op {
	runs := make([]int, clients)
	run := op.Run
	op.Run = func(ctx *Ctx) (int, error) {
		k, err := run(ctx)
		if runs[ctx.Client]++; runs[ctx.Client] == n {
			clk.Leave()
		}
		return k, err
	}
	return op
}

func TestVirtualClockDrivesEveryTimingSite(t *testing.T) {
	be := testBackend(t, 10)
	clk := newVirtualClock(1)
	// Closed loop: three ops of exactly 700µs each with a 300µs think
	// after every completion. Latency is the op body alone; the phase
	// clock covers bodies and thinks.
	res, err := Run(&Spec{
		Name:     "virtual",
		Backend:  be,
		Measured: 3,
		Think:    300 * time.Microsecond,
		Clock:    clk,
		Ops: []Op{{Name: "op", Weight: 1, Run: func(*Ctx) (int, error) {
			clk.Sleep(700 * time.Microsecond)
			return 1, nil
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 3*time.Millisecond {
		t.Fatalf("duration = %v, want exactly 3ms", res.Duration)
	}
	if min, max := res.Total.Response.Min(), res.Total.Response.Max(); min != 700 || max != 700 {
		t.Fatalf("latency range = [%g, %g]µs, want exactly 700", min, max)
	}
	if res.Throughput != 1000 {
		t.Fatalf("throughput = %g, want exactly 1000 ops/s", res.Throughput)
	}
}
