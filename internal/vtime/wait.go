package vtime

import (
	"runtime"
	"time"
)

// This file is the datapath's one reader of the wall clock. Waiting is
// the only thing the simulation does in real time — every cost is
// virtual — so every loop that tries, checks a deadline and parks runs
// through Until, every bounded retry sleeps through Backoff, and every
// host thread that waits for work a producer announces parks on a Bell.
// None of them charges a cycle: virtual charges stay with the caller.

// Park is how a waiter spends the time between two tries: the first
// Spins passes try again at once — after runtime.Gosched when Yield is
// set — and every later pass sleeps Quantum.
type Park struct {
	Spins   int
	Yield   bool
	Quantum time.Duration
}

// Until calls try until it reports true, parking between calls, and
// gives up once timeout of wall time has passed (timeout < 0 never gives
// up; timeout == 0 tries exactly once). try is handed the wall time
// waited so far, zero on the first call; a wait whose first try succeeds
// never reads the clock. It reports whether try succeeded.
func Until(timeout time.Duration, park Park, try func(elapsed time.Duration) bool) bool {
	if try(0) {
		return true
	}
	if timeout == 0 {
		return false
	}
	start := time.Now()
	for pass := 1; ; pass++ {
		switch {
		case pass > park.Spins:
			time.Sleep(park.Quantum)
		case park.Yield:
			runtime.Gosched()
		}
		elapsed := time.Since(start)
		if try(elapsed) {
			return true
		}
		if timeout > 0 && elapsed >= timeout {
			return false
		}
	}
}

// Backoff is the bounded, doubling sleep a producer rides out a full
// ring on: a fixed number of rungs, the first start long, each later one
// twice the last until it reaches ceil.
type Backoff struct {
	next, ceil time.Duration
	left       int
}

// NewBackoff returns a ladder of rungs sleeps running start → ceil.
func NewBackoff(start, ceil time.Duration, rungs int) Backoff {
	return Backoff{next: start, ceil: ceil, left: rungs}
}

// More reports whether a rung is left to climb.
func (b *Backoff) More() bool { return b.left > 0 }

// Sleep climbs one rung: it sleeps the rung's length and doubles the
// next. The caller does its recovery work between More and Sleep, so the
// sleep is the time that work has to take effect.
func (b *Backoff) Sleep() { time.Sleep(b.rung()) }

// rung takes the next rung off the ladder and returns its length.
func (b *Backoff) rung() time.Duration {
	d := b.next
	b.left--
	if b.next < b.ceil {
		b.next *= 2
	}
	return d
}

// Bell is the doorbell a producer rings after it publishes and one
// waiter parks on. It holds one pending ring, so rings that land while
// the waiter is busy fold into one wakeup, and a ring that lands between
// the waiter's last look at its work and its park is not lost.
type Bell struct {
	c        chan struct{}
	fallback time.Duration
	timer    *time.Timer // nil when fallback is zero; reused by every Wait
}

// NewBell returns a bell whose Wait also returns once fallback has
// passed without a ring; a zero fallback waits for a ring or stop only.
func NewBell(fallback time.Duration) *Bell {
	b := &Bell{c: make(chan struct{}, 1), fallback: fallback}
	if fallback > 0 {
		b.timer = time.NewTimer(fallback)
		b.timer.Stop()
	}
	return b
}

// Ring wakes the waiter, or the next Wait when none is parked. It never
// blocks and never allocates.
func (b *Bell) Ring() {
	select {
	case b.c <- struct{}{}:
	default:
	}
}

// Wait parks until the bell rings, stop closes, or the fallback period
// passes. One goroutine waits on a bell.
func (b *Bell) Wait(stop <-chan struct{}) {
	if b.timer == nil {
		select {
		case <-b.c:
		case <-stop:
		}
		return
	}
	b.timer.Reset(b.fallback)
	select {
	case <-b.c:
	case <-stop:
	case <-b.timer.C:
	}
}
