package vtime

import (
	"runtime"
	"time"
)

// This file is the datapath's one reader of the wall clock. Waiting is
// the only thing the simulation does in real time — every cost is
// virtual — so every loop that tries, checks a deadline and parks runs
// through Until, and every bounded retry sleeps through Backoff. Neither
// charges a cycle: virtual charges stay with the caller. Swapping a
// manual clock or an event wait into the datapath means replacing the
// two bodies below (ROADMAP item 1).

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
