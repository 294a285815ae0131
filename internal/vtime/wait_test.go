package vtime

import (
	"slices"
	"testing"
	"time"
)

// TestBackoffSchedule pins the two ladders the datapath climbs, rung by
// rung, without sleeping them: the io_uring submit ladder (fm.submitRun)
// and the XSK TX ladder at both of its ceilings (sm.XskLink).
func TestBackoffSchedule(t *testing.T) {
	us := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Microsecond
		}
		return out
	}
	for _, c := range []struct {
		name        string
		start, ceil time.Duration
		rungs       int
		want        []time.Duration
	}{
		{"fm.submitRun", 20 * time.Microsecond, 2 * time.Millisecond, 25,
			append(us(20, 40, 80, 160, 320, 640, 1280), slices.Repeat(us(2560), 18)...)},
		{"sm.XskLink", 10 * time.Microsecond, 320 * time.Microsecond, 8, us(10, 20, 40, 80, 160, 320, 320, 320)},
		{"sm.XskLink busy-poll", 10 * time.Microsecond, 20 * time.Microsecond, 8, us(10, 20, 20, 20, 20, 20, 20, 20)},
	} {
		b := NewBackoff(c.start, c.ceil, c.rungs)
		var got []time.Duration
		for b.More() {
			got = append(got, b.rung())
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: rungs %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBell: a ring that lands before the wait is kept; rings fold into
// one; an unrung wait lasts the fallback (a timer never fires early);
// stop ends a wait that has no fallback; and a ring-and-wait cycle
// allocates nothing.
func TestBell(t *testing.T) {
	b := NewBell(time.Millisecond)
	b.Ring()
	b.Ring()
	b.Wait(nil) // the pending ring: returns at once
	start := time.Now()
	b.Wait(nil) // the second ring folded into the first: waits the fallback
	if d := time.Since(start); d < time.Millisecond {
		t.Fatalf("an unrung wait returned after %v, before its 1ms fallback", d)
	}
	stop := make(chan struct{})
	close(stop)
	NewBell(0).Wait(stop)
	if n := testing.AllocsPerRun(100, func() { b.Ring(); b.Wait(nil) }); n != 0 {
		t.Fatalf("ring and wait allocate %v times", n)
	}
}

// TestUntil: the first try is handed zero and, when it succeeds, is the
// only one; a zero timeout tries exactly once; a positive one gives up
// after it; elapsed never runs backwards.
func TestUntil(t *testing.T) {
	park := Park{Spins: 2, Yield: true, Quantum: 10 * time.Microsecond}
	calls := 0
	if !Until(-1, park, func(el time.Duration) bool { calls++; return el == 0 }) || calls != 1 {
		t.Fatalf("a first-try success took %d tries", calls)
	}
	calls = 0
	if Until(0, park, func(time.Duration) bool { calls++; return false }) || calls != 1 {
		t.Fatalf("timeout 0 tried %d times, want once", calls)
	}
	var last time.Duration
	calls = 0
	if Until(time.Millisecond, park, func(el time.Duration) bool {
		if el < last {
			t.Errorf("elapsed went backwards: %v after %v", el, last)
		}
		calls, last = calls+1, el
		return false
	}) {
		t.Fatal("a wait nothing satisfied reported success")
	}
	if calls < 4 || last < time.Millisecond {
		t.Fatalf("gave up after %d tries at %v, want past the spins and the 1ms timeout", calls, last)
	}
	calls = 0
	if !Until(-1, park, func(time.Duration) bool { calls++; return calls == 5 }) {
		t.Fatal("an unbounded wait gave up")
	}
}
