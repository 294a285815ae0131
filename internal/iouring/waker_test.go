package iouring

import (
	"slices"
	"testing"
	"time"

	"rakis/internal/mem"
	"rakis/internal/vtime"
)

// TestWakerLadder drives the lost-wakeup ladder with hand-fed elapsed
// times — no clock, no sleeping: the first nudge when the stall is
// nudgeAfter old, later ones 4, 8, 16… ms apart, a kick at kickAfter and
// every kickAfter after, every step a kick once the MM is dead, and the
// first rung again after a Reset.
func TestWakerLadder(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	var fired []string
	dead := false
	w := Waker{
		Nudge: func() { fired = append(fired, "nudge") },
		Kick:  func() { fired = append(fired, "kick") },
		Dead:  func() bool { return dead },
	}
	type step struct {
		at   time.Duration
		want string // the rung expected to fire, "" for none
	}
	run := func(name string, steps []step) {
		t.Helper()
		for _, s := range steps {
			fired = fired[:0]
			got := w.Step(s.at)
			if want := s.want != ""; got != want || (want && !slices.Equal(fired, []string{s.want})) {
				t.Fatalf("%s: Step(%v) = %v firing %v, want %q", name, s.at, got, fired, s.want)
			}
		}
	}
	run("alive", []step{
		{0, ""}, {ms(1.9), ""}, {ms(2), "nudge"}, // first rung at nudgeAfter
		{ms(5.9), ""}, {ms(6), "nudge"}, // 4 ms later
		{ms(13.9), ""}, {ms(14), "nudge"}, // 8 ms later
		{ms(30), "nudge"}, {ms(62), "nudge"}, {ms(126), "nudge"},
		{ms(249), ""}, {ms(250), "kick"}, // the paid rung
		{ms(254), "nudge"}, // nudges carry on between kicks
		{ms(499), ""}, {ms(500), "kick"},
	})
	w.Reset()
	run("after Reset", []step{{ms(600), ""}, {ms(601.9), ""}, {ms(602), "nudge"}})
	// A new wait on the same stall restarts elapsed; the ladder goes on
	// from where it stood (next nudge 4 ms after the last).
	run("new wait", []step{{0, ""}, {ms(3.9), ""}, {ms(4), "nudge"}})
	w.Reset()
	dead = true
	run("dead", []step{{0, "kick"}, {ms(0.02), "kick"}})
	fired = fired[:0]
	if !w.Escalate() || !slices.Equal(fired, []string{"kick"}) {
		t.Fatalf("Escalate with the MM dead fired %v, want the kick", fired)
	}
	dead = false
	fired = fired[:0]
	if !w.Escalate() || !slices.Equal(fired, []string{"nudge"}) {
		t.Fatalf("Escalate with the MM alive fired %v, want the nudge", fired)
	}
	if (&Waker{}).Step(time.Hour) || (&Waker{}).Escalate() {
		t.Fatal("a Waker with no rungs reported firing one")
	}
}

// TestWaitClimbsOnlyWhileSubIsUnconsumed: Wait steps the ladder while its
// SQE sits unconsumed in iSub and counts each rung; once the kernel has
// taken the SQE the ladder is reset and a slow completion costs nothing.
func TestWaitClimbsOnlyWhileSubIsUnconsumed(t *testing.T) {
	fm, kSub, kCompl, _, ctrs := pair(t, 8)
	nudges := 0
	fm.waker = Waker{Nudge: func() {
		if nudges++; nudges == 2 {
			kernelAnswer(t, kSub, kCompl, 0)
		}
	}}
	var clk vtime.Clock
	tok, err := fm.Submit(SQE{Op: OpNop}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := fm.Wait(tok, &clk); res != 0 || err != nil {
		t.Fatalf("Wait = %d, %v", res, err)
	}
	if got := ctrs.WakeupRetries.Load(); nudges != 2 || got != 2 {
		t.Fatalf("%d nudges, WakeupRetries = %d, want 2 and 2", nudges, got)
	}
}

// TestSubmitWaitAllocs pins the heap cost of the SyncProxy's round trip —
// submit, complete, Wait — which every proxied read and write pays: the
// wait helper's closure must not escape.
func TestSubmitWaitAllocs(t *testing.T) {
	fm, kSub, kCompl, sp, _ := pair(t, 8)
	bounce, err := sp.Alloc(mem.Untrusted, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	var clk vtime.Clock
	roundTrip := func() {
		tok, err := fm.Submit(SQE{Op: OpRead, FD: 1, Addr: bounce, Len: 64}, &clk)
		if err != nil {
			t.Fatal(err)
		}
		kernelAnswer(t, kSub, kCompl, 64)
		if res, err := fm.Wait(tok, &clk); res != 64 || err != nil {
			t.Fatalf("Wait = %d, %v", res, err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > submitWaitAllocs {
		t.Fatalf("a submit → complete → Wait round trip allocates %v objects, want <= %d", allocs, submitWaitAllocs)
	}
}

// submitWaitAllocs is what the round trip cost before the wait loops were
// folded into vtime.Until (measured at 2e187a5).
const submitWaitAllocs = 0
