package iouring

import (
	"errors"
	"testing"
	"testing/quick"

	"rakis/internal/mem"
	"rakis/internal/netstack"
	"rakis/internal/ring"
	"rakis/internal/vtime"
)

func TestSQERoundTrip(t *testing.T) {
	f := func(op uint8, flags uint8, fd int32, off, addr, userData uint64, length, opFlags uint32) bool {
		e := SQE{
			Op: Op(op), Flags: flags, FD: fd, Off: off,
			Addr: mem.Addr(addr), Len: length, OpFlags: opFlags, UserData: userData,
		}
		b := make([]byte, SQEBytes)
		PutSQE(b, e)
		return GetSQE(b) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCQERoundTrip(t *testing.T) {
	f := func(userData uint64, res int32, flags uint32) bool {
		e := CQE{UserData: userData, Res: res, Flags: flags}
		b := make([]byte, CQEBytes)
		PutCQE(b, e)
		return GetCQE(b) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpStrings(t *testing.T) {
	if OpRead.String() != "read" || OpPollRemove.String() != "poll_remove" {
		t.Fatal("op names")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op must render")
	}
}

// pair builds the FM handle plus raw kernel-side handles over shared
// memory.
func pair(t *testing.T, entries uint32) (*Ring, *ring.Ring, *ring.Ring, *mem.Space, *vtime.Counters) {
	t.Helper()
	sp := mem.NewSpace(1<<16, 1<<20)
	subB, _ := sp.Alloc(mem.Untrusted, ring.TotalBytes(entries, SQEBytes), 64)
	complB, _ := sp.Alloc(mem.Untrusted, ring.TotalBytes(entries, CQEBytes), 64)
	ctrs := &vtime.Counters{}
	fmRing, err := Attach(Config{
		Space: sp, Setup: Setup{FD: 3, SubBase: subB, ComplBase: complB},
		Entries: entries, Counters: ctrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	kSub, err := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: subB,
		Size: entries, EntrySize: SQEBytes, Side: ring.Consumer})
	if err != nil {
		t.Fatal(err)
	}
	kCompl, err := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: complB,
		Size: entries, EntrySize: CQEBytes, Side: ring.Producer})
	if err != nil {
		t.Fatal(err)
	}
	return fmRing, kSub, kCompl, sp, ctrs
}

// kernelAnswer consumes one SQE and completes it with res.
func kernelAnswer(t *testing.T, kSub, kCompl *ring.Ring, res int32) {
	t.Helper()
	avail, _ := kSub.Available()
	if avail == 0 {
		t.Fatal("no SQE to answer")
	}
	slot, _ := kSub.SlotBytes(0)
	sqe := GetSQE(slot)
	kSub.Release(1)
	cslot, _ := kCompl.SlotBytes(0)
	PutCQE(cslot, CQE{UserData: sqe.UserData, Res: res})
	kCompl.Submit(1, 0)
}

func TestSubmitWaitRoundTrip(t *testing.T) {
	fm, kSub, kCompl, _, _ := pair(t, 8)
	var clk vtime.Clock
	tok, err := fm.Submit(SQE{Op: OpNop}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Outstanding() != 1 {
		t.Fatal("outstanding")
	}
	kernelAnswer(t, kSub, kCompl, 0)
	res, err := fm.Wait(tok, &clk)
	if err != nil || res != 0 {
		t.Fatalf("res = %d, %v", res, err)
	}
	if fm.Outstanding() != 0 {
		t.Fatal("outstanding after completion")
	}
}

func TestTryWaitNonblocking(t *testing.T) {
	fm, kSub, kCompl, _, _ := pair(t, 8)
	var clk vtime.Clock
	tok, _ := fm.Submit(SQE{Op: OpRead, FD: 1, Len: 100}, &clk)
	if _, done, err := fm.TryWait(tok, &clk); done || err != nil {
		t.Fatalf("in-flight TryWait done=%v err=%v", done, err)
	}
	kernelAnswer(t, kSub, kCompl, 42)
	res, done, err := fm.TryWait(tok, &clk)
	if !done || err != nil || res != 42 {
		t.Fatalf("TryWait = %d/%v/%v", res, done, err)
	}
	// Unknown token is an error, reported done.
	if _, done, err := fm.TryWait(999, &clk); !done || err == nil {
		t.Fatal("unknown token must error")
	}
}

func TestImplausibleResultIsEPERM(t *testing.T) {
	fm, kSub, kCompl, _, ctrs := pair(t, 8)
	var clk vtime.Clock
	tok, _ := fm.Submit(SQE{Op: OpRecv, FD: 1, Len: 64}, &clk)
	kernelAnswer(t, kSub, kCompl, 65) // one more byte than requested
	if _, err := fm.Wait(tok, &clk); !errors.Is(err, EPERM) {
		t.Fatalf("err = %v, want EPERM", err)
	}
	if ctrs.CQEViolations.Load() != 1 {
		t.Fatal("violation not counted")
	}
}

func TestForeignCompletionDiscarded(t *testing.T) {
	fm, kSub, kCompl, _, ctrs := pair(t, 8)
	var clk vtime.Clock
	tok, _ := fm.Submit(SQE{Op: OpNop}, &clk)
	// Hostile kernel first forges an unrelated CQE, then answers.
	cslot, _ := kCompl.SlotBytes(0)
	PutCQE(cslot, CQE{UserData: 0xDEAD, Res: 7})
	kCompl.Submit(1, 0)
	kernelAnswer(t, kSub, kCompl, 0)
	res, err := fm.Wait(tok, &clk)
	if err != nil || res != 0 {
		t.Fatalf("legit completion lost: %d, %v", res, err)
	}
	if ctrs.CQEViolations.Load() != 1 {
		t.Fatalf("foreign CQE violations = %d, want 1", ctrs.CQEViolations.Load())
	}
}

func TestForgetSilencesCompletion(t *testing.T) {
	fm, kSub, kCompl, _, ctrs := pair(t, 8)
	var clk vtime.Clock
	tok, _ := fm.Submit(SQE{Op: OpPollAdd, FD: 1, OpFlags: netstack.PollIn}, &clk)
	fm.Forget(tok)
	if fm.Outstanding() != 0 {
		t.Fatal("forgotten token still outstanding")
	}
	// Its completion arrives later and is silently dropped — no
	// violation counted (it is not hostile).
	kernelAnswer(t, kSub, kCompl, int32(netstack.PollIn))
	fm.Drain(&clk)
	if ctrs.CQEViolations.Load() != 0 {
		t.Fatal("abandoned completion must not count as a violation")
	}
}

func TestSubmissionRingFull(t *testing.T) {
	fm, _, _, _, _ := pair(t, 4)
	var clk vtime.Clock
	for i := 0; i < 4; i++ {
		if _, err := fm.Submit(SQE{Op: OpNop}, &clk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fm.Submit(SQE{Op: OpNop}, &clk); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

func TestAttachValidation(t *testing.T) {
	sp := mem.NewSpace(1<<16, 1<<20)
	subB, _ := sp.Alloc(mem.Untrusted, ring.TotalBytes(8, SQEBytes), 64)
	complB, _ := sp.Alloc(mem.Untrusted, ring.TotalBytes(8, CQEBytes), 64)
	trB, _ := sp.Alloc(mem.Trusted, ring.TotalBytes(8, CQEBytes), 64)

	if _, err := Attach(Config{Space: sp, Setup: Setup{FD: -1, SubBase: subB, ComplBase: complB}, Entries: 8}); !errors.Is(err, ErrSetup) {
		t.Fatal("negative fd")
	}
	if _, err := Attach(Config{Space: sp, Setup: Setup{FD: 3, SubBase: trB, ComplBase: complB}, Entries: 8}); !errors.Is(err, ErrSetup) {
		t.Fatal("trusted iSub")
	}
	if _, err := Attach(Config{Space: sp, Setup: Setup{FD: 3, SubBase: subB, ComplBase: subB}, Entries: 8}); !errors.Is(err, ErrSetup) {
		t.Fatal("overlapping rings")
	}
}

func TestResPlausibilityMatrix(t *testing.T) {
	cases := []struct {
		op   Op
		l    uint32
		res  int32
		want bool
	}{
		{OpRead, 100, 100, true},
		{OpRead, 100, 101, false},
		{OpRead, 100, 0, true},
		{OpRead, 100, -9, true},       // EBADF is plausible
		{OpRead, 100, -100000, false}, // not an errno
		{OpWrite, 10, 5, true},
		{OpSend, 10, 11, false},
		{OpRecv, 0, 1, false},
		{OpPollAdd, 0, int32(netstack.PollIn), true},
		{OpPollAdd, 0, int32(netstack.PollOut), false}, // not requested
		{OpPollAdd, 0, 0x18, true},                     // ERR|HUP always allowed
		{OpNop, 0, 0, true},
		{OpNop, 0, 1, false},
		{OpFsync, 0, 0, true},
		{OpPollRemove, 0, 0, true},
		{OpPollRemove, 0, 3, false},
		{Op(99), 0, 1, false},
	}
	for _, c := range cases {
		got := resPlausible(SQE{Op: c.op, Len: c.l, OpFlags: uint32(netstack.PollIn)}, c.res)
		if got != c.want {
			t.Errorf("op=%v len=%d res=%d: got %v want %v", c.op, c.l, c.res, got, c.want)
		}
	}
}

// TestSubmitAllocs pins the scalar submission's heap cost. Submit is the
// SubmitN body at width one on stack arrays: it allocates nothing, as it
// did when it was a function of its own (0 at 1973c5b; the one
// allocation of a submit+wait round trip is Drain's CQE snapshot).
func TestSubmitAllocs(t *testing.T) {
	const entries, runs = 256, 100
	fm, kSub, kCompl, sp, ctrs := pair(t, entries)
	bounce, err := sp.Alloc(mem.Untrusted, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	e := SQE{Op: OpRead, FD: 1, Addr: bounce, Len: 64}
	var clk vtime.Clock
	// Bring the outstanding map to its working size, then empty it, so
	// the measured submissions do not pay for its growth.
	for i := 0; i < runs+1; i++ {
		if _, err := fm.Submit(e, &clk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < runs+1; i++ {
		kernelAnswer(t, kSub, kCompl, 0)
		fm.Drain(&clk)
	}
	if fm.Outstanding() != 0 {
		t.Fatalf("%d requests outstanding after the warm-up", fm.Outstanding())
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := fm.Submit(e, &clk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Submit allocates %v objects per call, want 0", allocs)
	}
	if calls := ctrs.BatchCalls.Load(); calls != 0 {
		t.Fatalf("scalar submissions counted as %d batch calls", calls)
	}
}
