package fm

// Boundary tests for the submitRun backoff ladder, through its scalar
// (submitRetry) and vectored (SubmitPollN) callers: a full
// iSub at every rung, the escalation trigger on each retry, the give-up
// path after submitRetryMax rungs, mid-ladder recovery when the kernel
// consumer frees the ring, and vectored partial success. The "kernel" is
// a bare host-role ring handle driven by the test — no worker, no rescue
// scan — so each scenario is exactly the one constructed.

import (
	"errors"
	"testing"
	"time"

	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/vtime"
)

type ladderFixture struct {
	sp    *mem.Space
	u     *UringFM
	kSub  *ring.Ring // kernel-side consumer handle of iSub
	kCpl  *ring.Ring // kernel-side producer handle of iCompl
	ctr   *vtime.Counters
	clk   vtime.Clock
	nudge int
	kick  int
	dead  bool
	// onNudge and onKick, when set, run after the ring's waker counted
	// the rung: the scenario's kernel-side reaction.
	onNudge, onKick func()
}

func newLadderFixture(t *testing.T, entries uint32) *ladderFixture {
	t.Helper()
	f := &ladderFixture{sp: mem.NewSpace(1<<16, 1<<20), ctr: &vtime.Counters{}}
	subB, err := f.sp.Alloc(mem.Untrusted, ring.TotalBytes(entries, iouring.SQEBytes), 64)
	if err != nil {
		t.Fatal(err)
	}
	cplB, err := f.sp.Alloc(mem.Untrusted, ring.TotalBytes(entries, iouring.CQEBytes), 64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := iouring.Attach(iouring.Config{
		Space: f.sp, Setup: iouring.Setup{FD: 3, SubBase: subB, ComplBase: cplB},
		Entries: entries, Counters: f.ctr,
		Waker: iouring.Waker{
			Nudge: func() { f.rung(&f.nudge, f.onNudge) },
			Kick:  func() { f.rung(&f.kick, f.onKick) },
			Dead:  func() bool { return f.dead },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.u, err = NewUringFM(r, f.sp, nil, 4096); err != nil {
		t.Fatal(err)
	}
	if f.kSub, err = ring.New(ring.Config{
		Space: f.sp, Access: mem.RoleHost, Base: subB,
		Size: entries, EntrySize: iouring.SQEBytes, Side: ring.Consumer,
	}); err != nil {
		t.Fatal(err)
	}
	if f.kCpl, err = ring.New(ring.Config{
		Space: f.sp, Access: mem.RoleHost, Base: cplB,
		Size: entries, EntrySize: iouring.CQEBytes, Side: ring.Producer,
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *ladderFixture) rung(count *int, react func()) {
	*count++
	if react != nil {
		react()
	}
}

// fill occupies the whole submission ring with nops nobody consumes.
func (f *ladderFixture) fill(t *testing.T, entries int) {
	t.Helper()
	for i := 0; i < entries; i++ {
		if _, err := f.u.submitRetry(iouring.SQE{Op: iouring.OpNop}, &f.clk); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if f.nudge != 0 {
		t.Fatalf("filling a free ring escalated %d times", f.nudge)
	}
}

// consume retires n SQEs kernel-side without producing completions.
func (f *ladderFixture) consume(t *testing.T, n uint32) {
	t.Helper()
	avail, err := f.kSub.Available()
	if err != nil || avail < n {
		t.Fatalf("kernel sees %d pending (err %v), want >= %d", avail, err, n)
	}
	if err := f.kSub.Release(n); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRetryGiveUp: the ring stays full at every rung, so the ladder
// must climb all submitRetryMax rungs — escalating on each — and then
// surface ErrFull rather than spin forever.
func TestSubmitRetryGiveUp(t *testing.T) {
	f := newLadderFixture(t, 8)
	f.fill(t, 8)
	start := time.Now()
	_, err := f.u.submitRetry(iouring.SQE{Op: iouring.OpNop}, &f.clk)
	if !errors.Is(err, iouring.ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	if got := f.ctr.SubmitRetries.Load(); got != submitRetryMax {
		t.Fatalf("SubmitRetries = %d, want %d (one per rung)", got, submitRetryMax)
	}
	if f.nudge != submitRetryMax {
		t.Fatalf("escalated %d times, want %d (every rung must escalate)", f.nudge, submitRetryMax)
	}
	if f.kick != 0 {
		t.Fatalf("paid %d kicks with the MM alive", f.kick)
	}
	// The backoff ladder doubles 20us -> 2ms (capped); riding it to the
	// give-up rung takes tens of milliseconds of real sleep.
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("ladder gave up after only %v; backoff rungs not slept", el)
	}
}

// TestSubmitRetryRecoversMidLadder: the kernel consumer frees the ring
// during the Nth escalation, and the ladder must succeed on the next
// rung instead of giving up.
func TestSubmitRetryRecoversMidLadder(t *testing.T) {
	f := newLadderFixture(t, 8)
	f.fill(t, 8)
	recoverAt := 3
	f.onNudge = func() {
		if f.nudge == recoverAt {
			f.consume(t, 4)
		}
	}
	tok, err := f.u.submitRetry(iouring.SQE{Op: iouring.OpNop}, &f.clk)
	if err != nil {
		t.Fatalf("ladder did not recover: %v", err)
	}
	if tok == 0 {
		t.Fatal("recovered submit returned no token")
	}
	if got := f.ctr.SubmitRetries.Load(); got != uint64(recoverAt) {
		t.Fatalf("SubmitRetries = %d, want %d (recovered on rung %d)", got, recoverAt, recoverAt)
	}
	// The submitted SQE must be visible kernel-side as the next pending
	// entry.
	if avail, _ := f.kSub.Available(); avail != 5 { // 4 old + 1 new
		t.Fatalf("kernel sees %d pending, want 5", avail)
	}
}

// TestSubmitRetryKicksWhenMMDead: with the Monitor Module dead the nudge
// rung is pointless; every escalation must pay the direct kick instead.
func TestSubmitRetryKicksWhenMMDead(t *testing.T) {
	f := newLadderFixture(t, 8)
	f.fill(t, 8)
	f.dead = true
	kickAt := 2
	f.onKick = func() {
		if f.kick == kickAt {
			f.consume(t, 2)
		}
	}
	if _, err := f.u.submitRetry(iouring.SQE{Op: iouring.OpNop}, &f.clk); err != nil {
		t.Fatalf("ladder did not recover via kick: %v", err)
	}
	if f.kick != kickAt {
		t.Fatalf("kicked %d times, want %d", f.kick, kickAt)
	}
	if f.nudge != 0 {
		t.Fatalf("nudged a dead MM %d times", f.nudge)
	}
}

// TestSubmitRetryNPartialGiveUp: a batch wider than the ring submits its
// prefix, rides the full ladder for the tail, and reports how far it got
// alongside ErrFull.
func TestSubmitRetryNPartialGiveUp(t *testing.T) {
	f := newLadderFixture(t, 8)
	tokens, err := f.u.SubmitPollN(make([]PollReq, 12), &f.clk)
	if !errors.Is(err, iouring.ErrFull) {
		t.Fatalf("want ErrFull for the unsubmittable tail, got %v", err)
	}
	if len(tokens) != 8 {
		t.Fatalf("submitted prefix %d, want 8 (the ring size)", len(tokens))
	}
	for i, tok := range tokens {
		if tok == 0 || (i > 0 && tok != tokens[i-1]+1) {
			t.Fatalf("tokens not sequential: %v", tokens)
		}
	}
	if got := f.ctr.SubmitRetries.Load(); got != submitRetryMax {
		t.Fatalf("SubmitRetries = %d, want %d", got, submitRetryMax)
	}
	if avail, _ := f.kSub.Available(); avail != 8 {
		t.Fatalf("kernel sees %d pending, want 8", avail)
	}
}

// TestSubmitRetryNRecoversTail: the whole batch lands once the kernel
// frees space mid-ladder, with one retry rung counted per re-offer.
func TestSubmitRetryNRecoversTail(t *testing.T) {
	f := newLadderFixture(t, 8)
	recoverAt := 2
	f.onNudge = func() {
		if f.nudge == recoverAt {
			f.consume(t, 8)
		}
	}
	tokens, err := f.u.SubmitPollN(make([]PollReq, 12), &f.clk)
	if err != nil {
		t.Fatalf("batch did not land after recovery: %v", err)
	}
	if len(tokens) != 12 {
		t.Fatalf("submitted %d of 12", len(tokens))
	}
	if got := f.ctr.SubmitRetries.Load(); got != uint64(recoverAt) {
		t.Fatalf("SubmitRetries = %d, want %d", got, recoverAt)
	}
	// 8 + 4 across two runs, all pending kernel-side minus the 8 consumed.
	if avail, _ := f.kSub.Available(); avail != 4 {
		t.Fatalf("kernel sees %d pending, want 4", avail)
	}
	// One vectored call, however many ring passes it took (two here: the
	// prefix run and the tail run).
	if got := f.ctr.BatchCalls.Load(); got != 1 {
		t.Fatalf("BatchCalls = %d, want 1", got)
	}
	if got := f.ctr.BatchedMsgs.Load(); got != 12 {
		t.Fatalf("BatchedMsgs = %d, want 12", got)
	}
}

// TestSubmitRetryNNonRetryableError: a hard error (an SQE naming enclave
// memory) must surface immediately — no rungs, no backoff.
func TestSubmitRetryNNonRetryableError(t *testing.T) {
	f := newLadderFixture(t, 8)
	trusted, err := f.sp.Alloc(mem.Trusted, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	es := []iouring.SQE{{Op: iouring.OpRead, Addr: trusted, Len: 64}}
	var tokens [1]uint64
	n, err := f.u.submitRun(es, tokens[:], &f.clk)
	if !errors.Is(err, iouring.ErrBufferPlacement) {
		t.Fatalf("want ErrBufferPlacement, got %v", err)
	}
	if n != 0 || tokens[0] != 0 {
		t.Fatalf("a rejected batch submitted %d, tokens %v", n, tokens)
	}
	if got := f.ctr.SubmitRetries.Load(); got != 0 {
		t.Fatalf("retried a non-retryable error %d times", got)
	}
	if f.nudge != 0 {
		t.Fatal("escalated on a non-retryable error")
	}
}

// serve runs a stub kernel side until the test ends: it retires each SQE
// the FM submits, appends the first res bytes of the SQE's buffer to the
// returned sink — what a kernel that accepted res bytes would have taken
// — and completes it with the next scripted result (the last one, once
// the script runs out).
func (f *ladderFixture) serve(t *testing.T, script ...int32) *[]byte {
	t.Helper()
	sink := new([]byte)
	stop, done := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop); <-done })
	go func() {
		defer close(done)
		for i := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			if avail, _ := f.kSub.Available(); avail == 0 {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			slot, _ := f.kSub.SlotBytes(0)
			sqe := iouring.GetSQE(slot)
			f.kSub.Release(1)
			res := script[min(i, len(script)-1)]
			i++
			if res > 0 {
				buf, _ := f.sp.Bytes(mem.RoleHost, sqe.Addr, uint64(res))
				*sink = append(*sink, buf...)
			}
			cslot, _ := f.kCpl.SlotBytes(0)
			iouring.PutCQE(cslot, iouring.CQE{UserData: sqe.UserData, Res: res})
			f.kCpl.Submit(1, 0)
		}
	}()
	return sink
}

// TestSendResumesAfterShortCount: a stream send the kernel takes in
// pieces goes out whole, each resubmission carrying exactly the rest.
func TestSendResumesAfterShortCount(t *testing.T) {
	f := newLadderFixture(t, 8)
	sink := f.serve(t, 40, 25, 35)
	p := make([]byte, 100)
	for i := range p {
		p[i] = byte(i)
	}
	n, err := f.u.Send(5, p, &f.clk)
	if n != len(p) || err != nil {
		t.Fatalf("Send = %d, %v, want %d, nil", n, err, len(p))
	}
	if string(*sink) != string(p) {
		t.Fatalf("the kernel took %x, want the payload in order", *sink)
	}
}

// TestSendStopsOnZeroByteCompletion: a zero-byte completion for a
// non-empty send is plausible to the ring (0 <= res <= Len) and moves
// nothing; resubmitting the same bytes for ever is what a hostile or
// wedged kernel would like. Send reports the short count with an error.
func TestSendStopsOnZeroByteCompletion(t *testing.T) {
	f := newLadderFixture(t, 8)
	f.serve(t, 40, 0)
	n, err := f.u.Send(5, make([]byte, 100), &f.clk)
	if n != 40 || !errors.Is(err, ErrNoProgress) {
		t.Fatalf("Send = %d, %v, want 40, ErrNoProgress", n, err)
	}
	if got := f.ctr.IoUringOps.Load(); got != 2 {
		t.Fatalf("submitted %d sends, want 2 (no resubmission after the zero)", got)
	}
}
