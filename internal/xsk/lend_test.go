package xsk

import (
	"errors"
	"testing"

	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/tm"
	"rakis/internal/umem"
	"rakis/internal/vtime"
)

// txRig is a socket with the test playing the kernel's end of all four
// rings.
type txRig struct {
	sp                      *mem.Space
	setup                   Setup
	sock                    *Socket
	kFill, kRX, kTX, kCompl *ring.Ring
	clk                     vtime.Clock
}

func newTxRig(t *testing.T, ringSize, frames uint32) *txRig {
	t.Helper()
	r := &txRig{sp: mem.NewSpace(1<<16, 1<<22)}
	r.setup = validSetup(t, r.sp, ringSize, 2048, frames)
	var err error
	if r.sock, err = Attach(Config{Space: r.sp, Setup: r.setup, RingSize: ringSize,
		FrameSize: 2048, FrameCount: frames, Counters: &vtime.Counters{}}); err != nil {
		t.Fatal(err)
	}
	host := func(base mem.Addr, entry uint32, side ring.Side) *ring.Ring {
		k, err := ring.New(ring.Config{Space: r.sp, Access: mem.RoleHost, Base: base,
			Size: ringSize, EntrySize: entry, Side: side})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	r.kFill = host(r.setup.FillBase, FillEntryBytes, ring.Consumer)
	r.kRX = host(r.setup.RXBase, DescBytes, ring.Producer)
	r.kTX = host(r.setup.TXBase, DescBytes, ring.Consumer)
	r.kCompl = host(r.setup.ComplBase, FillEntryBytes, ring.Producer)
	return r
}

// complete consumes every queued xTX descriptor and completes it.
func (r *txRig) complete() {
	avail, _ := r.kTX.Available()
	for i := uint32(0); i < avail; i++ {
		slot, _ := r.kTX.SlotBytes(i)
		r.kCompl.WriteU64(i, GetDesc(slot).Addr)
	}
	r.kTX.Release(avail)
	r.kCompl.Submit(avail, 0)
}

// pool asserts the frame pool sound and short exactly the frames out.
func (r *txRig) pool(t *testing.T, total, out int) {
	t.Helper()
	if u := r.sock.UMem; !u.InvariantHolds() || u.FreeFrames() != total-out {
		t.Fatalf("pool holds %d of %d frames with %d out (invariant %v)",
			u.FreeFrames(), total, out, u.InvariantHolds())
	}
}

// TestSendBatchReturnsWhatItCannotProduce: every frame SendBatch takes
// from the pool is either in xTX when it returns or back in the pool — a
// run cut short by an oversized frame, by a ring with fewer free slots
// than frames, or by a ring with none strands nothing.
func TestSendBatchReturnsWhatItCannotProduce(t *testing.T) {
	r := newTxRig(t, 4, 8)
	small := []byte{1}
	// An oversized frame mid-run: the run stops short of it, positionally.
	n, err := r.sock.SendBatch([][]byte{small, small, make([]byte, 2049), small}, &r.clk)
	if n != 2 || err != nil {
		t.Fatalf("run with an oversized third frame: sent %d, %v; want 2, nil", n, err)
	}
	r.pool(t, 8, 2)
	if n, err := r.sock.SendBatch([][]byte{make([]byte, 2049), small}, &r.clk); n != 0 || !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized first frame: sent %d, %v; want 0, ErrTooBig", n, err)
	}
	r.pool(t, 8, 2)
	// Two slots left for a run of three; then none.
	if n, err := r.sock.SendBatch([][]byte{small, small, small}, &r.clk); n != 2 || err != nil {
		t.Fatalf("run into 2 free slots: sent %d, %v; want 2, nil", n, err)
	}
	if n, err := r.sock.SendBatch([][]byte{small}, &r.clk); n != 0 || !errors.Is(err, ErrRingFull) {
		t.Fatalf("run into a full ring: sent %d, %v; want 0, ErrRingFull", n, err)
	}
	r.pool(t, 8, 4)
	r.complete()
	if got := r.sock.Reap(&r.clk); got != 4 {
		t.Fatalf("reaped %d, want 4", got)
	}
	r.pool(t, 8, 0)
}

// TestLendPublishAbortAccountForEveryFrame: frames leave the pool at
// Lend and come back by exactly one of two roads — through xTX and
// xCompl, or through Abort — whether the ring takes the whole run, part
// of it, or none; and an Abort of a frame the host has already
// "completed" behind the enclave's back is refused, not double-freed.
func TestLendPublishAbortAccountForEveryFrame(t *testing.T) {
	r := newTxRig(t, 4, 8)
	var bufs [6]mem.TxBuf
	if n := r.sock.Lend(bufs[:], &r.clk); n != 6 {
		t.Fatalf("Lend = %d, want 6", n)
	}
	r.pool(t, 8, 6)
	for i := range bufs {
		if len(bufs[i].B) != 2048 || r.sock.UMem.Owner(uint32(bufs[i].Off/2048)) != umem.OwnerTx {
			t.Fatalf("buf %d: %d bytes at %#x owned by %v", i, len(bufs[i].B), bufs[i].Off,
				r.sock.UMem.Owner(uint32(bufs[i].Off/2048)))
		}
		bufs[i].B = bufs[i].B[:100+i]
	}
	// Four slots: the ring takes four of the six, in order, as one run.
	n, err := r.sock.Publish(bufs[:], &r.clk)
	if n != 4 || err != nil {
		t.Fatalf("Publish = %d, %v; want 4, nil", n, err)
	}
	for i := uint32(0); i < 4; i++ {
		slot, _ := r.kTX.SlotBytes(i)
		if d := GetDesc(slot); d.Addr != bufs[i].Off || d.Len != 100+i {
			t.Fatalf("descriptor %d = %+v, want (%#x, %d)", i, d, bufs[i].Off, 100+i)
		}
	}
	if n, err := r.sock.Publish(bufs[4:], &r.clk); n != 0 || !errors.Is(err, ErrRingFull) {
		t.Fatalf("Publish into a full ring = %d, %v; want 0, ErrRingFull", n, err)
	}
	r.pool(t, 8, 6) // the last two are still lent
	r.complete()
	if got := r.sock.Reap(&r.clk); got != 4 {
		t.Fatalf("reaped %d, want 4", got)
	}
	// The host "completes" frame 4, which never entered xTX: the offset
	// is one the send routine owns, so the reap takes it back — and the
	// Abort that follows must not free it a second time.
	r.kCompl.WriteU64(0, bufs[4].Off)
	r.kCompl.Submit(1, 0)
	if got := r.sock.Reap(&r.clk); got != 1 {
		t.Fatalf("reaped %d forged completions, want 1", got)
	}
	r.sock.Abort(bufs[4:])
	r.pool(t, 8, 0)
	if v := r.sock.Counters().UMemViolations.Load(); v != 1 {
		t.Fatalf("UMemViolations = %d, want 1 (the abort of the forged-complete frame)", v)
	}
}

// TestPublishUnderRingAdversaryClasses runs the Testing Module's
// batched-ring adversary partition against the publish path: before each
// Publish the host scribbles one class representative over xTX's
// consumer index. Whatever the value, the enclave's indices stay
// certified (never more than a ring's worth between them), each
// descriptor written is the lent (offset, length) in the slot the
// trusted producer index names, and every lent frame is accounted for —
// published and completed, or aborted.
func TestPublishUnderRingAdversaryClasses(t *testing.T) {
	const size, frames = 4, 16
	for width := 1; width <= size; width++ {
		r := newTxRig(t, size, frames)
		cons, err := r.sp.Atomic32(mem.RoleHost, r.setup.TXBase+4)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for _, v := range tm.AdversaryClasses(r.sock.TX.Local(), size) {
				var bufs [size]mem.TxBuf
				if n := r.sock.Lend(bufs[:width], &r.clk); n != width {
					t.Fatalf("Lend = %d, want %d", n, width)
				}
				for i := range bufs[:width] {
					bufs[i].B = bufs[i].B[:60+i]
				}
				first := r.sock.TX.Local()
				cons.Store(v)
				n, _ := r.sock.Publish(bufs[:width], &r.clk)
				r.sock.Abort(bufs[n:width])
				if !r.sock.TX.InvariantHolds() || r.sock.TX.Local() != first+uint32(n) {
					t.Fatalf("width %d, consumer=%#x: published %d, local %d→%d, invariant %v",
						width, v, n, first, r.sock.TX.Local(), r.sock.TX.InvariantHolds())
				}
				for i := 0; i < n; i++ {
					at := r.setup.TXBase + ring.HeaderBytes + mem.Addr((first+uint32(i))&(size-1))*DescBytes
					slot, _ := r.sp.Bytes(mem.RoleHost, at, DescBytes)
					if d := GetDesc(slot); d.Addr != bufs[i].Off || d.Len != uint32(60+i) {
						t.Fatalf("width %d, consumer=%#x: descriptor %d = %+v, want (%#x, %d)",
							width, v, i, d, bufs[i].Off, 60+i)
					}
					r.kCompl.WriteU64(uint32(i), bufs[i].Off)
				}
				r.kCompl.Submit(uint32(n), 0)
				if got := r.sock.Reap(&r.clk); got != n {
					t.Fatalf("width %d, consumer=%#x: reaped %d of %d", width, v, got, n)
				}
				r.pool(t, frames, 0)
				cons.Store(r.sock.TX.Local()) // the honest kernel has consumed everything
			}
		}
	}
}

// TestRecvViewsAllocatesNothing: certifying a run of descriptors into
// views and releasing them touches the heap nowhere once the socket's
// view slice has grown to the run width.
func TestRecvViewsAllocatesNothing(t *testing.T) {
	const width = 8
	r := newTxRig(t, 16, 32)
	r.sock.Refill(&r.clk)
	step := func() {
		for i := uint32(0); i < width; i++ {
			off, _ := r.kFill.ReadU64(i)
			slot, _ := r.kRX.SlotBytes(i)
			PutDesc(slot, Desc{Addr: off, Len: 64})
		}
		r.kFill.Release(width)
		r.kRX.Submit(width, 0)
		views := r.sock.RecvViews(&r.clk, width)
		if len(views) != width {
			t.Fatalf("RecvViews certified %d of %d", len(views), width)
		}
		for i := range views {
			if err := views[i].Release(); err != nil {
				t.Fatal(err)
			}
		}
		r.sock.Refill(&r.clk)
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("RecvViews + release allocates %v objects per run of %d, want 0", n, width)
	}
	r.pool(t, 32, 16)
}
