package xsk

import (
	"errors"
	"testing"

	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/vtime"
)

// Adversarial coverage for the certified zero-copy RX primitives:
// RecvViews — at width 1 (recv1) and across a run — must refuse every
// hostile descriptor, pin its descriptor decisions to one frozen fetch,
// and SpliceFrame must move a frame RX→TX with the view's generation
// burned so nothing stale can race the kernel.

// zcSetup attaches a socket over an 8-slot ring and 16-frame UMem with
// kernel-side fill/RX rings ready, and delivers one legitimate packet
// descriptor pointing at frame bytes `payload`.
func zcSetup(t *testing.T) (*mem.Space, *Socket, *vtime.Counters, *ring.Ring, *ring.Ring, uint64) {
	t.Helper()
	sp := mem.NewSpace(1<<20, 1<<22)
	ctrs := &vtime.Counters{}
	s := validSetup(t, sp, 8, 2048, 16)
	sock, err := Attach(Config{Space: sp, Setup: s, RingSize: 8, FrameSize: 2048,
		FrameCount: 16, Counters: ctrs})
	if err != nil {
		t.Fatal(err)
	}
	var clk vtime.Clock
	sock.Refill(&clk)
	kFill, _ := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: s.FillBase,
		Size: 8, EntrySize: FillEntryBytes, Side: ring.Consumer})
	kRX, _ := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: s.RXBase,
		Size: 8, EntrySize: DescBytes, Side: ring.Producer})
	legit, _ := kFill.ReadU64(0)
	kFill.Release(1)
	return sp, sock, ctrs, kFill, kRX, legit
}

// TestRecvViewPinsDescriptorSnapshot is the descriptor-scribble
// regression on a minted view: the host rewrites the live RX slot after
// producing it, and RecvViews — which fetches the slot exactly once
// and validates the frozen bytes — sees the scribbled descriptor whole
// and refuses it whole. The negative control shows the live slot really
// did diverge from the originally produced descriptor, so a re-reading
// consumer would have certified Len 4 and then consumed Len 5000.
func TestRecvViewPinsDescriptorSnapshot(t *testing.T) {
	sp, sock, ctrs, _, kRX, legit := zcSetup(t)
	var clk vtime.Clock
	payload, _ := sp.Bytes(mem.RoleHost, sock.UMem.Base()+mem.Addr(legit), 4)
	copy(payload, "good")
	slot, _ := kRX.SlotBytes(0)
	PutDesc(slot, Desc{Addr: legit, Len: 4})
	kRX.Submit(1, 0)

	// The descriptor as produced.
	frozen, err := sock.RX.SnapSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	// Host scribbles the live slot: validate-small-use-big.
	live, _ := sp.Bytes(mem.RoleHost, sock.RX.SlotAddr(0), DescBytes)
	PutDesc(live, Desc{Addr: legit, Len: 5000})

	// Negative control: the live slot and the earlier fetch now
	// disagree — the double-fetch hazard is real in this schedule.
	enclaveLive, _ := sp.Bytes(mem.RoleEnclave, sock.RX.SlotAddr(0), DescBytes)
	if SnapDesc(frozen).Len != 4 || GetDesc(enclaveLive).Len != 5000 {
		t.Fatalf("scribble not in place: frozen=%d live=%d",
			SnapDesc(frozen).Len, GetDesc(enclaveLive).Len)
	}

	// RecvViews fetches once, sees Len 5000 whole, refuses whole: no
	// view is minted and the frame never leaves the fill ring's custody.
	if v, ok := recv1(sock, &clk); ok {
		t.Fatalf("RecvViews accepted scribbled descriptor: %+v", v)
	}
	if ctrs.UMemViolations.Load() != 1 {
		t.Fatalf("violations = %d, want 1", ctrs.UMemViolations.Load())
	}
	if !sock.UMem.InvariantHolds() {
		t.Fatal("invariant broken")
	}
}

// TestRecvViewRefusesHostileDescriptor checks the delivered view's
// bounds and in-place bytes next to a refusal: a descriptor naming a
// frame the kernel never received is refused, and the adjacent
// legitimate frame is delivered as a certified view.
func TestRecvViewRefusesHostileDescriptor(t *testing.T) {
	sp, sock, ctrs, kFill, kRX, legit := zcSetup(t)
	var clk vtime.Clock
	kFill.Release(1) // kernel consumes a second fill entry

	slot, _ := kRX.SlotBytes(0)
	PutDesc(slot, Desc{Addr: 15 * 2048, Len: 100}) // frame 15: never handed out
	payload, _ := sp.Bytes(mem.RoleHost, sock.UMem.Base()+mem.Addr(legit), 4)
	copy(payload, "good")
	slot, _ = kRX.SlotBytes(1)
	PutDesc(slot, Desc{Addr: legit, Len: 4})
	kRX.Submit(2, 0)

	v, ok := recv1(sock, &clk)
	if !ok {
		t.Fatal("legitimate frame not delivered")
	}
	if v.Offset() != legit || v.Len() != 4 {
		t.Fatalf("view bounds = (%d, %d), want (%d, 4)", v.Offset(), v.Len(), legit)
	}
	snap, err := v.Snap(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "good" {
		t.Fatalf("view bytes = %q", snap)
	}
	if ctrs.UMemViolations.Load() != 1 {
		t.Fatalf("violations = %d, want 1", ctrs.UMemViolations.Load())
	}
	if err := v.Release(); err != nil {
		t.Fatal(err)
	}
	if !sock.UMem.InvariantHolds() {
		t.Fatal("invariant broken")
	}
}

// TestSpliceFrameRequeuesWithoutCopy drives the full splice lifecycle:
// RX frame arrives as a view, SpliceFrame queues the frame's own offset
// on xTX (no payload copy anywhere), the view's generation is burned so
// every later access through it fails stale, and the kernel's completion
// recycles the frame back to the pool via Reap.
func TestSpliceFrameRequeuesWithoutCopy(t *testing.T) {
	sp, sock, ctrs, _, kRX, legit := zcSetup(t)
	var clk vtime.Clock
	payload, _ := sp.Bytes(mem.RoleHost, sock.UMem.Base()+mem.Addr(legit), 8)
	copy(payload, "splice!!")
	slot, _ := kRX.SlotBytes(0)
	PutDesc(slot, Desc{Addr: legit, Len: 8})
	kRX.Submit(1, 0)

	v, ok := recv1(sock, &clk)
	if !ok {
		t.Fatal("no view")
	}
	savedBefore := ctrs.CopyBytesSaved.Load()
	if err := sock.SpliceFrame(&v, 8, &clk); err != nil {
		t.Fatal(err)
	}

	// The TX descriptor names the RX frame itself: same offset, no copy.
	kTX, _ := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: sock.TX.Base(),
		Size: 8, EntrySize: DescBytes, Side: ring.Consumer})
	avail, _ := kTX.Available()
	if avail != 1 {
		t.Fatalf("tx avail = %d", avail)
	}
	txSlot, _ := kTX.SlotBytes(0)
	d := GetDesc(txSlot)
	if d.Addr != legit || d.Len != 8 {
		t.Fatalf("tx desc = %+v, want Addr %d Len 8", d, legit)
	}
	txPayload, _ := sp.Bytes(mem.RoleHost, sock.UMem.Base()+mem.Addr(d.Addr), 8)
	if string(txPayload) != "splice!!" {
		t.Fatalf("tx payload = %q", txPayload)
	}
	if ctrs.SpliceFrames.Load() != 1 {
		t.Fatalf("splice frames = %d", ctrs.SpliceFrames.Load())
	}
	if saved := ctrs.CopyBytesSaved.Load() - savedBefore; saved != 8 {
		t.Fatalf("copy bytes saved by splice = %d, want 8", saved)
	}

	// The view is dead: its generation was burned at the splice, so a
	// stale consumer cannot race the kernel's transmit DMA.
	if v.Live() {
		t.Fatal("view still live after splice")
	}
	if _, err := v.Snap(0, 8); !errors.Is(err, mem.ErrStaleView) {
		t.Fatalf("snap after splice: %v, want ErrStaleView", err)
	}
	if err := v.Release(); !errors.Is(err, mem.ErrStaleView) {
		t.Fatalf("release after splice: %v, want reported no-op", err)
	}
	if !sock.UMem.InvariantHolds() {
		t.Fatal("invariant broken with frame in flight")
	}

	// Kernel transmit completion recycles the frame like any other send.
	kCompl, _ := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: sock.Compl.Base(),
		Size: 8, EntrySize: FillEntryBytes, Side: ring.Producer})
	kTX.Release(1)
	kCompl.WriteU64(0, d.Addr)
	kCompl.Submit(1, 0)
	if n := sock.Reap(&clk); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if sock.UMem.FreeFrames() == 0 {
		t.Fatal("frame not recycled")
	}
	if !sock.UMem.InvariantHolds() {
		t.Fatal("invariant broken after reap")
	}
}

// TestRecvViewsBatchSkipsHostileEntries: the batched view receive keeps
// per-entry refusal semantics — hostile entries inside a run are skipped
// without poisoning their neighbours, and each delivered view certifies
// its own bounds.
func TestRecvViewsBatchSkipsHostileEntries(t *testing.T) {
	sp, sock, ctrs, kFill, kRX, first := zcSetup(t)
	var clk vtime.Clock
	kFill.Release(2) // kernel consumes two more fill entries
	second, _ := kFill.ReadU64(1)

	for i, addr := range []uint64{first, second} {
		payload, _ := sp.Bytes(mem.RoleHost, sock.UMem.Base()+mem.Addr(addr), 4)
		copy(payload, []byte{'p', 'k', 't', byte('0' + i)})
	}
	slot, _ := kRX.SlotBytes(0)
	PutDesc(slot, Desc{Addr: first, Len: 4})
	slot, _ = kRX.SlotBytes(1)
	PutDesc(slot, Desc{Addr: 15 * 2048, Len: 64}) // hostile, mid-batch
	slot, _ = kRX.SlotBytes(2)
	PutDesc(slot, Desc{Addr: second, Len: 4})
	kRX.Submit(3, 0)

	views := sock.RecvViews(&clk, 8)
	if len(views) != 2 {
		t.Fatalf("views = %d, want 2", len(views))
	}
	for i, want := range []string{"pkt0", "pkt1"} {
		snap, err := views[i].Snap(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if string(snap) != want {
			t.Fatalf("view %d = %q, want %q", i, snap, want)
		}
		if err := views[i].Release(); err != nil {
			t.Fatal(err)
		}
	}
	if ctrs.UMemViolations.Load() != 1 {
		t.Fatalf("violations = %d, want 1", ctrs.UMemViolations.Load())
	}
	if sock.UMem.FreeFrames() == 0 {
		t.Fatal("released views did not refill the pool")
	}
	if !sock.UMem.InvariantHolds() {
		t.Fatal("invariant broken")
	}
}
