package xsk

import (
	"errors"
	"testing"
	"testing/quick"

	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/vtime"
)

func TestDescRoundTrip(t *testing.T) {
	f := func(addr uint64, length, opts uint32) bool {
		b := make([]byte, DescBytes)
		PutDesc(b, Desc{Addr: addr, Len: length, Opts: opts})
		d := GetDesc(b)
		return d.Addr == addr && d.Len == length && d.Opts == opts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// validSetup allocates a well-formed five-region setup.
func validSetup(t *testing.T, sp *mem.Space, ringSize, frameSize, frameCount uint32) Setup {
	t.Helper()
	alloc := func(n uint64) mem.Addr {
		a, err := sp.Alloc(mem.Untrusted, n, 64)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return Setup{
		FD:        7,
		FillBase:  alloc(ring.TotalBytes(ringSize, FillEntryBytes)),
		RXBase:    alloc(ring.TotalBytes(ringSize, DescBytes)),
		TXBase:    alloc(ring.TotalBytes(ringSize, DescBytes)),
		ComplBase: alloc(ring.TotalBytes(ringSize, FillEntryBytes)),
		UMemBase:  alloc(uint64(frameSize) * uint64(frameCount)),
	}
}

// send1 is the scalar send: a SendBatch run of one.
func send1(sock *Socket, frame []byte, clk *vtime.Clock) error {
	n, err := sock.SendBatch([][]byte{frame}, clk)
	if err == nil && n != 1 {
		return errors.New("short send without an error")
	}
	return err
}

// recv1 is the scalar receive: RecvViews at width 1, repeated past
// refused descriptors until a frame is certified or xRX is empty.
func recv1(sock *Socket, clk *vtime.Clock) (mem.View, bool) {
	for sock.RxQueued() > 0 {
		if views := sock.RecvViews(clk, 1); len(views) == 1 {
			return views[0], true
		}
	}
	return mem.View{}, false
}

func TestAttachValidSetup(t *testing.T) {
	sp := mem.NewSpace(1<<20, 1<<22)
	s := validSetup(t, sp, 64, 2048, 128)
	sock, err := Attach(Config{Space: sp, Setup: s, RingSize: 64, FrameSize: 2048, FrameCount: 128})
	if err != nil {
		t.Fatal(err)
	}
	if sock.FD() != 7 {
		t.Fatal("fd")
	}
	if sock.UMem.FrameCount() != 128 {
		t.Fatal("umem geometry")
	}
}

func TestAttachRejectsNegativeFD(t *testing.T) {
	// Table 2 initialization row: fd >= 0, else abort startup.
	sp := mem.NewSpace(1<<20, 1<<22)
	s := validSetup(t, sp, 64, 2048, 128)
	s.FD = -1
	if _, err := Attach(Config{Space: sp, Setup: s, RingSize: 64, FrameSize: 2048, FrameCount: 128}); !errors.Is(err, ErrSetup) {
		t.Fatalf("err = %v, want ErrSetup", err)
	}
}

func TestAttachRejectsOverlappingRegions(t *testing.T) {
	// Table 2: the five pointers must be non-overlapping — a hostile
	// setup overlapping the UMem with the RX ring would let the kernel
	// forge descriptors through packet payloads.
	sp := mem.NewSpace(1<<20, 1<<22)
	s := validSetup(t, sp, 64, 2048, 128)
	s.UMemBase = s.RXBase
	if _, err := Attach(Config{Space: sp, Setup: s, RingSize: 64, FrameSize: 2048, FrameCount: 128}); !errors.Is(err, ErrSetup) {
		t.Fatalf("err = %v, want ErrSetup", err)
	}
	// Partial overlap is also rejected.
	s = validSetup(t, sp, 64, 2048, 128)
	s.TXBase = s.ComplBase + 8
	if _, err := Attach(Config{Space: sp, Setup: s, RingSize: 64, FrameSize: 2048, FrameCount: 128}); !errors.Is(err, ErrSetup) {
		t.Fatalf("partial overlap err = %v, want ErrSetup", err)
	}
}

func TestAttachRejectsTrustedPointers(t *testing.T) {
	// Table 2: regions must live exclusively in untrusted memory — a
	// ring in enclave memory is the liburing exfiltration setup.
	sp := mem.NewSpace(1<<20, 1<<22)
	s := validSetup(t, sp, 64, 2048, 128)
	tr, err := sp.Alloc(mem.Trusted, ring.TotalBytes(64, DescBytes), 64)
	if err != nil {
		t.Fatal(err)
	}
	s.RXBase = tr
	if _, err := Attach(Config{Space: sp, Setup: s, RingSize: 64, FrameSize: 2048, FrameCount: 128}); !errors.Is(err, ErrSetup) {
		t.Fatalf("err = %v, want ErrSetup", err)
	}
}

func TestSendRejectsOversizedFrame(t *testing.T) {
	sp := mem.NewSpace(1<<20, 1<<22)
	s := validSetup(t, sp, 64, 2048, 16)
	sock, err := Attach(Config{Space: sp, Setup: s, RingSize: 64, FrameSize: 2048, FrameCount: 16})
	if err != nil {
		t.Fatal(err)
	}
	var clk vtime.Clock
	if n, err := sock.SendBatch([][]byte{make([]byte, 2049)}, &clk); n != 0 || !errors.Is(err, ErrTooBig) {
		t.Fatalf("sent %d, err = %v, want 0, ErrTooBig", n, err)
	}
	if free, _ := sock.TX.Free(); free != 64 || sock.UMem.FreeFrames() != 16 {
		t.Fatalf("refused frame consumed a slot or a frame: free=%d pool=%d", free, sock.UMem.FreeFrames())
	}
}

func TestSendExhaustsFramesThenRecovers(t *testing.T) {
	sp := mem.NewSpace(1<<20, 1<<22)
	s := validSetup(t, sp, 64, 2048, 4)
	sock, err := Attach(Config{Space: sp, Setup: s, RingSize: 64, FrameSize: 2048, FrameCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	var clk vtime.Clock
	frame := make([]byte, 512)
	for i := 0; i < 4; i++ {
		if err := send1(sock, frame, &clk); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := send1(sock, frame, &clk); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("err = %v, want ErrNoFrame", err)
	}
	// Kernel-side completion: consume xTX, produce xCompl.
	kTX, err := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: s.TXBase,
		Size: 64, EntrySize: DescBytes, Side: ring.Consumer})
	if err != nil {
		t.Fatal(err)
	}
	kCompl, err := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: s.ComplBase,
		Size: 64, EntrySize: FillEntryBytes, Side: ring.Producer})
	if err != nil {
		t.Fatal(err)
	}
	avail, _ := kTX.Available()
	for i := uint32(0); i < avail; i++ {
		slot, _ := kTX.SlotBytes(i)
		kCompl.WriteU64(i, GetDesc(slot).Addr)
	}
	kTX.Release(avail)
	kCompl.Submit(avail, 0)
	// Reap recycles the frames; sending works again.
	if n := sock.Reap(&clk); n != 4 {
		t.Fatalf("reaped %d, want 4", n)
	}
	if err := send1(sock, frame, &clk); err != nil {
		t.Fatalf("send after reap: %v", err)
	}
}

func TestRefillBoundedByRing(t *testing.T) {
	// More frames than ring slots: refill caps at ring capacity.
	sp := mem.NewSpace(1<<20, 1<<23)
	s := validSetup(t, sp, 64, 2048, 256)
	sock, err := Attach(Config{Space: sp, Setup: s, RingSize: 64, FrameSize: 2048, FrameCount: 256})
	if err != nil {
		t.Fatal(err)
	}
	var clk vtime.Clock
	if n := sock.Refill(&clk); n != 64 {
		t.Fatalf("refill = %d, want 64 (ring-bounded)", n)
	}
	if sock.UMem.FreeFrames() != 256-64 {
		t.Fatalf("pool = %d", sock.UMem.FreeFrames())
	}
	// A second refill with a full ring does nothing.
	if n := sock.Refill(&clk); n != 0 {
		t.Fatalf("second refill = %d, want 0", n)
	}
}

func TestRecvSkipsHostileDescriptors(t *testing.T) {
	sp := mem.NewSpace(1<<20, 1<<22)
	ctrs := &vtime.Counters{}
	// Ring smaller than the frame pool: frames 8..15 stay user-owned, so
	// a descriptor naming frame 15 is provably hostile.
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

	// The kernel consumes two fill entries; returns one hostile desc
	// (offset it never got) and one legitimate one.
	avail, _ := kFill.Available()
	if avail < 2 {
		t.Fatal("fill not stocked")
	}
	legit, _ := kFill.ReadU64(0)
	kFill.Release(2)
	slot, _ := kRX.SlotBytes(0)
	PutDesc(slot, Desc{Addr: 15 * 2048, Len: 100}) // frame 15: never handed out
	slot, _ = kRX.SlotBytes(1)
	payload, _ := sp.Bytes(mem.RoleHost, s.UMemBase+mem.Addr(legit), 4)
	copy(payload, "good")
	PutDesc(slot, Desc{Addr: legit, Len: 4})
	kRX.Submit(2, 0)

	// The receive refuses the hostile one and yields the legitimate frame.
	v, ok := recv1(sock, &clk)
	if !ok {
		t.Fatal("legitimate frame not delivered")
	}
	got, err := v.Snap(0, v.Len())
	if err != nil || string(got) != "good" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	if err := v.Release(); err != nil {
		t.Fatal(err)
	}
	if ctrs.UMemViolations.Load() != 1 {
		t.Fatalf("violations = %d, want 1", ctrs.UMemViolations.Load())
	}
	if !sock.UMem.InvariantHolds() {
		t.Fatal("invariant broken")
	}
}

// TestRecvSnapshotDefeatsDescriptorScribble pins the single-read
// discipline on the RX datapath. The enclave freezes a descriptor with
// SnapSlot, the host scribbles the live slot afterwards, and the frozen
// snapshot still decodes the fetched values while the live slot — what
// a read-it-again pattern would consult — has diverged. End to end,
// RecvViews then validates and uses the same frozen bytes: a descriptor
// scribbled hostile before the fetch is refused outright, never
// half-trusted.
func TestRecvSnapshotDefeatsDescriptorScribble(t *testing.T) {
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
	payload, _ := sp.Bytes(mem.RoleHost, s.UMemBase+mem.Addr(legit), 4)
	copy(payload, "good")
	slot, _ := kRX.SlotBytes(0)
	PutDesc(slot, Desc{Addr: legit, Len: 4})
	kRX.Submit(1, 0)

	// The enclave's single fetch freezes the descriptor.
	snap, err := sock.RX.SnapSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	if d := SnapDesc(snap); d.Len != 4 || d.Addr != legit {
		t.Fatalf("snapshot desc = %+v", d)
	}

	// Host scribbles the live slot after the fetch: the length now runs
	// past the frame, a classic validate-small-use-big rewrite.
	live, err := sp.Bytes(mem.RoleHost, sock.RX.SlotAddr(0), DescBytes)
	if err != nil {
		t.Fatal(err)
	}
	PutDesc(live, Desc{Addr: legit, Len: 5000})

	// The frozen snapshot is unchanged; the live slot is not. The old
	// pattern decoded the live view, so what validation certified and
	// what a later read trusted could differ — exactly this divergence.
	if d := SnapDesc(snap); d.Len != 4 {
		t.Fatalf("snapshot changed under scribble: %+v", d)
	}
	enclaveLive, _ := sp.Bytes(mem.RoleEnclave, sock.RX.SlotAddr(0), DescBytes)
	if d := GetDesc(enclaveLive); d.Len != 5000 {
		t.Fatalf("live desc = %+v, want scribbled Len 5000", d)
	}

	// The receive fetches once and validates what it fetched: the
	// scribbled descriptor is seen whole, refused whole, and never
	// half-used.
	if v, ok := recv1(sock, &clk); ok {
		t.Fatalf("recv accepted scribbled descriptor: %+v", v)
	}
	if ctrs.UMemViolations.Load() != 1 {
		t.Fatalf("violations = %d, want 1", ctrs.UMemViolations.Load())
	}
	if !sock.UMem.InvariantHolds() {
		t.Fatal("invariant broken")
	}
}
