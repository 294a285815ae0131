package mm

import (
	"sync/atomic"
	"testing"
	"time"

	"rakis/internal/hostos"
	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/netsim"
	"rakis/internal/netstack"
	"rakis/internal/ring"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

type fixture struct {
	kern *hostos.Kernel
	ns   *hostos.NetNS
	proc *hostos.Proc
	ctrs *vtime.Counters
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	m := vtime.Default()
	kern := hostos.NewKernel(mem.NewSpace(1<<20, 1<<24), m)
	a, b := netsim.NewPair(m, netsim.Config{Name: "a"}, netsim.Config{Name: "b"})
	ns, err := kern.AddNetNS("a", a, netstack.IP4{10, 0, 0, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kern.AddNetNS("b", b, netstack.IP4{10, 0, 0, 2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(kern.Close)
	ctrs := &vtime.Counters{}
	return &fixture{kern: kern, ns: ns, proc: kern.NewProc(ns, ctrs), ctrs: ctrs}
}

func TestMonitorFiresUringEnter(t *testing.T) {
	f := newFixture(t)
	var clk vtime.Clock
	setup, err := f.proc.IoUringSetup(8, &clk)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := iouring.Attach(iouring.Config{Space: f.kern.Space, Setup: setup, Entries: 8})
	if err != nil {
		t.Fatal(err)
	}

	mon := New(f.proc)
	if err := mon.WatchUring(f.kern.Space, setup); err != nil {
		t.Fatal(err)
	}
	// No producer movement: sweep fires nothing — and, as it runs every
	// few microseconds for the life of the enclave, allocates nothing.
	if n := mon.Sweep(); n != 0 {
		t.Fatalf("idle sweep fired %d", n)
	}
	if n := testing.AllocsPerRun(100, func() { mon.Sweep() }); n != 0 {
		t.Fatalf("idle sweep allocates %v times", n)
	}
	// Submit a NOP; the sweep must notice and issue io_uring_enter.
	tok, err := fm.Submit(iouring.SQE{Op: iouring.OpNop}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	if n := mon.Sweep(); n != 1 {
		t.Fatalf("sweep fired %d, want 1", n)
	}
	if res, err := fm.Wait(tok, &clk); err != nil || res != 0 {
		t.Fatalf("nop result %d, %v", res, err)
	}
	// Same producer value again: no duplicate wakeup.
	if n := mon.Sweep(); n != 0 {
		t.Fatal("sweep must not refire without producer movement")
	}
}

func TestMonitorFiresXSKWakeups(t *testing.T) {
	f := newFixture(t)
	var clk vtime.Clock
	res, err := f.proc.XSKSetup(f.ns, 0, 64, 2048, 64, &clk)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := xsk.Attach(xsk.Config{
		Space: f.kern.Space, Setup: res.Setup,
		RingSize: 64, FrameSize: 2048, FrameCount: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := New(f.proc)
	if err := mon.WatchXSK(f.kern.Space, res.Setup); err != nil {
		t.Fatal(err)
	}

	// A TX produce must trigger sendto; the frame reaches the wire.
	frame := make([]byte, 64)
	if n, err := sock.SendBatch([][]byte{frame}, &clk); err != nil || n != 1 {
		t.Fatalf("sent %d, %v", n, err)
	}
	before := f.ctrs.Wakeups.Load()
	if n := mon.Sweep(); n != 1 {
		t.Fatalf("TX sweep fired %d, want 1", n)
	}
	if f.ctrs.Wakeups.Load() != before+1 {
		t.Fatal("sendto wakeup not issued")
	}

	// Setting need-wakeup on the fill ring triggers recvfrom.
	sock.Fill.SetFlags(ring.FlagNeedWakeup)
	sock.Refill(&clk) // move the producer so the watch notices
	if n := mon.Sweep(); n != 1 {
		t.Fatalf("fill sweep fired %d, want 1", n)
	}
	if sock.Fill.Flags() != 0 {
		t.Fatal("recvfrom wakeup must clear need-wakeup")
	}
}

func TestMonitorRunsAsThread(t *testing.T) {
	f := newFixture(t)
	var clk vtime.Clock
	setup, err := f.proc.IoUringSetup(8, &clk)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := iouring.Attach(iouring.Config{Space: f.kern.Space, Setup: setup, Entries: 8})
	if err != nil {
		t.Fatal(err)
	}
	mon := New(f.proc)
	mon.WatchUring(f.kern.Space, setup)
	mon.Start()
	defer mon.Close()

	// Submit and rely on the background monitor alone for the wakeup.
	tok, _ := fm.Submit(iouring.SQE{Op: iouring.OpNop}, &clk)
	done := make(chan struct{})
	go func() {
		fm.Wait(tok, &clk)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("monitor never woke the kernel")
	}
}

// oldFillSweep replicates the pre-single-fetch shape of the
// watchXskFill pass: the shared need-wakeup flag was loaded once in the
// edge test and again in the firing test. between runs after the first
// load — the window in which the host (or a concurrent servicing path)
// can rewrite the flag.
func oldFillSweep(w *watch, force bool, between func()) bool {
	p := w.prod.Load()
	if p != w.last || force || w.flags.Load()&ring.FlagNeedWakeup != 0 {
		w.last = p
		between()
		if force || w.flags.Load()&ring.FlagNeedWakeup != 0 {
			return true
		}
	}
	return false
}

// TestSweepSingleFetchOfNeedWakeupFlag pins the double-fetch fix in
// Sweep's fill-ring pass. The old shape could enter the branch because
// the flag was set, lose the flag to a mid-decision rewrite, consume
// the producer edge, and fire nothing — a recvfrom wakeup lost until an
// unrelated event re-arms the edge. The fixed pass samples the flag
// once, so a sampled-set flag always fires.
func TestSweepSingleFetchOfNeedWakeupFlag(t *testing.T) {
	var prod, flags atomic.Uint32
	w := &watch{kind: watchXskFill, fd: 3, prod: &prod, flags: &flags}

	// The exploit interleaving against the old shape: flag set and a
	// fresh producer edge, flag scribbled clear between the two loads.
	prod.Store(5)
	flags.Store(ring.FlagNeedWakeup)
	if oldFillSweep(w, false, func() { flags.Store(0) }) {
		t.Fatal("replica fired; the lost-wakeup interleaving should suppress it")
	}
	if w.last != 5 {
		t.Fatalf("replica left last=%d; the edge must be consumed for the loss", w.last)
	}
	// The edge is gone and the flag reads clear: later passes stay
	// silent even though the wakeup was never issued.
	if oldFillSweep(w, false, func() {}) {
		t.Fatal("replica refired without an edge")
	}

	// The fixed Sweep cannot lose that race: the flag is fetched once,
	// and a sampled-set flag fires unconditionally.
	f := newFixture(t)
	var clk vtime.Clock
	res, err := f.proc.XSKSetup(f.ns, 0, 64, 2048, 64, &clk)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := xsk.Attach(xsk.Config{
		Space: f.kern.Space, Setup: res.Setup,
		RingSize: 64, FrameSize: 2048, FrameCount: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := New(f.proc)
	if err := mon.WatchXSK(f.kern.Space, res.Setup); err != nil {
		t.Fatal(err)
	}
	if n := mon.Sweep(); n != 0 {
		t.Fatalf("idle sweep fired %d", n)
	}
	// Need-wakeup with no producer movement must still fire recvfrom:
	// the single sampled flag is both the branch reason and the firing
	// reason.
	sock.Fill.SetFlags(ring.FlagNeedWakeup)
	before := f.ctrs.Wakeups.Load()
	if n := mon.Sweep(); n != 1 {
		t.Fatalf("need-wakeup sweep fired %d, want 1", n)
	}
	if f.ctrs.Wakeups.Load() != before+1 {
		t.Fatal("recvfrom wakeup not issued")
	}
}
