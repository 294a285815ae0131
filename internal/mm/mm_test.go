package mm

import (
	"sync/atomic"
	"testing"
	"time"

	"rakis/internal/chaos"
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
	// Nobody rings its bell, so the fallback sweep must catch the advance:
	// one fallback period is the expected wait, and the bound leaves room
	// for a loaded host.
	start := time.Now()
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
	if d := time.Since(start); d > 500*fallbackSweep {
		t.Errorf("an unrung advance took %v, fallback is %v", d, fallbackSweep)
	}
}

// watchedUring sets up one io_uring with the given waker and registers
// it with mon; it returns the enclave's ring and the ring's fd.
func (f *fixture) watchedUring(t *testing.T, mon *Monitor, ctrs *vtime.Counters, w iouring.Waker) (*iouring.Ring, int) {
	t.Helper()
	var clk vtime.Clock
	setup, err := f.proc.IoUringSetup(8, &clk)
	if err != nil {
		t.Fatal(err)
	}
	r, err := iouring.Attach(iouring.Config{Space: f.kern.Space, Setup: setup, Entries: 8, Counters: ctrs, Waker: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.WatchUring(f.kern.Space, setup); err != nil {
		t.Fatal(err)
	}
	return r, setup.FD
}

// eventually polls cond for up to five seconds and fails the test
// naming what never happened.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
	}
}

// parked starts mon and returns once it has swept at least once and had
// time to park on its bell.
func parked(t *testing.T, mon *Monitor) {
	t.Helper()
	mon.Start()
	t.Cleanup(mon.Close)
	eventually(t, "a first sweep", func() bool { return mon.sweeps.Load() > 0 })
	time.Sleep(2 * time.Millisecond)
}

// TestRungAdvanceFiresAtOnce: a producer advance that rings the bell is
// swept at once. The fallback is pushed out to an hour, so only the ring
// can have woken the parked monitor.
func TestRungAdvanceFiresAtOnce(t *testing.T) {
	f := newFixture(t)
	mon := New(f.proc)
	mon.bell = vtime.NewBell(time.Hour)
	r, fd := f.watchedUring(t, mon, nil, iouring.Waker{Bell: mon.Ring})
	parked(t, mon)
	var clk vtime.Clock
	if _, err := r.Submit(iouring.SQE{Op: iouring.OpNop}, &clk); err != nil {
		t.Fatal(err)
	}
	eventually(t, "io_uring_enter after a rung advance", func() bool { return mon.Wakeups(fd) == 1 })
}

// TestIdleMonitorSweepsAtFallbackRate: parked with nothing to do, the
// monitor sweeps once per fallback period at most — a timer never fires
// early and each park starts a full period — where a 5 µs sleep loop
// swept about 200k times a second.
func TestIdleMonitorSweepsAtFallbackRate(t *testing.T) {
	f := newFixture(t)
	mon := New(f.proc)
	f.watchedUring(t, mon, nil, iouring.Waker{})
	parked(t, mon)
	s0, t0 := mon.sweeps.Load(), time.Now()
	time.Sleep(50 * time.Millisecond)
	n, window := mon.sweeps.Load()-s0, time.Since(t0)
	if limit := uint64(window/fallbackSweep) + 1; n > limit {
		t.Fatalf("idle monitor swept %d times in %v, want at most %d", n, window, limit)
	}
}

// TestCloseWhileParked: Close wakes a parked monitor at once, even with
// no fallback due for an hour.
func TestCloseWhileParked(t *testing.T) {
	f := newFixture(t)
	mon := New(f.proc)
	mon.bell = vtime.NewBell(time.Hour)
	f.watchedUring(t, mon, nil, iouring.Waker{})
	parked(t, mon)
	closed := make(chan struct{})
	go func() {
		mon.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while the monitor was parked")
	}
	if !mon.Dead() {
		t.Fatal("a closed monitor must report dead")
	}
}

// TestFallbackNeverRefiresADroppedEnter: the host swallows the first
// io_uring_enter. Fallback sweeps see no new edge and stay silent — a
// fallback that re-fired would mask the loss — so the completion arrives
// only once the enclave's Waker ladder nudges.
func TestFallbackNeverRefiresADroppedEnter(t *testing.T) {
	prof := chaos.Profile{Name: "drop-once", Prob: map[chaos.Site]float64{chaos.SiteWakeDrop: 0.5}, DisableKernelScan: true}
	seed := uint64(1)
	for ; ; seed++ {
		// Only wake-drop is armed, so the injector's first two draws
		// decide the first two wakeups: drop, then deliver.
		probe := chaos.New(prof, seed, nil, nil)
		if probe.WakeDrop() && !probe.WakeDrop() {
			break
		}
	}
	f := newFixture(t)
	inj := chaos.New(prof, seed, f.kern.Space, nil)
	f.kern.Chaos = inj
	mon := New(f.proc)
	ctrs := &vtime.Counters{}
	r, fd := f.watchedUring(t, mon, ctrs, iouring.Waker{Nudge: mon.Nudge, Dead: mon.Dead, Bell: mon.Ring})
	parked(t, mon)

	var clk vtime.Clock
	tok, err := r.Submit(iouring.SQE{Op: iouring.OpNop}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the first io_uring_enter", func() bool { return mon.Wakeups(fd) == 1 })
	s0 := mon.sweeps.Load()
	eventually(t, "three fallback sweeps", func() bool { return mon.sweeps.Load() >= s0+3 })
	if n := mon.Wakeups(fd); n != 1 {
		t.Fatalf("fallback sweeps re-fired the dropped enter: %d wakeups", n)
	}
	if got := inj.Counts()["wake-drop"]; got != 1 {
		t.Fatalf("wake-drop fired %d times, want 1", got)
	}
	if _, done, _ := r.TryWait(tok, &clk); done {
		t.Fatal("completed although its only io_uring_enter was dropped")
	}
	if res, err := r.Wait(tok, &clk); err != nil || res != 0 {
		t.Fatalf("nop result %d, %v", res, err)
	}
	if ctrs.WakeupRetries.Load() == 0 {
		t.Fatal("completed without a Waker nudge")
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
