// Package mm implements the Monitor Module (§4.3): a single dedicated
// thread running *outside* the enclave that watches the shared producer
// indices of the rings where RAKIS is the producer — xFill and xTX of
// every XSK, and iSub of every io_uring — and issues the residual
// syscalls (recvfrom, sendto, io_uring_enter) on the FastPath Modules'
// behalf, so no FM ever pays an enclave exit.
//
// The MM holds no trusted state and touches only untrusted memory; its
// failure affects availability, never integrity (§5: it is outside the
// TCB and excluded from the security analysis).
//
//rakis:role host
package mm

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rakis/internal/chaos"
	"rakis/internal/hostos"
	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

// watchKind selects the wakeup syscall for a ring.
type watchKind int

const (
	watchXskTX watchKind = iota
	watchXskFill
	watchUring
)

type watch struct {
	kind  watchKind
	fd    int
	prod  *atomic.Uint32
	flags *atomic.Uint32
	last  uint32

	// suppressed counts producer edges this watch consumed without
	// firing a wakeup syscall: fill edges the kernel never flagged
	// need-wakeup for, and any XSK edge absorbed while the busy-poll
	// worker owns the ring. Exported per shard (the tuner reads it per
	// queue; the aggregate alone cannot tell a hot shard from ten warm
	// ones).
	suppressed atomic.Uint64

	// issued counts wakeup syscalls this watch actually fired — the
	// per-shard half of the single-multiplexer story: one MM thread
	// serves every shard, and this shows which shard's flags it fired
	// for.
	issued atomic.Uint64
}

// Monitor is the Monitor Module thread.
type Monitor struct {
	proc *hostos.Proc
	clk  vtime.Clock

	// watches is never nil and is replaced copy-on-write (registrations
	// serialise on mu, which no sweep takes), as netstack's portMap is:
	// a sweep is one pointer load, no lock and no allocation.
	mu      sync.Mutex
	watches atomic.Pointer[[]*watch]

	// force requests one unconditional sweep: every watch fires its
	// wakeup syscall regardless of edge detection. This is the enclave's
	// exit-free recovery doorbell — a wakeup the host swallowed leaves
	// the producer index unchanged, so the normal edge-triggered sweep
	// would never re-fire it.
	force atomic.Bool

	// busyDesired is the wakeup mode the tuner asked for; busyApplied is
	// what the sweep has actually switched the kernel to. The MM applies
	// mode changes itself — it is the syscall proxy, so flipping kernel
	// busy-poll on or off costs a host-thread syscall, never an enclave
	// exit. While busy-poll is applied the sweep skips XSK watches
	// (the kernel worker drains those rings), absorbing their edges into
	// the per-shard suppressed counters.
	busyDesired atomic.Bool
	busyApplied atomic.Bool

	// Chaos, when non-nil, lets the fault injector stall or kill this
	// thread (§4.3: the MM is untrusted; its death may cost availability
	// only). Set it before Start.
	Chaos *chaos.Injector

	// Trace, when non-nil, receives one wakeup event per fired residual
	// syscall. Set it before Start.
	Trace *telemetry.Buf

	// Counters, when non-nil, records wakeup coalescing: nudges that
	// arrived while a forced sweep was already pending fold into it
	// instead of scheduling another. Set it before Start.
	Counters *vtime.Counters

	// bell is what the thread parks on between sweeps that fire nothing
	// (see Ring); sweeps counts loop passes, for tests.
	bell   *vtime.Bell
	sweeps atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// fallbackSweep bounds how long the parked monitor goes without a sweep:
// it is how the thread notices state the host changes without ringing,
// such as the kernel flagging fill need-wakeup after the last refill.
const fallbackSweep = time.Millisecond

// New creates a Monitor issuing syscalls through the given host process
// (which runs outside the enclave: its syscalls are not exits).
func New(proc *hostos.Proc) *Monitor {
	m := &Monitor{
		proc: proc,
		bell: vtime.NewBell(fallbackSweep),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	m.watches.Store(new([]*watch))
	return m
}

// Clock returns the monitor thread's virtual clock.
func (m *Monitor) Clock() *vtime.Clock { return &m.clk }

// WatchXSK registers both producer-side rings of an XSK: xTX (sendto
// wakeups) and xFill (recvfrom wakeups when the kernel flagged
// need-wakeup). The shared cells are read with host role — the MM lives
// outside the enclave.
func (m *Monitor) WatchXSK(space *mem.Space, setup xsk.Setup) error {
	txProd, err := space.Atomic32(mem.RoleHost, setup.TXBase)
	if err != nil {
		return err
	}
	fillProd, err := space.Atomic32(mem.RoleHost, setup.FillBase)
	if err != nil {
		return err
	}
	fillFlags, err := space.Atomic32(mem.RoleHost, setup.FillBase+8)
	if err != nil {
		return err
	}
	m.register(
		&watch{kind: watchXskTX, fd: setup.FD, prod: txProd},
		&watch{kind: watchXskFill, fd: setup.FD, prod: fillProd, flags: fillFlags},
	)
	return nil
}

// WatchUring registers an io_uring's iSub producer for io_uring_enter
// wakeups.
func (m *Monitor) WatchUring(space *mem.Space, setup iouring.Setup) error {
	prod, err := space.Atomic32(mem.RoleHost, setup.SubBase)
	if err != nil {
		return err
	}
	m.register(&watch{kind: watchUring, fd: setup.FD, prod: prod})
	return nil
}

// register publishes a fresh copy of the watch list with ws appended.
func (m *Monitor) register(ws ...*watch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := append(slices.Clone(*m.watches.Load()), ws...)
	m.watches.Store(&next)
}

// Start launches the monitor thread.
func (m *Monitor) Start() {
	go m.run()
}

// run sweeps until a sweep fires nothing, then parks on the bell. A
// spinning MM would see a producer's store almost at once; the bell gives
// the simulation that short detection delay without burning a core. A
// fallback sweep fires what any sweep fires — producer edges new since
// the last sweep, a pending Nudge, a set need-wakeup flag — so it cannot
// re-issue an io_uring_enter or sendto the host swallowed: recovering
// those stays the enclave's Waker ladder.
func (m *Monitor) run() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		if m.Chaos.MMKillNow() {
			// Fault site (c): the MM thread dies. Dead() flips true and
			// the enclave-side watchdog degrades to paid exits.
			return
		}
		m.Chaos.Stall(chaos.SiteMMStall).Sleep()
		m.sweeps.Add(1)
		if m.Sweep() == 0 {
			m.bell.Wait(m.stop)
		}
	}
}

// Ring asks the monitor thread to sweep now rather than at its next
// fallback sweep; the enclave's producers ring it after each publish to
// iSub, xFill and xTX. It never blocks and never allocates, so, like
// the store a spinning MM would notice, it costs the enclave no exit.
func (m *Monitor) Ring() { m.bell.Ring() }

// Nudge requests one forced sweep: the next pass issues every watched
// ring's wakeup syscall unconditionally. The enclave writes only this
// process-local flag — no syscall, no exit — making Nudge the free rung
// of the lost-wakeup recovery ladder.
//
// Duplicate pending nudges coalesce: while a forced sweep is already
// scheduled, further nudges (several threads escalating at once, or one
// thread climbing its backoff ladder faster than the sweep period) fold
// into it, so a nudge storm costs one sweep, not one sweep each.
func (m *Monitor) Nudge() {
	if m.force.Swap(true) && m.Counters != nil {
		m.Counters.WakeupsCoalesced.Add(1)
	}
	m.Ring()
}

// Dead reports whether the monitor thread has terminated (killed by
// chaos or closed). The enclave consults this to decide between nudging
// and paying direct exits.
func (m *Monitor) Dead() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// Sweep performs one pass over all watched rings, issuing wakeups where
// producers moved — or on every watch when a Nudge is pending, since a
// swallowed wakeup leaves the producer index exactly where the last
// (lost) firing recorded it. Exported so tests can drive the monitor
// deterministically; it takes no lock and allocates nothing.
func (m *Monitor) Sweep() int {
	force := m.force.Swap(false)
	watches := *m.watches.Load()
	m.applyMode(watches)
	busy := m.busyApplied.Load()
	fired := 0
	for _, w := range watches {
		p := w.prod.Load()
		if busy && (w.kind == watchXskTX || w.kind == watchXskFill) {
			// The kernel busy-poll worker owns the XSK rings: consume the
			// edge so a later mode switch back does not replay stale
			// producer movement as a wakeup burst, and book the syscall we
			// did not need to issue.
			if p != w.last || force {
				w.last = p
				w.suppressed.Add(1)
			}
			continue
		}
		switch w.kind {
		case watchXskTX:
			if p != w.last || force {
				w.last = p
				m.proc.XSKSendto(w.fd, &m.clk)
				m.Trace.Emit(telemetry.EvMMWakeup, m.clk.Now(), uint64(w.fd), 0)
				w.issued.Add(1)
				fired++
			}
		case watchXskFill:
			// Single fetch of the shared need-wakeup flag. The old shape
			// read w.flags.Load() in the outer edge test and again in the
			// inner firing test; a flag cleared between the two reads made
			// the pass enter the branch, consume the producer edge
			// (w.last = p), and then fire nothing — a lost recvfrom wakeup
			// the edge-triggered sweep never re-issues.
			needWake := w.flags.Load()&ring.FlagNeedWakeup != 0
			if p != w.last || force || needWake {
				w.last = p
				if force || needWake {
					m.proc.XSKRecvfrom(w.fd, &m.clk)
					m.Trace.Emit(telemetry.EvMMWakeup, m.clk.Now(), uint64(w.fd), 1)
					w.issued.Add(1)
					fired++
				} else {
					// Producer edge with the need-wakeup flag clear: the
					// kernel is still consuming, so the recvfrom was not
					// needed — the duplicate-wakeup coalescing this watch
					// exists for, now accounted per shard.
					w.suppressed.Add(1)
				}
			}
		case watchUring:
			if p != w.last || force {
				w.last = p
				m.proc.IoUringEnter(w.fd, &m.clk)
				m.Trace.Emit(telemetry.EvMMWakeup, m.clk.Now(), uint64(w.fd), 2)
				w.issued.Add(1)
				fired++
			}
		}
	}
	return fired
}

// RequestBusyPoll asks the monitor to switch every watched XSK to (or
// from) kernel busy-poll on its next sweep. The caller (the tuner, from
// inside the enclave) writes only this process-local flag — the actual
// setsockopt-style syscalls are issued by the MM thread, so a mode
// switch never costs an enclave exit. Untrusted like everything else
// here: a dead or stalled MM delays the switch, which costs cycles,
// never safety.
func (m *Monitor) RequestBusyPoll(on bool) {
	// The tuner asks on every step; only a change needs a sweep.
	if m.busyDesired.Swap(on) != on {
		m.Ring()
	}
}

// applyMode reconciles the applied wakeup mode with the requested one,
// issuing one busy-poll toggle per distinct XSK fd.
func (m *Monitor) applyMode(watches []*watch) {
	want := m.busyDesired.Load()
	if m.busyApplied.Load() == want {
		return
	}
	seen := make(map[int]bool)
	for _, w := range watches {
		if w.kind == watchUring || seen[w.fd] {
			continue
		}
		seen[w.fd] = true
		m.proc.XSKBusyPoll(w.fd, want, &m.clk)
	}
	m.busyApplied.Store(want)
}

// WatchStat is one watched ring's identity, suppression count, and
// issued-wakeup count.
type WatchStat struct {
	FD         int
	Kind       string
	Suppressed uint64
	Issued     uint64
}

// WatchStats returns a snapshot of every watch's per-shard suppression
// and issued-wakeup counters.
func (m *Monitor) WatchStats() []WatchStat {
	kinds := map[watchKind]string{watchXskTX: "tx", watchXskFill: "fill", watchUring: "uring"}
	watches := *m.watches.Load()
	out := make([]WatchStat, 0, len(watches))
	for _, w := range watches {
		out = append(out, WatchStat{FD: w.fd, Kind: kinds[w.kind], Suppressed: w.suppressed.Load(), Issued: w.issued.Load()})
	}
	return out
}

// Suppressed returns the total wakeups suppressed for one XSK fd (tx
// and fill watches summed) — the per-shard gauge the registry exports
// as mm.xsk<N>.wakeups_suppressed.
func (m *Monitor) Suppressed(fd int) uint64 {
	var n uint64
	for _, w := range *m.watches.Load() {
		if w.fd == fd {
			n += w.suppressed.Load()
		}
	}
	return n
}

// Wakeups returns the total wakeup syscalls actually issued for one fd
// (all its watches summed) — the per-shard gauge the registry exports
// as mm.xsk<N>.wakeups.
func (m *Monitor) Wakeups(fd int) uint64 {
	var n uint64
	for _, w := range *m.watches.Load() {
		if w.fd == fd {
			n += w.issued.Load()
		}
	}
	return n
}

// Close stops the monitor thread.
func (m *Monitor) Close() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}
