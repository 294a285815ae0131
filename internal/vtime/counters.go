package vtime

import (
	"fmt"
	"sync/atomic"
)

// Counters aggregates the observable event counts of one simulated
// environment run: enclave exits (Figure 2), syscalls, ring and UMem
// validation failures (Table 2 fail actions), and data-plane statistics.
type Counters struct {
	EnclaveExits   atomic.Uint64
	Syscalls       atomic.Uint64
	LibOSCalls     atomic.Uint64
	RingViolations atomic.Uint64
	UMemViolations atomic.Uint64
	CQEViolations  atomic.Uint64
	PacketsRx      atomic.Uint64
	PacketsTx      atomic.Uint64
	PacketsDropped atomic.Uint64
	BytesRx        atomic.Uint64
	BytesTx        atomic.Uint64
	IoUringOps     atomic.Uint64
	Wakeups        atomic.Uint64
	// Chaos-era counters: fault-injection accounting on the untrusted
	// side, and the hardened recovery paths they exercise on the
	// trusted side (see DESIGN.md, "Chaos testing").
	FaultsInjected atomic.Uint64
	WakeupRetries  atomic.Uint64
	SubmitRetries  atomic.Uint64
	FallbackExits  atomic.Uint64
	RingResyncs    atomic.Uint64
	PollCancels    atomic.Uint64
	// Batched fast-path counters: vectored calls taken, messages moved
	// through them, and MM wakeups that were folded into an already
	// pending nudge instead of firing their own syscall.
	BatchCalls       atomic.Uint64
	BatchedMsgs      atomic.Uint64
	WakeupsCoalesced atomic.Uint64
	// Zero-copy datapath counters: boundary-copy bytes the view/splice
	// paths avoided, and RX frames re-queued onto TX without a payload
	// copy (see DESIGN.md, "Zero-copy datapath").
	CopyBytesSaved atomic.Uint64
	SpliceFrames   atomic.Uint64
	// In-enclave TCP counters: stateless SYN cookies minted and
	// round-tripped by the enclave listen path, and segments refused
	// deterministically (invalid cookie, full accept queue, no matching
	// endpoint) — the confinement counters the SYN-flood gate asserts on.
	TCPCookiesSent     atomic.Uint64
	TCPCookiesAccepted atomic.Uint64
	TCPRefused         atomic.Uint64
}

// Snapshot is a plain-value copy of a Counters, safe to store and print.
type Snapshot struct {
	EnclaveExits   uint64
	Syscalls       uint64
	LibOSCalls     uint64
	RingViolations uint64
	UMemViolations uint64
	CQEViolations  uint64
	PacketsRx      uint64
	PacketsTx      uint64
	PacketsDropped uint64
	BytesRx        uint64
	BytesTx        uint64
	IoUringOps     uint64
	Wakeups        uint64
	FaultsInjected uint64
	WakeupRetries  uint64
	SubmitRetries  uint64
	FallbackExits  uint64
	RingResyncs    uint64
	PollCancels    uint64

	BatchCalls       uint64
	BatchedMsgs      uint64
	WakeupsCoalesced uint64

	CopyBytesSaved uint64
	SpliceFrames   uint64

	TCPCookiesSent     uint64
	TCPCookiesAccepted uint64
	TCPRefused         uint64
}

// Snapshot returns a point-in-time copy of the counters.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		EnclaveExits:   c.EnclaveExits.Load(),
		Syscalls:       c.Syscalls.Load(),
		LibOSCalls:     c.LibOSCalls.Load(),
		RingViolations: c.RingViolations.Load(),
		UMemViolations: c.UMemViolations.Load(),
		CQEViolations:  c.CQEViolations.Load(),
		PacketsRx:      c.PacketsRx.Load(),
		PacketsTx:      c.PacketsTx.Load(),
		PacketsDropped: c.PacketsDropped.Load(),
		BytesRx:        c.BytesRx.Load(),
		BytesTx:        c.BytesTx.Load(),
		IoUringOps:     c.IoUringOps.Load(),
		Wakeups:        c.Wakeups.Load(),
		FaultsInjected: c.FaultsInjected.Load(),
		WakeupRetries:  c.WakeupRetries.Load(),
		SubmitRetries:  c.SubmitRetries.Load(),
		FallbackExits:  c.FallbackExits.Load(),
		RingResyncs:    c.RingResyncs.Load(),
		PollCancels:    c.PollCancels.Load(),

		BatchCalls:       c.BatchCalls.Load(),
		BatchedMsgs:      c.BatchedMsgs.Load(),
		WakeupsCoalesced: c.WakeupsCoalesced.Load(),

		CopyBytesSaved: c.CopyBytesSaved.Load(),
		SpliceFrames:   c.SpliceFrames.Load(),

		TCPCookiesSent:     c.TCPCookiesSent.Load(),
		TCPCookiesAccepted: c.TCPCookiesAccepted.Load(),
		TCPRefused:         c.TCPRefused.Load(),
	}
}

// Sub returns the per-field difference s - prev.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		EnclaveExits:   s.EnclaveExits - prev.EnclaveExits,
		Syscalls:       s.Syscalls - prev.Syscalls,
		LibOSCalls:     s.LibOSCalls - prev.LibOSCalls,
		RingViolations: s.RingViolations - prev.RingViolations,
		UMemViolations: s.UMemViolations - prev.UMemViolations,
		CQEViolations:  s.CQEViolations - prev.CQEViolations,
		PacketsRx:      s.PacketsRx - prev.PacketsRx,
		PacketsTx:      s.PacketsTx - prev.PacketsTx,
		PacketsDropped: s.PacketsDropped - prev.PacketsDropped,
		BytesRx:        s.BytesRx - prev.BytesRx,
		BytesTx:        s.BytesTx - prev.BytesTx,
		IoUringOps:     s.IoUringOps - prev.IoUringOps,
		Wakeups:        s.Wakeups - prev.Wakeups,
		FaultsInjected: s.FaultsInjected - prev.FaultsInjected,
		WakeupRetries:  s.WakeupRetries - prev.WakeupRetries,
		SubmitRetries:  s.SubmitRetries - prev.SubmitRetries,
		FallbackExits:  s.FallbackExits - prev.FallbackExits,
		RingResyncs:    s.RingResyncs - prev.RingResyncs,
		PollCancels:    s.PollCancels - prev.PollCancels,

		BatchCalls:       s.BatchCalls - prev.BatchCalls,
		BatchedMsgs:      s.BatchedMsgs - prev.BatchedMsgs,
		WakeupsCoalesced: s.WakeupsCoalesced - prev.WakeupsCoalesced,

		CopyBytesSaved: s.CopyBytesSaved - prev.CopyBytesSaved,
		SpliceFrames:   s.SpliceFrames - prev.SpliceFrames,

		TCPCookiesSent:     s.TCPCookiesSent - prev.TCPCookiesSent,
		TCPCookiesAccepted: s.TCPCookiesAccepted - prev.TCPCookiesAccepted,
		TCPRefused:         s.TCPRefused - prev.TCPRefused,
	}
}

// String renders every counter of the snapshot as a compact single-line
// summary (TestEveryCounterIsCarriedEverywhere in internal/telemetry
// holds it to "every").
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"exits=%d syscalls=%d libos=%d ringviol=%d umemviol=%d cqeviol=%d"+
			" rx=%d tx=%d drop=%d rxbytes=%d txbytes=%d uring=%d wake=%d"+
			" faults=%d wretry=%d sretry=%d fbexit=%d resync=%d pollcancel=%d"+
			" batch=%d batchmsg=%d wcoalesce=%d"+
			" zcsaved=%d splice=%d"+
			" cookiesent=%d cookieok=%d tcprefused=%d",
		s.EnclaveExits, s.Syscalls, s.LibOSCalls, s.RingViolations, s.UMemViolations, s.CQEViolations,
		s.PacketsRx, s.PacketsTx, s.PacketsDropped, s.BytesRx, s.BytesTx, s.IoUringOps, s.Wakeups,
		s.FaultsInjected, s.WakeupRetries, s.SubmitRetries,
		s.FallbackExits, s.RingResyncs, s.PollCancels,
		s.BatchCalls, s.BatchedMsgs, s.WakeupsCoalesced,
		s.CopyBytesSaved, s.SpliceFrames,
		s.TCPCookiesSent, s.TCPCookiesAccepted, s.TCPRefused)
}
