package vtime

// Model holds the cycle-cost constants of the simulated machine. The
// defaults model the paper's testbed: an Intel Xeon Gold 6312U at 2.4 GHz
// with a 25 Gbps NIC pair wired in loopback. All values are CPU cycles
// unless stated otherwise; per-byte values are cycles per byte.
//
// The constants were calibrated (see internal/experiments/calibrate_test.go)
// so that the relative results of the six evaluation workloads land inside
// the bands the paper reports; absolute values are simulator output, not
// testbed measurements.
type Model struct {
	// GHz is the simulated core frequency used to convert cycles to
	// seconds for reporting.
	GHz float64

	// LinkGbps is the NIC link capacity; the wire resource serializes
	// frames at this rate.
	LinkGbps float64

	// Syscall is the cost of entering and leaving the kernel for one
	// system call, excluding the work the call performs.
	Syscall uint64

	// EnclaveExit is the full cost of an SGX enclave exit and re-entry
	// (EEXIT + OCALL dispatch + EENTER), the >=8200-cycle figure from
	// Weisse et al. that the paper cites, plus marshalling overhead.
	EnclaveExit uint64

	// EnclaveStartupExits is the number of enclave exits charged at
	// process startup in SGX modes (enclave creation, loading, and the
	// LibOS boot syscalls), visible in the Figure 2 baseline.
	EnclaveStartupExits uint64

	// LibOSCall is the in-enclave LibOS syscall-interception and
	// emulation overhead paid on every syscall in Gramine modes.
	LibOSCall uint64

	// BoundaryCopyPerByte is the cost of copying one byte between
	// encrypted enclave memory and shared untrusted memory.
	BoundaryCopyPerByte float64

	// KernelCopyPerByte is the cost of an in-kernel copy (NIC buffer to
	// socket buffer, user buffer to page cache, ...).
	KernelCopyPerByte float64

	// UserCopyPerByte is the cost of a copy_to_user/copy_from_user byte.
	UserCopyPerByte float64

	// NicPerFrame is the per-frame DMA/descriptor cost on the NIC.
	NicPerFrame uint64

	// XdpRun is the cost of running the attached XDP program on a frame.
	XdpRun uint64

	// XskKernelPerFrame is the kernel-side cost of moving one frame
	// through an XSK ring pair (consume fill + produce rx, or consume tx
	// + produce completion), excluding byte copies.
	XskKernelPerFrame uint64

	// KernelNetPerPacket is the kernel network-stack cost (eth + IP +
	// UDP demux, or the reverse) for one packet on the regular path.
	KernelNetPerPacket uint64

	// KernelTCPPerSegment is the kernel TCP cost per segment
	// (congestion/window bookkeeping, ACK processing).
	KernelTCPPerSegment uint64

	// SocketOp is the in-kernel socket-layer cost of one send/recv
	// operation excluding stack traversal and copies.
	SocketOp uint64

	// VfsOp is the in-kernel filesystem cost of one read/write call
	// excluding byte copies.
	VfsOp uint64

	// PollPerFD is the kernel cost of examining one file descriptor in
	// poll/select.
	PollPerFD uint64

	// IoUringDispatch is the kernel-side cost of consuming one SQE,
	// dispatching the operation, and producing its CQE, excluding the
	// operation itself.
	IoUringDispatch uint64

	// IoUringWakeLatency is the virtual-time lag between a producer
	// advancing iSub and the kernel worker picking the request up (the
	// Monitor Module poll period plus kernel scheduling). This is the
	// asynchronous-wait overhead §6.2 attributes RAKIS's fstime gap to.
	IoUringWakeLatency uint64

	// XskWakeLatency is the equivalent lag for an xTX drain started by
	// the Monitor Module's sendto wakeup: each woken frame is transmitted
	// no earlier than its publish stamp plus this lag. The busy-poll
	// worker wakes nothing and books the gap as spin, so it does not pay
	// it. The recvfrom (xFill) wakeup pays none either: it only clears
	// need-wakeup, and frames that arrived while the flag was set were
	// dropped (§4.1 QoS), so no stamped frame waits on it.
	XskWakeLatency uint64

	// RingOp is the RAKIS certified-ring cost of one produce or consume
	// batch operation, including the Table 2 validation.
	RingOp uint64

	// UMemOp is the cost of one UMem frame allocation, release, or
	// ownership validation.
	UMemOp uint64

	// FMPerPacket is the FastPath Module bookkeeping cost per packet.
	FMPerPacket uint64

	// EnclaveStackPerPacket is the trimmed in-enclave UDP/IP stack cost
	// per packet (the paper's 5K-LoC LWIP cut).
	EnclaveStackPerPacket uint64

	// APIHook is the Service Module API-submodule cost of intercepting
	// and routing one syscall inside the enclave.
	APIHook uint64

	// SyncProxyOp is the SyncProxy cost of forwarding one synchronous
	// request to an io_uring FM and parking until completion.
	SyncProxyOp uint64
}

// Default returns the calibrated cost model described in DESIGN.md.
func Default() *Model {
	return &Model{
		GHz:                   2.4,
		LinkGbps:              25.0,
		Syscall:               950,
		EnclaveExit:           8800,
		EnclaveStartupExits:   42,
		LibOSCall:             450,
		BoundaryCopyPerByte:   0.15,
		KernelCopyPerByte:     0.10,
		UserCopyPerByte:       0.05,
		NicPerFrame:           60,
		XdpRun:                120,
		XskKernelPerFrame:     180,
		KernelNetPerPacket:    600,
		KernelTCPPerSegment:   800,
		SocketOp:              250,
		VfsOp:                 250,
		PollPerFD:             120,
		IoUringDispatch:       350,
		IoUringWakeLatency:    1500,
		XskWakeLatency:        1200,
		RingOp:                40,
		UMemOp:                25,
		FMPerPacket:           120,
		EnclaveStackPerPacket: 350,
		APIHook:               120,
		SyncProxyOp:           150,
	}
}

// Bytes converts a per-byte cost rate into whole cycles for n bytes.
func Bytes(rate float64, n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(rate * float64(n))
}

// WireCycles returns the serialization time of a frame of n bytes on the
// link, in cycles, including a minimal Ethernet overhead of 24 bytes
// (preamble + FCS + IFG).
func (m *Model) WireCycles(n int) uint64 {
	bits := float64(n+24) * 8
	seconds := bits / (m.LinkGbps * 1e9)
	return uint64(seconds * m.GHz * 1e9)
}

// Seconds converts cycles to seconds at the model's clock rate.
func (m *Model) Seconds(cycles uint64) float64 {
	return float64(cycles) / (m.GHz * 1e9)
}

// Cycles converts seconds to cycles at the model's clock rate.
func (m *Model) Cycles(seconds float64) uint64 {
	return uint64(seconds * m.GHz * 1e9)
}
