// Package libos simulates a Gramine-like SGX library OS (§2.2): the
// intermediary layer that lets unmodified applications run inside an
// enclave by intercepting their syscalls.
//
// Three modes correspond to the paper's baseline environments:
//
//   - Native: syscalls go straight to the host kernel.
//   - Direct (Gramine-Direct): the LibOS intercepts and handles each
//     syscall, then calls the host — LibOS overhead but no enclave exits.
//   - SGX (Gramine-SGX): every host syscall is an OCALL — arguments are
//     copied to untrusted memory, the enclave exits (~8,200+ cycles), the
//     host performs the syscall, the enclave re-enters and copies results
//     back. Exits are counted; they are Figure 2's subject.
//
// Some syscalls are emulated entirely inside the enclave. Like Gramine,
// this LibOS handles futex wake/wait sequences without a host syscall
// when possible, which is the §6.1 observation that Gramine-Direct can
// beat Native on lock-heavy workloads.
package libos

import (
	"time"

	"rakis/internal/hostos"
	"rakis/internal/sys"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// Mode selects the execution environment.
type Mode int

const (
	// Native runs on the host kernel directly.
	Native Mode = iota
	// Direct runs under the LibOS outside SGX (Gramine-Direct).
	Direct
	// SGX runs under the LibOS inside an enclave (Gramine-SGX).
	SGX
)

// String returns the environment name as used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Native:
		return "Native"
	case Direct:
		return "Gramine-Direct"
	default:
		return "Gramine-SGX"
	}
}

// Process is one application instance under the LibOS.
type Process struct {
	proc     *hostos.Proc
	mode     Mode
	model    *vtime.Model
	counters *vtime.Counters
	sink     *telemetry.Sink

	// exitRes models the serial portion of SGX enclave transitions:
	// EEXIT/EENTER flush TLBs and contend on the EPC, so concurrent
	// OCALLs from many threads do not scale linearly. Single-threaded
	// exit patterns pass through unqueued (the resource's utilization
	// guard); only a multi-threaded exit storm — the Gramine-SGX
	// memcached case — saturates it.
	exitRes vtime.Resource
}

// NewProcess boots a process in the given mode. In SGX mode the enclave
// creation and LibOS boot exits are charged immediately (the HelloWorld
// baseline of Figure 2).
func NewProcess(proc *hostos.Proc, mode Mode, counters *vtime.Counters) *Process {
	p := &Process{
		proc:     proc,
		mode:     mode,
		model:    proc.Kernel().Model,
		counters: counters,
	}
	if mode == SGX && counters != nil {
		counters.EnclaveExits.Add(p.model.EnclaveStartupExits)
	}
	return p
}

// Mode returns the process's environment mode.
func (p *Process) Mode() Mode { return p.mode }

// SetTelemetry attaches a telemetry sink: threads created afterwards get
// a span probe bound to their clock. Call before NewThread.
func (p *Process) SetTelemetry(s *telemetry.Sink) { p.sink = s }

// Telemetry returns the attached sink (nil when telemetry is off).
func (p *Process) Telemetry() *telemetry.Sink { return p.sink }

// HostProc exposes the underlying host process (for environment setup).
func (p *Process) HostProc() *hostos.Proc { return p.proc }

// NewThread returns the syscall interface for one application thread.
func (p *Process) NewThread() *Thread {
	t := &Thread{p: p}
	if p.sink != nil {
		t.probe = p.sink.NewProbe(p.sink.ProbeLabel("app"), &t.clk)
	}
	return t
}

// Thread is one application thread's syscall interface.
type Thread struct {
	p     *Process
	clk   vtime.Clock
	probe *telemetry.Probe
}

var _ sys.Sys = (*Thread)(nil)

// Clock returns the thread's virtual clock.
func (t *Thread) Clock() *vtime.Clock { return &t.clk }

// Probe returns the thread's telemetry probe (nil when telemetry is
// off). RAKIS threads share it so a fallback call folds into the span
// opened at the API hook.
func (t *Thread) Probe() *telemetry.Probe { return t.probe }

// Clone creates a sibling thread (with its own probe, when attached).
func (t *Thread) Clone() sys.Sys { return t.p.NewThread() }

// AdviseBatch reports 1: the Gramine/Native baselines have no tuner. The
// RAKIS runtime overrides this with the live tuner width; here it only
// gives batching-aware workloads one question to ask everywhere.
func (t *Thread) AdviseBatch() int { return 1 }

// libosEntry charges the in-enclave syscall interception cost.
func (t *Thread) libosEntry() {
	if t.p.mode == Native {
		return
	}
	t.clk.Charge(vtime.CompAPI, t.p.model.LibOSCall)
	if t.p.counters != nil {
		t.p.counters.LibOSCalls.Add(1)
	}
}

// ocall charges one enclave exit plus the boundary copies for nbytes of
// payload crossing the trust boundary. Half of the exit cost is the
// serial hardware-transition portion, shared across the process.
func (t *Thread) ocall(nbytes int) {
	if t.p.mode != SGX {
		return
	}
	if t.p.counters != nil {
		t.p.counters.EnclaveExits.Add(1)
	}
	serial := t.p.model.EnclaveExit / 2
	t.clk.SyncAs(t.p.exitRes.Use(t.clk.Now(), serial), vtime.CompExit)
	t.clk.Charge(vtime.CompExit, t.p.model.EnclaveExit-serial)
	if nbytes > 0 {
		t.clk.Charge(vtime.CompCopy, vtime.Bytes(t.p.model.BoundaryCopyPerByte, nbytes))
	}
	t.probe.Emit(telemetry.EvEnclaveExit, t.clk.Now(), serial, uint64(nbytes))
}

// resultCopy charges the copy of n result bytes crossing back into the
// enclave after an OCALL.
func (t *Thread) resultCopy(n int) {
	if n <= 0 || t.p.mode != SGX {
		return
	}
	t.clk.Charge(vtime.CompCopy, vtime.Bytes(t.p.model.BoundaryCopyPerByte, n))
	t.probe.Emit(telemetry.EvBoundaryCopy, t.clk.Now(), uint64(n), 1)
}

// --- sockets ----------------------------------------------------------------

// Socket creates a socket.
func (t *Thread) Socket(typ sys.SockType) (int, error) {
	t.probe.Begin(telemetry.SpanSocket)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	st := hostos.SockUDP
	if typ == sys.TCP {
		st = hostos.SockTCP
	}
	return t.p.proc.Socket(st, &t.clk)
}

// Bind assigns the local port.
func (t *Thread) Bind(fd int, port uint16) error {
	t.probe.Begin(telemetry.SpanBind)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.Bind(fd, port, &t.clk)
}

// Connect connects a socket.
func (t *Thread) Connect(fd int, addr sys.Addr) error {
	t.probe.Begin(telemetry.SpanConnect)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.Connect(fd, addr, &t.clk)
}

// Listen marks a TCP socket as accepting.
func (t *Thread) Listen(fd int, backlog int) error {
	t.probe.Begin(telemetry.SpanListen)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.Listen(fd, backlog, &t.clk)
}

// Accept waits for a connection.
func (t *Thread) Accept(fd int, block bool) (int, sys.Addr, error) {
	t.probe.Begin(telemetry.SpanAccept)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.Accept(fd, &t.clk, block)
}

// SendTo transmits a datagram.
func (t *Thread) SendTo(fd int, p []byte, addr sys.Addr) (int, error) {
	t.probe.Begin(telemetry.SpanSendTo)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(len(p))
	return t.p.proc.SendTo(fd, p, addr, &t.clk)
}

// RecvFrom receives a datagram.
func (t *Thread) RecvFrom(fd int, p []byte, block bool) (int, sys.Addr, error) {
	t.probe.Begin(telemetry.SpanRecvFrom)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	n, src, err := t.p.proc.RecvFrom(fd, p, &t.clk, block)
	// Result payload crosses back into the enclave.
	t.resultCopy(n)
	return n, src, err
}

// SendToN transmits up to len(msgs) datagrams in one vectored call
// (sendmmsg): one LibOS interception and one OCALL — one enclave exit in
// SGX mode — cover the whole batch, with every payload crossing the
// boundary under that single exit. This is the batched amortization of
// the Figure 2 exit cost.
func (t *Thread) SendToN(fd int, msgs []sys.Mmsg) (int, error) {
	t.probe.Begin(telemetry.SpanSendToN)
	defer t.probe.End()
	t.libosEntry()
	total := 0
	for i := range msgs {
		total += len(msgs[i].Buf)
	}
	t.ocall(total)
	sent := 0
	var firstErr error
	for i := range msgs {
		n, err := t.p.proc.SendTo(fd, msgs[i].Buf, msgs[i].Addr, &t.clk)
		if err != nil {
			firstErr = err
			break
		}
		msgs[i].N = n
		sent++
	}
	if t.p.counters != nil {
		t.p.counters.BatchCalls.Add(1)
		t.p.counters.BatchedMsgs.Add(uint64(sent))
	}
	if sent == 0 {
		return 0, firstErr
	}
	return sent, nil
}

// RecvFromN receives up to len(msgs) datagrams in one vectored call
// (recvmmsg): one LibOS interception and one OCALL cover the batch, and
// the results cross back into the enclave in one copy. Blocking, when
// requested, applies only to the first message; the rest drain whatever
// is already queued.
func (t *Thread) RecvFromN(fd int, msgs []sys.Mmsg, block bool) (int, error) {
	t.probe.Begin(telemetry.SpanRecvFromN)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	got := 0
	total := 0
	var firstErr error
	for i := range msgs {
		n, src, err := t.p.proc.RecvFrom(fd, msgs[i].Buf, &t.clk, block && got == 0)
		if err != nil {
			firstErr = err
			break
		}
		msgs[i].N = n
		msgs[i].Addr = src
		total += n
		got++
	}
	t.resultCopy(total)
	if t.p.counters != nil {
		t.p.counters.BatchCalls.Add(1)
		t.p.counters.BatchedMsgs.Add(uint64(got))
	}
	if got == 0 {
		return 0, firstErr
	}
	return got, nil
}

// Send writes stream data.
func (t *Thread) Send(fd int, p []byte) (int, error) {
	t.probe.Begin(telemetry.SpanSend)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(len(p))
	return t.p.proc.Send(fd, p, &t.clk)
}

// Recv reads stream data.
func (t *Thread) Recv(fd int, p []byte, block bool) (int, error) {
	t.probe.Begin(telemetry.SpanRecv)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	n, err := t.p.proc.Recv(fd, p, &t.clk, block)
	t.resultCopy(n)
	return n, err
}

// --- files ------------------------------------------------------------------

// Open opens a file.
func (t *Thread) Open(path string, flags int) (int, error) {
	t.probe.Begin(telemetry.SpanOpen)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(len(path))
	return t.p.proc.Open(path, flags, &t.clk)
}

// Read reads at the cursor.
func (t *Thread) Read(fd int, p []byte) (int, error) {
	t.probe.Begin(telemetry.SpanRead)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	n, err := t.p.proc.Read(fd, p, &t.clk)
	t.resultCopy(n)
	return n, err
}

// Write writes at the cursor.
func (t *Thread) Write(fd int, p []byte) (int, error) {
	t.probe.Begin(telemetry.SpanWrite)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(len(p))
	return t.p.proc.Write(fd, p, &t.clk)
}

// Pread reads at an offset.
func (t *Thread) Pread(fd int, p []byte, off int64) (int, error) {
	t.probe.Begin(telemetry.SpanPread)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	n, err := t.p.proc.Pread(fd, p, off, &t.clk)
	t.resultCopy(n)
	return n, err
}

// Pwrite writes at an offset.
func (t *Thread) Pwrite(fd int, p []byte, off int64) (int, error) {
	t.probe.Begin(telemetry.SpanPwrite)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(len(p))
	return t.p.proc.Pwrite(fd, p, off, &t.clk)
}

// Lseek repositions the cursor. Gramine emulates lseek inside the
// enclave (the cursor is LibOS state), so no OCALL in SGX mode.
func (t *Thread) Lseek(fd int, off int64, whence int) (int64, error) {
	t.probe.Begin(telemetry.SpanLseek)
	defer t.probe.End()
	t.libosEntry()
	if t.p.mode == Native {
		return t.p.proc.Lseek(fd, off, whence, &t.clk)
	}
	// Emulated: host still consulted for the inode but without an exit
	// in this simulation's accounting.
	return t.p.proc.Lseek(fd, off, whence, &t.clk)
}

// Fstat returns the file size.
func (t *Thread) Fstat(fd int) (int64, error) {
	t.probe.Begin(telemetry.SpanFstat)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.Fstat(fd, &t.clk)
}

// Fsync flushes a file.
func (t *Thread) Fsync(fd int) error {
	t.probe.Begin(telemetry.SpanFsync)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.Fsync(fd, &t.clk)
}

// Poll multiplexes descriptors; under SGX each poll is an exit.
func (t *Thread) Poll(fds []sys.PollFD, timeout time.Duration) (int, error) {
	t.probe.Begin(telemetry.SpanPoll)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.Poll(fds, timeout, &t.clk)
}

// EpollCreate installs a host epoll instance.
func (t *Thread) EpollCreate() (int, error) {
	t.probe.Begin(telemetry.SpanEpollCreate)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.EpollCreate(&t.clk)
}

// EpollCtl updates interest on a host epoll instance.
func (t *Thread) EpollCtl(epfd, op, fd int, events uint32) error {
	t.probe.Begin(telemetry.SpanEpollCtl)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.EpollCtl(epfd, op, fd, events, &t.clk)
}

// EpollWait reports ready descriptors; under SGX each wait is an exit.
func (t *Thread) EpollWait(epfd int, events []sys.EpollEvent, timeout time.Duration) (int, error) {
	t.probe.Begin(telemetry.SpanEpollWait)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.EpollWait(epfd, events, timeout, &t.clk)
}

// Close releases a descriptor.
func (t *Thread) Close(fd int) error {
	t.probe.Begin(telemetry.SpanClose)
	defer t.probe.End()
	t.libosEntry()
	t.ocall(0)
	return t.p.proc.Close(fd, &t.clk)
}

// Futex: Native pays a host syscall; the LibOS modes handle it inside
// the enclave (§6.1's Gramine-Direct-beats-Native observation).
func (t *Thread) Futex() {
	t.probe.Begin(telemetry.SpanFutex)
	defer t.probe.End()
	if t.p.mode == Native {
		t.p.proc.Futex(&t.clk)
		return
	}
	t.libosEntry()
}
