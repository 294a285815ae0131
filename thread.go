package rakis

import (
	"errors"
	"time"

	"rakis/internal/libos"
	"rakis/internal/netstack"
	"rakis/internal/sm"
	"rakis/internal/sys"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// Thread is one application thread running under RAKIS: the API
// submodule's view of the world (§4.2). UDP socket syscalls are served by
// the in-enclave UDP/IP stack over the XSKs; TCP send/recv, file
// read/write, fsync, and poll are served by the SyncProxy over this
// thread's private io_uring FM; everything else falls back to the
// LibOS's regular (exit-paying, under SGX) path — exactly the residual
// exits visible in Figure 2.
type Thread struct {
	rt        *Runtime
	lt        *libos.Thread
	probe     *telemetry.Probe
	proxy     *sm.SyncProxy
	pollCache *sm.PollCache
}

var _ sys.Sys = (*Thread)(nil)

// ErrWrongSocket reports a stream op on a datagram socket or vice versa.
var ErrWrongSocket = errors.New("rakis: operation does not match socket type")

// NewThread creates an application thread handle: a fallback LibOS
// thread plus a dedicated io_uring FastPath Module (§4.1: one io_uring
// FM per user thread).
func (rt *Runtime) NewThread() (*Thread, error) {
	lt := rt.libosProc.NewThread()
	ufm, err := rt.attachUring(lt.Clock())
	if err != nil {
		return nil, err
	}
	// The LibOS thread already owns this thread's probe; the io_uring FM
	// shares its trace ring so the thread's ring and copy events land in
	// the same per-thread buffer as its spans.
	ufm.SetTrace(lt.Probe().TraceBuf())
	return &Thread{
		rt:        rt,
		lt:        lt,
		probe:     lt.Probe(),
		proxy:     sm.NewSyncProxy(ufm, rt.cfg.Model),
		pollCache: sm.NewPollCache(),
	}, nil
}

// Clock returns the thread's virtual clock.
func (t *Thread) Clock() *vtime.Clock { return t.lt.Clock() }

// Clone creates a sibling application thread.
func (t *Thread) Clone() sys.Sys {
	nt, err := t.rt.NewThread()
	if err != nil {
		panic(err)
	}
	return nt
}

// hook charges the API submodule's syscall interception cost.
func (t *Thread) hook() *vtime.Clock {
	clk := t.lt.Clock()
	clk.Charge(vtime.CompAPI, t.rt.cfg.Model.APIHook)
	return clk
}

// AdviseBatch reports the vector width the self-tuning runtime
// currently advises for SendToN/RecvFromN (the static BatchHint when
// the tuner is off). Batching-aware applications poll it to size their
// gather windows; ignoring it is always correct, just not always fast.
func (t *Thread) AdviseBatch() int { return t.rt.tuning.Batch() }

// recvUDP is the one UDP receive body, behind RecvFrom, Recv and each
// slot of RecvFromN: it takes the next datagram off the enclave socket
// and moves its payload into the app buffer — the single explicit copy
// of the RX path. A view-backed datagram crosses the trust boundary right
// here (boundary-copy rate, traced, frame released); a copy-backed
// datagram is already trusted and pays only the user-space copy rate.
func (t *Thread) recvUDP(u *netstack.UDPSocket, p []byte, block bool, clk *vtime.Clock) (int, sys.Addr, error) {
	d, err := u.RecvFrom(clk, block)
	if err != nil {
		return 0, sys.Addr{}, err
	}
	isView := d.IsView()
	n := d.CopyOut(p)
	if isView {
		clk.Charge(vtime.CompCopy, vtime.Bytes(t.rt.cfg.Model.BoundaryCopyPerByte, n))
		t.probe.TraceBuf().Emit(telemetry.EvBoundaryCopy, clk.Now(), uint64(n), 1)
	} else {
		clk.Charge(vtime.CompCopy, vtime.Bytes(t.rt.cfg.Model.UserCopyPerByte, n))
	}
	return n, d.Src, nil
}

// sendRunStack is how many same-destination payloads sendUDP gathers
// without touching the heap: the widest vector the tuner advises.
const sendRunStack = 32

// sendUDP is the one UDP send body, behind SendTo (a run of one) and
// SendToN: the enclave stack takes one destination per run, so it groups
// consecutive same-destination messages and pushes each group through
// the batched XSK path — one ring lock, one certification pass, at most
// one MM wakeup. It marks each message sent with its length and returns
// how many went out, with an error only when the first did not.
func (t *Thread) sendUDP(u *netstack.UDPSocket, msgs []sys.Mmsg, clk *vtime.Clock) (int, error) {
	sent := 0
	var local [sendRunStack][]byte
	for sent < len(msgs) {
		dst := msgs[sent].Addr
		end := sent + 1
		for end < len(msgs) && msgs[end].Addr == dst {
			end++
		}
		payloads := local[:0]
		if end-sent > len(local) {
			payloads = make([][]byte, 0, end-sent)
		}
		for i := sent; i < end; i++ {
			payloads = append(payloads, msgs[i].Buf)
		}
		n, err := u.SendToN(payloads, dst, clk)
		for i := sent; i < sent+n; i++ {
			msgs[i].N = len(msgs[i].Buf)
		}
		sent += n
		if err != nil && sent == 0 {
			return 0, err
		}
		if err != nil || n < len(payloads) {
			break
		}
	}
	return sent, nil
}

// --- sockets ----------------------------------------------------------------

// Socket creates a socket: UDP sockets live in the enclave stack; TCP
// sockets live there too when EnclaveTCP is on (zero-exit XSK path),
// and are otherwise host sockets created through the LibOS fallback.
func (t *Thread) Socket(typ sys.SockType) (int, error) {
	t.probe.Begin(telemetry.SpanSocket)
	defer t.probe.End()
	if typ == sys.UDP {
		t.hook()
		sock, err := t.rt.Stack.UDPBind(0)
		if err != nil {
			return -1, err
		}
		return t.rt.registerEntry(&entry{kind: kindUDP, udp: sock}), nil
	}
	if typ == sys.TCP && t.rt.cfg.EnclaveTCP {
		// The enclave TCP endpoint materializes at listen/connect time;
		// until then the entry just carries the bound port.
		t.hook()
		return t.rt.registerEntry(&entry{kind: kindTCP}), nil
	}
	fd, err := t.lt.Socket(typ)
	if err != nil {
		return -1, err
	}
	return t.rt.registerEntry(&entry{kind: kindHost, host: fd}), nil
}

// Bind assigns the local port.
func (t *Thread) Bind(fd int, port uint16) error {
	t.probe.Begin(telemetry.SpanBind)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return errors.New("rakis: bad fd")
	}
	if e.kind == kindUDP {
		t.hook()
		sock, err := t.rt.Stack.UDPBind(port)
		if err != nil {
			return err
		}
		e.udp.Close()
		e.udp = sock
		return nil
	}
	if e.kind == kindTCP {
		t.hook()
		e.tcpPort = port // consumed by Listen; Connect picks ephemeral
		return nil
	}
	return t.lt.Bind(e.host, port)
}

// Connect connects a socket: in-enclave for UDP, LibOS fallback for TCP
// (connection setup is not one of the five io_uring-served syscalls).
func (t *Thread) Connect(fd int, addr sys.Addr) error {
	t.probe.Begin(telemetry.SpanConnect)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return errors.New("rakis: bad fd")
	}
	if e.kind == kindUDP {
		t.hook()
		e.udp.Connect(addr)
		return nil
	}
	if e.kind == kindTCP {
		clk := t.hook()
		sock, err := t.rt.Stack.TCPConnect(addr, clk)
		if err != nil {
			return err
		}
		e.tcp = sock
		return nil
	}
	return t.lt.Connect(e.host, addr)
}

// Listen marks a TCP socket as accepting: the enclave stack's
// SYN-cookie listen path under EnclaveTCP, the LibOS fallback otherwise.
func (t *Thread) Listen(fd int, backlog int) error {
	t.probe.Begin(telemetry.SpanListen)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return ErrWrongSocket
	}
	if e.kind == kindTCP {
		t.hook()
		l, err := t.rt.Stack.TCPListen(e.tcpPort, backlog)
		if err != nil {
			return err
		}
		e.tcp = l
		return nil
	}
	if e.kind != kindHost {
		return ErrWrongSocket
	}
	return t.lt.Listen(e.host, backlog)
}

// Accept waits for a connection: from the enclave listener's accept
// queue under EnclaveTCP (no exit), else the LibOS fallback.
func (t *Thread) Accept(fd int, block bool) (int, sys.Addr, error) {
	t.probe.Begin(telemetry.SpanAccept)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return -1, sys.Addr{}, ErrWrongSocket
	}
	if e.kind == kindTCP {
		clk := t.hook()
		if e.tcp == nil {
			return -1, sys.Addr{}, ErrWrongSocket
		}
		c, err := e.tcp.Accept(clk, block)
		if err != nil {
			return -1, sys.Addr{}, err
		}
		return t.rt.registerEntry(&entry{kind: kindTCP, tcp: c}), c.RemoteAddr(), nil
	}
	if e.kind != kindHost {
		return -1, sys.Addr{}, ErrWrongSocket
	}
	nfd, addr, err := t.lt.Accept(e.host, block)
	if err != nil {
		return -1, addr, err
	}
	return t.rt.registerEntry(&entry{kind: kindHost, host: nfd}), addr, nil
}

// SendTo transmits a datagram through the enclave stack and the XSKs —
// no enclave exit.
func (t *Thread) SendTo(fd int, p []byte, addr sys.Addr) (int, error) {
	t.probe.Begin(telemetry.SpanSendTo)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return 0, errors.New("rakis: bad fd")
	}
	if e.kind != kindUDP {
		return 0, ErrWrongSocket
	}
	m := [1]sys.Mmsg{{Buf: p, Addr: addr}}
	if _, err := t.sendUDP(e.udp, m[:], t.hook()); err != nil {
		return 0, err
	}
	return len(p), nil
}

// RecvFrom receives a datagram from the enclave stack — no enclave exit.
func (t *Thread) RecvFrom(fd int, p []byte, block bool) (int, sys.Addr, error) {
	t.probe.Begin(telemetry.SpanRecvFrom)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return 0, sys.Addr{}, errors.New("rakis: bad fd")
	}
	if e.kind != kindUDP {
		return 0, sys.Addr{}, ErrWrongSocket
	}
	return t.recvUDP(e.udp, p, block, t.hook())
}

// SendToN transmits up to len(msgs) datagrams in one vectored call
// (sendmmsg): one API hook and one fd lookup cover the batch, which
// sendUDP pushes through the enclave stack — still no enclave exit.
// Non-UDP descriptors fall back to the LibOS's vectored path.
func (t *Thread) SendToN(fd int, msgs []sys.Mmsg) (int, error) {
	t.probe.Begin(telemetry.SpanSendToN)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return 0, errors.New("rakis: bad fd")
	}
	if e.kind == kindHost {
		return t.lt.SendToN(e.host, msgs)
	}
	if e.kind != kindUDP {
		return 0, ErrWrongSocket
	}
	clk := t.hook()
	if len(msgs) == 0 {
		return 0, nil
	}
	sent, err := t.sendUDP(e.udp, msgs, clk)
	if err != nil {
		return 0, err
	}
	if c := t.rt.cfg.Counters; c != nil {
		c.BatchCalls.Add(1)
		c.BatchedMsgs.Add(uint64(sent))
	}
	return sent, nil
}

// RecvFromN receives up to len(msgs) datagrams in one vectored call
// (recvmmsg): one API hook and one fd lookup cover the batch. Blocking,
// when requested, applies only to the first message; the rest drain
// whatever the enclave stack has queued. No enclave exit either way.
func (t *Thread) RecvFromN(fd int, msgs []sys.Mmsg, block bool) (int, error) {
	t.probe.Begin(telemetry.SpanRecvFromN)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return 0, errors.New("rakis: bad fd")
	}
	if e.kind == kindHost {
		return t.lt.RecvFromN(e.host, msgs, block)
	}
	if e.kind != kindUDP {
		return 0, ErrWrongSocket
	}
	clk := t.hook()
	got := 0
	var firstErr error
	for i := range msgs {
		n, src, err := t.recvUDP(e.udp, msgs[i].Buf, block && got == 0, clk)
		if err != nil {
			firstErr = err
			break
		}
		msgs[i].N, msgs[i].Addr = n, src
		got++
	}
	if c := t.rt.cfg.Counters; c != nil {
		c.BatchCalls.Add(1)
		c.BatchedMsgs.Add(uint64(got))
	}
	if got == 0 {
		return 0, firstErr
	}
	// Receive backlog at drain time: what this call took plus what is
	// still queued. This is the tuner's app-side depth signal — it can
	// exceed the current advised width, which is exactly what lets the
	// width ramp instead of capping its own evidence.
	t.rt.appDepth.Observe(uint64(got + e.udp.QueueLen()))
	t.rt.kickTuner()
	return got, nil
}

// Send writes to a connected socket: enclave stack for UDP, SyncProxy
// (io_uring) for TCP.
func (t *Thread) Send(fd int, p []byte) (int, error) {
	t.probe.Begin(telemetry.SpanSend)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return 0, errors.New("rakis: bad fd")
	}
	clk := t.hook()
	if e.kind == kindUDP {
		if err := e.udp.Send(p, clk); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	if e.kind == kindTCP {
		if e.tcp == nil {
			return 0, ErrWrongSocket
		}
		return e.tcp.Send(p, clk)
	}
	return t.proxy.Send(e.host, p, clk)
}

// Recv reads from a connected socket: enclave stack for UDP, SyncProxy
// (io_uring) for TCP.
func (t *Thread) Recv(fd int, p []byte, block bool) (int, error) {
	t.probe.Begin(telemetry.SpanRecv)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok {
		return 0, errors.New("rakis: bad fd")
	}
	clk := t.hook()
	if e.kind == kindUDP {
		n, _, err := t.recvUDP(e.udp, p, block, clk)
		return n, err
	}
	if e.kind == kindTCP {
		if e.tcp == nil {
			return 0, ErrWrongSocket
		}
		return e.tcp.Recv(p, clk, block)
	}
	if !block {
		// The io_uring recv path is blocking; emulate non-blocking via a
		// zero-timeout poll first, as the API submodule does.
		srcs := []sm.PollSource{{HostFD: e.host, Events: sys.PollIn}}
		n, err := sm.Poll(srcs, 0, t.proxy, t.rt.cfg.Model, clk)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, netstack.ErrWouldBlock
		}
	}
	return t.proxy.Recv(e.host, p, clk)
}

// --- files ------------------------------------------------------------------

// Open opens a file through the LibOS fallback (not io_uring-served).
func (t *Thread) Open(path string, flags int) (int, error) {
	t.probe.Begin(telemetry.SpanOpen)
	defer t.probe.End()
	fd, err := t.lt.Open(path, flags)
	if err != nil {
		return -1, err
	}
	return t.rt.registerEntry(&entry{kind: kindHost, host: fd}), nil
}

// Read reads a file through the SyncProxy (io_uring) — no enclave exit.
func (t *Thread) Read(fd int, p []byte) (int, error) {
	t.probe.Begin(telemetry.SpanRead)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok || e.kind != kindHost {
		return 0, ErrWrongSocket
	}
	return t.proxy.Read(e.host, p, t.hook())
}

// Write writes a file through the SyncProxy (io_uring) — no enclave exit.
func (t *Thread) Write(fd int, p []byte) (int, error) {
	t.probe.Begin(telemetry.SpanWrite)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok || e.kind != kindHost {
		return 0, ErrWrongSocket
	}
	return t.proxy.Write(e.host, p, t.hook())
}

// Pread reads at an offset through the SyncProxy.
func (t *Thread) Pread(fd int, p []byte, off int64) (int, error) {
	t.probe.Begin(telemetry.SpanPread)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok || e.kind != kindHost {
		return 0, ErrWrongSocket
	}
	return t.proxy.Pread(e.host, p, off, t.hook())
}

// Pwrite writes at an offset through the SyncProxy.
func (t *Thread) Pwrite(fd int, p []byte, off int64) (int, error) {
	t.probe.Begin(telemetry.SpanPwrite)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok || e.kind != kindHost {
		return 0, ErrWrongSocket
	}
	return t.proxy.Pwrite(e.host, p, off, t.hook())
}

// Lseek repositions the cursor (LibOS-emulated).
func (t *Thread) Lseek(fd int, off int64, whence int) (int64, error) {
	t.probe.Begin(telemetry.SpanLseek)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok || e.kind != kindHost {
		return 0, ErrWrongSocket
	}
	return t.lt.Lseek(e.host, off, whence)
}

// Fstat returns the file size (LibOS fallback).
func (t *Thread) Fstat(fd int) (int64, error) {
	t.probe.Begin(telemetry.SpanFstat)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok || e.kind != kindHost {
		return 0, ErrWrongSocket
	}
	return t.lt.Fstat(e.host)
}

// Fsync flushes through the SyncProxy (io_uring).
func (t *Thread) Fsync(fd int) error {
	t.probe.Begin(telemetry.SpanFsync)
	defer t.probe.End()
	e, ok := t.rt.lookup(fd)
	if !ok || e.kind != kindHost {
		return ErrWrongSocket
	}
	return t.proxy.Fsync(e.host, t.hook())
}

// Poll aggregates readiness across IO providers (§4.2): enclave UDP
// sockets are watched directly, host descriptors through asynchronous
// io_uring polls — no enclave exits.
func (t *Thread) Poll(fds []sys.PollFD, timeout time.Duration) (int, error) {
	t.probe.Begin(telemetry.SpanPoll)
	defer t.probe.End()
	srcs := make([]sm.PollSource, len(fds))
	for i, f := range fds {
		srcs[i] = sm.PollSource{HostFD: -1, Events: f.Events} // until resolved: a bad fd
		if e, ok := t.rt.lookup(f.FD); ok {
			switch e.kind {
			case kindUDP:
				srcs[i].UDP = e.udp
			case kindTCP:
				srcs[i].TCP = e.tcp // nil while unconnected: stays a bad fd
			default:
				srcs[i].HostFD = e.host
			}
		}
	}
	clk := t.lt.Clock()
	n, err := sm.PollCached(srcs, timeout, t.proxy, t.rt.cfg.Model, clk, t.pollCache)
	for i := range fds {
		fds[i].Revents = srcs[i].Revents
	}
	return n, err
}

// Close releases a descriptor: enclave close for UDP, LibOS fallback for
// host descriptors.
func (t *Thread) Close(fd int) error {
	t.probe.Begin(telemetry.SpanClose)
	defer t.probe.End()
	e, ok := t.rt.remove(fd)
	if !ok {
		return errors.New("rakis: bad fd")
	}
	switch e.kind {
	case kindUDP:
		t.hook()
		t.rt.dropFromEpolls(fd)
		e.udp.Close()
		return nil
	case kindTCP:
		clk := t.hook()
		t.rt.dropFromEpolls(fd)
		if e.tcp != nil {
			return e.tcp.Close(clk)
		}
		return nil
	case kindEpoll:
		t.hook()
		return nil
	}
	t.rt.dropFromEpolls(fd)
	t.pollCache.Drop(e.host, t.proxy, t.lt.Clock())
	return t.lt.Close(e.host)
}

// Futex is handled inside the enclave by the LibOS.
func (t *Thread) Futex() {
	t.probe.Begin(telemetry.SpanFutex)
	defer t.probe.End()
	t.lt.Futex()
}
