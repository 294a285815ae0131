package netstack

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"rakis/internal/mem"
	"rakis/internal/vtime"
)

// UDPHeaderBytes is the UDP header length.
const UDPHeaderBytes = 8

// MaxUDPPayload is the largest datagram payload the stack accepts.
const MaxUDPPayload = 65507

// Datagram is one received UDP payload with its source and stamp.
//
// A datagram is either copy-backed (Payload holds trusted bytes, the
// classic path) or view-backed (the payload still lives in the untrusted
// UMem frame behind a certified mem.View, the zero-copy path). Consumers
// go through Len/CopyOut/Bytes so both shapes behave identically; the
// one explicit copy for a view-backed datagram happens at CopyOut — the
// app-payload boundary — and releases the frame.
type Datagram struct {
	Payload []byte
	Src     Addr
	Stamp   uint64

	view    mem.View
	hasView bool
}

// ViewDatagram wraps a certified payload view as a datagram. The view
// must cover exactly the UDP payload bytes.
func ViewDatagram(v mem.View, src Addr, stamp uint64) Datagram {
	return Datagram{Src: src, Stamp: stamp, view: v, hasView: true}
}

// Len returns the payload length in bytes.
func (d *Datagram) Len() int {
	if d.hasView {
		return d.view.Len()
	}
	return len(d.Payload)
}

// IsView reports whether the payload still lives in untrusted memory.
func (d *Datagram) IsView() bool { return d.hasView }

// CopyOut copies the payload into p, truncating to len(p), and returns
// the byte count. For a view-backed datagram this is the single
// app-boundary copy: the frame is released afterwards, whether or not
// the copy succeeded (a stale view yields 0 bytes). The caller charges
// the copy at the rate its trust boundary demands.
//
//rakis:untrusted
func (d *Datagram) CopyOut(p []byte) int {
	if !d.hasView {
		return copy(p, d.Payload)
	}
	n, err := d.view.CopyOut(p, 0)
	if err != nil {
		n = 0
	}
	d.view.Release()
	d.hasView = false
	return n
}

// Bytes returns the payload as trusted bytes, copying a view-backed
// payload out (and releasing its frame) on first call.
func (d *Datagram) Bytes() []byte {
	if d.hasView {
		b := make([]byte, d.view.Len())
		n := d.CopyOut(b)
		if n != len(b) {
			b = nil // stale view: the frame is gone
		}
		d.Payload = b
	}
	return d.Payload
}

// Release drops a view-backed payload without consuming it, returning
// the frame to the pool. No-op for copy-backed datagrams.
func (d *Datagram) Release() {
	if d.hasView {
		d.view.Release()
		d.hasView = false
	}
}

// portMap is a copy-on-write port table, the one copy of a bind-rate
// binding (UDP ports, splice registrations, TCP listeners). A lookup is
// one atomic load and takes no lock, so the packet path of one shard
// shares nothing writable with another's; put copies the map and
// publishes the copy, and its callers serialise on their table's cold
// mutex. The zero value is empty.
type portMap[V comparable] struct{ cur atomic.Pointer[map[uint16]V] }

func (m *portMap[V]) load() map[uint16]V {
	if p := m.cur.Load(); p != nil {
		return *p
	}
	return nil
}

func (m *portMap[V]) lookup(port uint16) V { return m.load()[port] }

// put binds port to v in a fresh copy; the zero V (nil) unbinds it.
func (m *portMap[V]) put(port uint16, v V) {
	old := m.load()
	next := make(map[uint16]V, len(old)+1)
	maps.Copy(next, old)
	var none V
	if v != none {
		next[port] = v
	} else {
		delete(next, port)
	}
	m.cur.Store(&next)
}

// udpTable holds the bound UDP sockets and the in-place echo
// registrations, each in exactly one place. Binds and closes (collision
// detection, the ephemeral counter) serialise on mu, which no data path
// takes — the scale-out version of the paper's move away from a single
// global stack lock.
type udpTable struct {
	mu        sync.Mutex
	ports     portMap[*UDPSocket]
	splice    portMap[SpliceDevice]
	ephemeral uint16
	closed    bool
}

func (t *udpTable) closeAll() {
	t.mu.Lock()
	socks := t.ports.load()
	t.closed = true
	t.mu.Unlock()
	for _, s := range socks {
		s.Close()
	}
}

// UDPSocket is a bound UDP endpoint with a per-shard receive queue and
// its own virtual-time serialization resource (the fine-grained-locking
// design of §4.2, extended per-queue for the sharded data path).
//
// Receive queues are per-shard so concurrent pump threads enqueue
// without sharing a lock: RSS steers every packet of a flow to one
// queue, so per-flow FIFO order is preserved within its shard queue
// while cross-flow order relaxes — which UDP permits. Receivers scan the
// shard queues round-robin under a coalesced wakeup channel, so any mix
// of blocking receivers drains any mix of shards without lost wakeups.
type UDPSocket struct {
	stack *Stack
	local Addr

	mu        sync.Mutex
	connected *Addr
	closed    bool

	// closing flips before the per-shard drain in Close; enqueuers check
	// it under the shard lock, so no datagram can land after the drain
	// has swept its shard (the frame-economy invariant for view-backed
	// payloads).
	closing atomic.Bool

	shardQ  []sockQ
	pending atomic.Int64
	wake    chan struct{} // cap 1: coalesced data-available signal
	rr      atomic.Uint32 // receiver scan origin, rotated per pop
	closeC  chan struct{}
}

// sockQ is one shard's slice-backed FIFO of queued datagrams.
type sockQ struct {
	mu   sync.Mutex
	buf  []Datagram
	head int
	_    [32]byte
}

// RecvQueueCap is the per-shard receive queue capacity in datagrams,
// sized like the 16 MB / 2K-ring memory budget of §6.1.
const RecvQueueCap = 2048

// UDPBind creates a socket bound to (stack IP, port); port 0 picks an
// ephemeral port. The socket gets one receive queue per stack shard.
func (s *Stack) UDPBind(port uint16) (*UDPSocket, error) {
	t := s.udp
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		for i := 0; i < 65536; i++ {
			t.ephemeral++
			if t.ephemeral < 32768 {
				t.ephemeral = 32768
			}
			if t.ports.lookup(t.ephemeral) == nil {
				port = t.ephemeral
				break
			}
		}
		if port == 0 {
			return nil, fmt.Errorf("%w: no ephemeral UDP ports", ErrPortInUse)
		}
	} else if t.ports.lookup(port) != nil {
		return nil, fmt.Errorf("%w: udp/%d", ErrPortInUse, port)
	}
	sock := &UDPSocket{
		stack:  s,
		local:  Addr{IP: s.ip, Port: port},
		shardQ: make([]sockQ, s.cfg.Shards),
		wake:   make(chan struct{}, 1),
		closeC: make(chan struct{}),
	}
	t.ports.put(port, sock)
	return sock, nil
}

// udpHeader is a decoded UDP header.
type udpHeader struct {
	srcPort, dstPort uint16
	length           int // the length field: header + payload
	hasCsum          bool
}

// parseUDPHeader is the one UDP header decoder. b starts at the UDP
// header and may be a frozen prefix of the datagram; l4len is the length
// of the IP payload carrying it and bounds the length field. The header
// is decoded into h, which is meaningful only on a true return.
func parseUDPHeader(b []byte, l4len int, h *udpHeader) bool {
	if len(b) < UDPHeaderBytes {
		return false
	}
	h.srcPort = be16(b[0:2])
	h.dstPort = be16(b[2:4])
	h.length = int(be16(b[4:6]))
	h.hasCsum = be16(b[6:8]) != 0
	return h.length >= UDPHeaderBytes && h.length <= l4len
}

// inputUDP demuxes one UDP datagram to its socket's shard queue.
func (s *Stack) inputUDP(h IPv4Header, payload, origPkt []byte, clk *vtime.Clock, shard int) {
	var uh udpHeader
	if !parseUDPHeader(payload, len(payload), &uh) {
		return
	}
	if uh.hasCsum {
		sum := pseudoHeaderSum(h.Src, h.Dst, ProtoUDP, uh.length)
		if checksumFold(checksumPartial(sum, payload[:uh.length])) != 0 {
			return
		}
	}
	sock := s.udp.ports.lookup(uh.dstPort)
	if sock == nil {
		s.sendPortUnreachable(h, origPkt, clk)
		return
	}
	// Socket-layer work. Per-socket locks are held for far less than a
	// scheduling quantum, so it charges plain time.
	clk.Charge(vtime.CompStack, s.model.SocketOp)
	data := make([]byte, uh.length-UDPHeaderBytes)
	copy(data, payload[UDPHeaderBytes:uh.length])
	clk.Charge(vtime.CompCopy, vtime.Bytes(s.model.KernelCopyPerByte, len(data)))
	d := Datagram{Payload: data, Src: Addr{IP: h.Src, Port: uh.srcPort}, Stamp: clk.Now()}
	sock.enqueue(d, s, shard)
}

// enqueue delivers one datagram to the socket's shard queue, dropping
// (and releasing any view) when that queue is full, like Linux. The
// closing check happens under the shard lock, so an enqueue can never
// race past Close's drain and strand a view-backed frame.
func (u *UDPSocket) enqueue(d Datagram, s *Stack, shard int) {
	q := &u.shardQ[shard%len(u.shardQ)]
	q.mu.Lock()
	if u.closing.Load() || len(q.buf)-q.head >= RecvQueueCap {
		q.mu.Unlock()
		d.Release()
		if s.cfg.Counters != nil {
			s.cfg.Counters.PacketsDropped.Add(1)
		}
		return
	}
	q.buf = append(q.buf, d)
	q.mu.Unlock()
	u.pending.Add(1)
	select {
	case u.wake <- struct{}{}:
	default:
	}
}

// pop takes the oldest datagram from the first non-empty shard queue,
// scanning from a rotating origin so no shard starves. After a
// successful pop with datagrams still pending it re-signals the wakeup
// channel: the signal is coalesced on enqueue, so a waking receiver
// passes the baton to the next blocked receiver (no lost wakeups with
// multiple concurrent receivers).
func (u *UDPSocket) pop() (Datagram, bool) {
	n := len(u.shardQ)
	start := int(u.rr.Add(1))
	for i := 0; i < n; i++ {
		q := &u.shardQ[(start+i)%n]
		q.mu.Lock()
		if q.head >= len(q.buf) {
			q.mu.Unlock()
			continue
		}
		d := q.buf[q.head]
		q.buf[q.head] = Datagram{}
		q.head++
		if q.head == len(q.buf) {
			q.buf = q.buf[:0]
			q.head = 0
		}
		q.mu.Unlock()
		if u.pending.Add(-1) > 0 {
			select {
			case u.wake <- struct{}{}:
			default:
			}
		}
		return d, true
	}
	return Datagram{}, false
}

// LocalAddr returns the socket's bound address.
func (u *UDPSocket) LocalAddr() Addr { return u.local }

// Connect fixes the default peer for Send/Recv.
func (u *UDPSocket) Connect(dst Addr) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.connected = &dst
}

// RemoteAddr returns the connected peer, if any.
func (u *UDPSocket) RemoteAddr() (Addr, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.connected == nil {
		return Addr{}, false
	}
	return *u.connected, true
}

// SendTo transmits one datagram to dst: SendToN at width one, on a stack
// array.
func (u *UDPSocket) SendTo(payload []byte, dst Addr, clk *vtime.Clock) error {
	run := [1][]byte{payload}
	_, err := u.SendToN(run[:], dst, clk)
	return err
}

// SendToN transmits up to len(payloads) datagrams to dst as one run
// through the stack's transmit path, charging the caller's clock for
// each datagram's stack and socket work — only the link-layer call count
// is amortized. Semantics follow sendmmsg: it returns the number of
// datagrams sent, reporting an error only when the first fails.
func (u *UDPSocket) SendToN(payloads [][]byte, dst Addr, clk *vtime.Clock) (int, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	n := len(payloads)
	for i, p := range payloads {
		if len(p) > MaxUDPPayload {
			if i == 0 {
				return 0, ErrMsgSize
			}
			n = i
			break
		}
	}
	u.mu.Lock()
	closed := u.closed
	u.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	s := u.stack
	clk.Charge(vtime.CompStack, uint64(n)*(s.cfg.PerPacketCost+s.model.SocketOp))
	var h [UDPHeaderBytes]byte
	put16(h[0:2], u.local.Port)
	put16(h[2:4], dst.Port)
	lane := TXShard(s.ip, dst.IP, u.local.Port, dst.Port, s.Shards())
	return s.sendRun(nil, lane, ProtoUDP, dst.IP, h[:], payloads[:n], clk)
}

// Send transmits to the connected peer.
func (u *UDPSocket) Send(payload []byte, clk *vtime.Clock) error {
	dst, ok := u.RemoteAddr()
	if !ok {
		return fmt.Errorf("%w: socket not connected", ErrNoRoute)
	}
	return u.SendTo(payload, dst, clk)
}

// RecvFrom returns the next datagram. With block=false it returns
// ErrWouldBlock when the queue is empty; with block=true it waits until
// data arrives or the socket closes. The caller's clock is synced to the
// datagram's arrival stamp (idle waiting costs no virtual busy time).
func (u *UDPSocket) RecvFrom(clk *vtime.Clock, block bool) (Datagram, error) {
	for {
		if d, ok := u.pop(); ok {
			clk.Sync(d.Stamp)
			clk.Charge(vtime.CompStack, u.stack.model.SocketOp)
			return d, nil
		}
		// Close sweeps the queues before it closes closeC, so a closed
		// socket has nothing left to pop.
		select {
		case <-u.closeC:
			return Datagram{}, ErrClosed
		default:
		}
		if !block {
			return Datagram{}, ErrWouldBlock
		}
		select {
		case <-u.wake:
		case <-u.closeC:
		}
	}
}

// Ready reports which of the poll events hold on the socket now: it is
// readable while a datagram is queued and always writable.
func (u *UDPSocket) Ready(events uint32) uint32 {
	re := events & PollOut
	if u.pending.Load() > 0 {
		re |= events & PollIn
	}
	return re
}

// QueueLen returns the number of queued datagrams across all shards.
func (u *UDPSocket) QueueLen() int {
	if n := u.pending.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// Close unbinds the socket; blocked receivers return ErrClosed.
func (u *UDPSocket) Close() {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.closed = true
	u.mu.Unlock()
	t := u.stack.udp
	t.mu.Lock()
	if t.ports.lookup(u.local.Port) == u {
		t.ports.put(u.local.Port, nil)
	}
	t.mu.Unlock()
	// Flip closing before sweeping the shard queues: enqueuers observe
	// it under the shard lock, so anything not drained here was never
	// queued. Views go back to the frame pool either way.
	u.closing.Store(true)
	var drained int64
	for i := range u.shardQ {
		q := &u.shardQ[i]
		q.mu.Lock()
		for q.head < len(q.buf) {
			q.buf[q.head].Release()
			q.buf[q.head] = Datagram{}
			q.head++
			drained++
		}
		q.buf, q.head = nil, 0
		q.mu.Unlock()
	}
	if drained > 0 {
		u.pending.Add(-drained)
	}
	close(u.closeC)
}
