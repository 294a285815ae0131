package netstack

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rakis/internal/vtime"
)

// TCP constants. The implementation is deliberately compact but real:
// three-way handshake, sequence/ack bookkeeping, flow-control windows,
// retransmission under a lossy wire, and orderly close. Congestion
// control is omitted — the simulated wire is single-hop, so flow control
// alone governs throughput, which is what the Redis experiment
// exercises. Two configurations run it: the full kernel stack (stateful
// listen, ARP-resolved output) and the trimmed enclave stack over XSK
// (stateless SYN-cookie listen, per-connection cached peer MAC so no
// reply ever blocks on ARP for a spoofed source, and demux sharded by
// the RSS flow hash so a connection lives entirely on one FM shard).
const (
	TCPHeaderBytes = 20
	// tcpHeaderMax is the largest legal TCP header (data offset 15).
	tcpHeaderMax = 60
	// MSS is the maximum segment payload (1500 MTU - 20 IP - 20 TCP).
	MSS = 1460
	// rcvBufCap is the receive buffer and maximum advertised window.
	rcvBufCap = 65535
	// sndBufCap is the send buffer capacity.
	sndBufCap = 256 * 1024
	// rtoInitial is the real-time retransmission timeout; the engine's
	// deadlines pace in host time (like every blocking wait in the
	// simulation) while the retransmit work itself is charged to the
	// servicing pump's virtual clock.
	rtoInitial = 200 * time.Millisecond
	rtoMax     = 2 * time.Second
	// tcpTickFallback is the fallback ticker period for stacks with no
	// FM pumps driving TickTCP (the kernel configuration).
	tcpTickFallback = 5 * time.Millisecond
	// connectTimeout bounds the real-time handshake wait.
	connectTimeout = 5 * time.Second
)

// TCP flag bits, exported for frame-building tools outside the package
// (the chaos harness's SYN-flood generator builds hostile segments with
// MarshalTCP).
const (
	TCPFlagFIN = 1 << 0
	TCPFlagSYN = 1 << 1
	TCPFlagRST = 1 << 2
	TCPFlagPSH = 1 << 3
	TCPFlagACK = 1 << 4
)

// tcpState is the connection state machine.
type tcpState int

const (
	stateClosed tcpState = iota
	stateListen
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateClosing
	stateLastAck
	stateTimeWait
)

var stateNames = map[tcpState]string{
	stateClosed: "CLOSED", stateListen: "LISTEN", stateSynSent: "SYN_SENT",
	stateSynRcvd: "SYN_RCVD", stateEstablished: "ESTABLISHED",
	stateFinWait1: "FIN_WAIT_1", stateFinWait2: "FIN_WAIT_2",
	stateCloseWait: "CLOSE_WAIT", stateClosing: "CLOSING",
	stateLastAck: "LAST_ACK", stateTimeWait: "TIME_WAIT",
}

func (s tcpState) String() string { return stateNames[s] }

// ErrReset reports a connection reset by the peer.
var ErrReset = errors.New("netstack: connection reset by peer")

type tcpSeg struct {
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            byte
	wnd              uint16
	payload          []byte
}

// parseTCPHeader is the one TCP header decoder. b starts at the TCP
// header and may be a frozen prefix of the segment; l4len is the whole
// segment's length. It accepts only when the entire header, options
// included, lies inside both b and the segment; then it decodes the
// header fields into s (payload untouched) and returns the data offset
// in bytes.
func parseTCPHeader(b []byte, l4len int, s *tcpSeg) (dataOff int, ok bool) {
	if len(b) < TCPHeaderBytes {
		return 0, false
	}
	dataOff = int(b[12]>>4) * 4
	if dataOff < TCPHeaderBytes || dataOff > l4len || dataOff > len(b) {
		return 0, false
	}
	s.srcPort = be16(b[0:2])
	s.dstPort = be16(b[2:4])
	s.seq = be32(b[4:8])
	s.ack = be32(b[8:12])
	s.flags = b[13] & 0x3F
	s.wnd = be16(b[14:16])
	return dataOff, true
}

// parseTCP decodes a whole segment: the header plus the payload slice.
func parseTCP(b []byte) (tcpSeg, bool) {
	var s tcpSeg
	dataOff, ok := parseTCPHeader(b, len(b), &s)
	if ok {
		s.payload = b[dataOff:]
	}
	return s, ok
}

// putTCPHeader encodes s's header (no options, zero checksum) into
// b[:TCPHeaderBytes].
func putTCPHeader(b []byte, s tcpSeg) {
	b = b[:TCPHeaderBytes]
	put16(b[0:2], s.srcPort)
	put16(b[2:4], s.dstPort)
	put32(b[4:8], s.seq)
	put32(b[8:12], s.ack)
	b[12] = (TCPHeaderBytes / 4) << 4
	b[13] = s.flags
	put16(b[14:16], s.wnd)
	put32(b[16:20], 0) // checksum (sealL4 fills it), urgent pointer
}

// MarshalTCP assembles a checksummed TCP segment (no options) in a fresh
// buffer.
func MarshalTCP(src, dst IP4, srcPort, dstPort uint16, seq, ack uint32, flags byte, wnd uint16, payload []byte) []byte {
	b := make([]byte, TCPHeaderBytes+len(payload))
	putTCPHeader(b, tcpSeg{srcPort: srcPort, dstPort: dstPort, seq: seq, ack: ack, flags: flags, wnd: wnd})
	copy(b[TCPHeaderBytes:], payload)
	sealL4(b[:TCPHeaderBytes], ProtoTCP, src, dst, payload)
	return b
}

// connKey identifies a connection from the stack's point of view.
type connKey struct {
	remoteIP   IP4
	remotePort uint16
	localPort  uint16
}

// tcpShard holds the connections whose flows hash home to one RSS shard —
// the only place a connection is stored. RSS consistency means every
// segment of a flow arrives on its home shard, so the FM pump of that
// shard is the lock's only hot-path taker; homeShard is a pure function of
// the key, so the cold paths (duplicate check, ephemeral-port search,
// shutdown, stats) find the same shard without a second table.
type tcpShard struct {
	mu    sync.RWMutex
	conns map[connKey]*TCPSocket
	_     [32]byte // keep neighbouring shard locks off one cache line
}

// tcpTimerShard is one shard's retransmission timer wheel. Deadlines
// pace in host real time; servicing happens on the shard's FM pump
// (TickTCP, work charged to the pump's virtual clock and transmitted on
// the shard's flow-affine TX lane) with a slow fallback ticker for
// stacks that have no pumps.
type tcpTimerShard struct {
	mu   sync.Mutex
	due  map[*TCPSocket]time.Time
	next atomic.Int64 // unixnano of the earliest deadline; 0 = empty
}

func (ts *tcpTimerShard) arm(c *TCPSocket, at time.Time) {
	ts.mu.Lock()
	ts.due[c] = at
	n := at.UnixNano()
	if cur := ts.next.Load(); cur == 0 || n < cur {
		ts.next.Store(n)
	}
	ts.mu.Unlock()
}

func (ts *tcpTimerShard) disarm(c *TCPSocket) {
	ts.mu.Lock()
	delete(ts.due, c)
	if len(ts.due) == 0 {
		ts.next.Store(0)
	}
	ts.mu.Unlock()
}

// expire pops every socket whose deadline has passed and recomputes the
// earliest remaining deadline.
func (ts *tcpTimerShard) expire(now time.Time) []*TCPSocket {
	if n := ts.next.Load(); n == 0 || now.UnixNano() < n {
		return nil
	}
	ts.mu.Lock()
	var fired []*TCPSocket
	var next int64
	for c, at := range ts.due {
		if !at.After(now) {
			fired = append(fired, c)
			delete(ts.due, c)
			continue
		}
		if n := at.UnixNano(); next == 0 || n < next {
			next = n
		}
	}
	ts.next.Store(next)
	ts.mu.Unlock()
	return fired
}

// tcpSecretSalt differentiates cookie secrets across stacks created in
// the same nanosecond (tests boot many worlds back to back).
var tcpSecretSalt atomic.Uint64

// tcpTable holds connections and listeners, each in exactly one place:
// a connection in its home shard's map, a listener — which a SYN of any
// flow identity must find — in the copy-on-write listeners map every
// shard reads without a lock.
type tcpTable struct {
	stack   *Stack
	cookies bool

	// mu serialises listener binds and the ephemeral-port counter. The
	// hot path never takes it.
	mu        sync.Mutex
	listeners portMap[*TCPSocket]
	ephemeral uint16
	issBase   atomic.Uint32

	shards []tcpShard
	timers []tcpTimerShard

	cookieSecret [2]uint32

	tickStop chan struct{}
	tickDone chan struct{}
	closed   atomic.Bool
}

func newTCPTable(s *Stack, shards int, cookies bool) *tcpTable {
	t := &tcpTable{
		stack:     s,
		cookies:   cookies,
		ephemeral: 40000,
		shards:    make([]tcpShard, shards),
		timers:    make([]tcpTimerShard, shards),
		tickStop:  make(chan struct{}),
		tickDone:  make(chan struct{}),
	}
	for i := range t.shards {
		t.shards[i].conns = make(map[connKey]*TCPSocket)
		t.timers[i].due = make(map[*TCPSocket]time.Time)
	}
	// A lightly keyed cookie secret: the simulation needs distinct,
	// unpredictable-enough keys per stack instance, not cryptography.
	seed := uint64(time.Now().UnixNano()) + uint64(tcpSecretSalt.Add(0x9e3779b97f4a7c15))
	t.cookieSecret[0] = uint32(seed) ^ 0x9e3779b9
	t.cookieSecret[1] = uint32(seed>>32) ^ 0x85ebca6b
	go t.tickLoop()
	return t
}

// homeShard returns the RSS shard a connection's inbound segments arrive
// on: the single FlowHash invariant, applied to the remote→local tuple
// exactly as the kernel's RX steering applies it.
func (t *tcpTable) homeShard(key connKey) int {
	return RXShard(key.remoteIP, t.stack.ip, key.remotePort, key.localPort, len(t.shards))
}

func (t *tcpTable) closeAll() {
	if t.closed.CompareAndSwap(false, true) {
		close(t.tickStop)
		<-t.tickDone
	}
	var socks []*TCPSocket
	for _, l := range t.listeners.load() {
		socks = append(socks, l)
	}
	for i := range t.shards {
		d := &t.shards[i]
		d.mu.RLock()
		for _, c := range d.conns {
			socks = append(socks, c)
		}
		d.mu.RUnlock()
	}
	for _, c := range socks {
		c.abort(ErrClosed)
	}
}

func (t *tcpTable) nextISS() uint32 { return t.issBase.Add(0x1000_1) * 31 }

// register installs c under key in the key's home shard and reports
// whether it did: false means the key already names a connection. The
// check and the insert are one critical section, so of any number of
// concurrent registrations for one 4-tuple exactly one wins.
func (t *tcpTable) register(key connKey, c *TCPSocket) bool {
	c.key, c.shard = key, t.homeShard(key)
	d := &t.shards[c.shard]
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.conns[key]; dup {
		return false
	}
	d.conns[key] = c
	return true
}

func (t *tcpTable) deregister(c *TCPSocket) {
	d := &t.shards[c.shard]
	d.mu.Lock()
	if d.conns[c.key] == c {
		delete(d.conns, c.key)
	}
	d.mu.Unlock()
}

// refuse counts one deterministic refusal (invalid cookie, full accept
// queue, or a segment matching no endpoint).
func (t *tcpTable) refuse() {
	if c := t.stack.cfg.Counters; c != nil {
		c.TCPRefused.Add(1)
	}
}

// tickLoop is the fallback timer driver: stacks whose shards are pumped
// by FMs service their wheels from TickTCP within microseconds, so this
// ticker only matters when no pump exists (the kernel stack) or a pump
// has stalled. Fallback retransmits run on a clock minted from the
// socket's last virtual timestamp, as the pre-wheel engine did.
func (t *tcpTable) tickLoop() {
	defer close(t.tickDone)
	tick := time.NewTicker(tcpTickFallback)
	defer tick.Stop()
	for {
		select {
		case <-t.tickStop:
			return
		case <-tick.C:
			for i := range t.timers {
				t.serviceTimers(i, nil)
			}
		}
	}
}

// serviceTimers fires every due retransmission on one shard's wheel.
// With a non-nil clk (an FM pump's clock) the retransmit work is charged
// there — the same attribution discipline as the TX doorbell model — and
// the segments leave on the pump's own flow-affine lane.
func (t *tcpTable) serviceTimers(shard int, clk *vtime.Clock) {
	if shard < 0 || shard >= len(t.timers) {
		return
	}
	for _, c := range t.timers[shard].expire(time.Now()) {
		if clk != nil {
			c.onRTO(clk)
			continue
		}
		var mint vtime.Clock
		mint.Sync(c.lastVTime.Load())
		c.onRTO(&mint)
	}
}

// TickTCP services the given shard's TCP retransmission wheel on the
// caller's clock. FM pumps call it once per loop; it is a single atomic
// load when nothing is due.
func (s *Stack) TickTCP(clk *vtime.Clock, shard int) {
	if s.tcp == nil {
		return
	}
	s.tcp.serviceTimers(shard%len(s.tcp.timers), clk)
}

// TCPStats is a point-in-time summary of the TCP table, exposed so the
// SYN-flood gate can assert bounded state: a flood of spoofed SYNs must
// move CookiesSent without moving Conns.
type TCPStats struct {
	Conns, Listeners             int
	CookiesSent, CookiesAccepted uint64
	Refused                      uint64
}

// TCPStats reports the table summary (zero value when TCP is trimmed).
func (s *Stack) TCPStats() TCPStats {
	if s.tcp == nil {
		return TCPStats{}
	}
	t := s.tcp
	st := TCPStats{Listeners: len(t.listeners.load())}
	for i := range t.shards {
		d := &t.shards[i]
		d.mu.RLock()
		st.Conns += len(d.conns)
		d.mu.RUnlock()
	}
	if c := s.cfg.Counters; c != nil {
		st.CookiesSent = c.TCPCookiesSent.Load()
		st.CookiesAccepted = c.TCPCookiesAccepted.Load()
		st.Refused = c.TCPRefused.Load()
	}
	return st
}

// TCPSocket is a TCP endpoint (listener or connection).
type TCPSocket struct {
	stack *Stack
	table *tcpTable

	mu   sync.Mutex
	cond *sync.Cond

	state  tcpState
	local  Addr
	remote Addr
	key    connKey
	shard  int

	// peerMAC caches the flow's layer-2 reply address, learned from the
	// frames the connection itself receives. The enclave path never
	// inserts TCP peers into the shared ARP cache (a SYN flood would
	// grow it per-SYN) and never blocks a pump on ARP resolution.
	peerMAC [6]byte
	hasMAC  bool

	// Send side: sndBuf holds bytes [sndUna, sndUna+len); the first
	// sndNxt-sndUna of them are in flight.
	sndBuf     []byte
	sndUna     uint32
	sndNxt     uint32
	sndWnd     uint32
	finPending bool
	finSent    bool
	finSeq     uint32

	// Receive side: rcvBuf holds in-order bytes ready for the app.
	rcvBuf    []byte
	rcvNxt    uint32
	rcvClosed bool

	err     error
	backlog chan *TCPSocket // listeners only
	parent  *TCPSocket      // SYN_RCVD children (stateful listen only)

	stamp     vtime.Stamp // raised when data/EOF arrives
	lastVTime atomic.Uint64

	rtoD     time.Duration
	deadDone bool
}

func newTCPSocket(t *tcpTable) *TCPSocket {
	c := &TCPSocket{stack: t.stack, table: t, state: stateClosed, rtoD: rtoInitial}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// --- public API -----------------------------------------------------------

// TCPListen creates a listening socket on port.
func (s *Stack) TCPListen(port uint16, backlog int) (*TCPSocket, error) {
	if s.tcp == nil {
		return nil, ErrTrimmed
	}
	if backlog <= 0 {
		backlog = 16
	}
	t := s.tcp
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.listeners.lookup(port) != nil {
		return nil, fmt.Errorf("%w: tcp/%d", ErrPortInUse, port)
	}
	l := newTCPSocket(t)
	l.state = stateListen
	l.local = Addr{IP: s.ip, Port: port}
	l.backlog = make(chan *TCPSocket, backlog)
	t.listeners.put(port, l)
	return l, nil
}

// TCPConnect opens a connection to dst, blocking (in real time) until the
// handshake completes.
func (s *Stack) TCPConnect(dst Addr, clk *vtime.Clock) (*TCPSocket, error) {
	if s.tcp == nil {
		return nil, ErrTrimmed
	}
	t := s.tcp
	c := newTCPSocket(t)
	c.remote = dst

	// Each candidate port is claimed in its own key's home shard.
	t.mu.Lock()
	var port uint16
	for i := 0; i < 65536 && port == 0; i++ {
		t.ephemeral++
		if t.ephemeral < 40000 {
			t.ephemeral = 40000
		}
		if t.register(connKey{dst.IP, dst.Port, t.ephemeral}, c) {
			port = t.ephemeral
		}
	}
	t.mu.Unlock()
	if port == 0 {
		return nil, fmt.Errorf("%w: no ephemeral TCP ports", ErrPortInUse)
	}
	c.local = Addr{IP: s.ip, Port: port}

	c.mu.Lock()
	iss := t.nextISS()
	c.sndUna, c.sndNxt = iss, iss+1
	c.state = stateSynSent
	c.lastVTime.Store(clk.Now())
	c.sendSegLocked(tcpSeg{flags: TCPFlagSYN, seq: iss}, clk)
	c.armRTOLocked()
	ok := condWait(c.cond, connectTimeout, func() bool {
		return c.state == stateEstablished || c.err != nil
	})
	err := c.err
	state := c.state
	c.mu.Unlock()

	if err != nil || !ok || state != stateEstablished {
		c.abort(nil)
		if err == nil {
			err = ErrTimeout
		}
		return nil, err
	}
	return c, nil
}

// Accept returns the next established connection on a listener.
func (l *TCPSocket) Accept(clk *vtime.Clock, block bool) (*TCPSocket, error) {
	l.mu.Lock()
	if l.state != stateListen {
		l.mu.Unlock()
		return nil, fmt.Errorf("netstack: accept on non-listener (%v)", l.state)
	}
	l.mu.Unlock()
	var c *TCPSocket
	var ok bool
	if block {
		c, ok = <-l.backlog
	} else {
		select {
		case c, ok = <-l.backlog:
		default:
			return nil, ErrWouldBlock
		}
	}
	if !ok {
		return nil, ErrClosed
	}
	clk.Sync(c.stamp.Load())
	return c, nil
}

// offerBacklog enqueues an established child on the listener's accept
// queue. The push is serialized with the listener's own lock so it can
// never race the close of the backlog channel in teardownLocked; it
// reports false when the listener is closed or the queue is full —
// both are the deterministic-refusal outcome for the caller.
func (l *TCPSocket) offerBacklog(c *TCPSocket) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != stateListen || l.deadDone {
		return false
	}
	select {
	case l.backlog <- c:
		return true
	default:
		return false
	}
}

// Send queues data for transmission, blocking while the send buffer is
// full, and returns when all of p is queued.
func (c *TCPSocket) Send(p []byte, clk *vtime.Clock) (int, error) {
	total := 0
	for len(p) > 0 {
		c.mu.Lock()
		ok := condWait(c.cond, rtoMax*4, func() bool {
			return c.err != nil || !c.stateSendableLocked() || len(c.sndBuf) < sndBufCap
		})
		if c.err != nil {
			err := c.err
			c.mu.Unlock()
			return total, err
		}
		if !c.stateSendableLocked() {
			c.mu.Unlock()
			return total, ErrClosed
		}
		if !ok {
			c.mu.Unlock()
			return total, ErrTimeout
		}
		room := sndBufCap - len(c.sndBuf)
		n := len(p)
		if n > room {
			n = room
		}
		c.sndBuf = append(c.sndBuf, p[:n]...)
		c.trySendLocked(clk)
		c.mu.Unlock()
		p = p[n:]
		total += n
	}
	return total, nil
}

func (c *TCPSocket) stateSendableLocked() bool {
	return c.state == stateEstablished || c.state == stateCloseWait
}

// Recv copies received bytes into p. It returns 0, nil at EOF (peer
// closed). With block=false it returns ErrWouldBlock when no data is
// buffered.
func (c *TCPSocket) Recv(p []byte, clk *vtime.Clock, block bool) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.rcvBuf) > 0 {
			break
		}
		if c.err != nil {
			return 0, c.err
		}
		if c.rcvClosed {
			return 0, nil // EOF
		}
		if c.state == stateClosed {
			return 0, ErrClosed
		}
		if !block {
			return 0, ErrWouldBlock
		}
		c.cond.Wait()
	}
	n := copy(p, c.rcvBuf)
	before := len(c.rcvBuf)
	c.rcvBuf = c.rcvBuf[n:]
	clk.Sync(c.stamp.Load())
	clk.Advance(c.stack.model.SocketOp + vtime.Bytes(c.stack.model.UserCopyPerByte, n))
	// Window update: if we just opened significant space, tell the peer.
	if before >= rcvBufCap/2 && len(c.rcvBuf) < rcvBufCap/2 {
		c.sendAckLocked(clk)
	}
	return n, nil
}

// Ready reports which of the poll events hold on the socket now — the
// one readiness rule behind poll, epoll, io_uring's poll_add and the
// enclave aggregation. A listener is readable while its backlog holds a
// connection and never writable; a connection is readable on data, EOF
// or a pending error, writable while it is open with send-buffer space.
func (c *TCPSocket) Ready(events uint32) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == stateListen {
		if len(c.backlog) == 0 {
			return 0
		}
		return events & PollIn
	}
	var re uint32
	if len(c.rcvBuf) > 0 || c.rcvClosed || c.err != nil {
		re = events & PollIn
	}
	if c.stateSendableLocked() && len(c.sndBuf) < sndBufCap {
		re |= events & PollOut
	}
	return re
}

// LocalAddr returns the bound address.
func (c *TCPSocket) LocalAddr() Addr { return c.local }

// RemoteAddr returns the peer address.
func (c *TCPSocket) RemoteAddr() Addr { return c.remote }

// State returns the connection state (for tests).
func (c *TCPSocket) State() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.String()
}

// Shard returns the RSS shard the connection's segments arrive on.
func (c *TCPSocket) Shard() int { return c.shard }

// Close performs an orderly close: pending data is flushed, then a FIN.
func (c *TCPSocket) Close(clk *vtime.Clock) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case stateEstablished:
		c.state = stateFinWait1
	case stateCloseWait:
		c.state = stateLastAck
	case stateListen, stateSynSent, stateSynRcvd:
		c.teardownLocked(nil)
		return nil
	default:
		return nil
	}
	c.finPending = true
	c.trySendLocked(clk)
	return nil
}

// abort hard-kills the socket (RST semantics or stack shutdown).
func (c *TCPSocket) abort(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.teardownLocked(err)
}

// teardownLocked is the one endpoint-teardown path: it finalizes the
// socket and removes its binding — a listener's port, whose accept queue
// it closes, or a connection's key and timer.
func (c *TCPSocket) teardownLocked(err error) {
	if c.state == stateClosed && c.deadDone {
		return
	}
	c.state = stateClosed
	c.deadDone = true
	t := c.table
	if c.backlog != nil { // a listener
		t.mu.Lock()
		if t.listeners.lookup(c.local.Port) == c {
			t.listeners.put(c.local.Port, nil)
		}
		t.mu.Unlock()
		close(c.backlog)
		return
	}
	if err != nil && c.err == nil {
		c.err = err
	}
	c.disarmRTOLocked()
	t.deregister(c)
	c.cond.Broadcast()
}

// --- internals ------------------------------------------------------------

// noteMAC caches the flow's reply MAC from a received frame's Ethernet
// source. Cheap double-checked store: reads race only with one writer
// value per flow (the peer's stable MAC).
func (c *TCPSocket) noteMAC(ethSrc *[6]byte) {
	if ethSrc == nil {
		return
	}
	c.mu.Lock()
	if !c.hasMAC {
		c.peerMAC = *ethSrc
		c.hasMAC = true
	}
	c.mu.Unlock()
}

// sendSegLocked transmits one segment for this connection. The window
// field is filled from the current receive buffer occupancy. When the
// flow's reply MAC is cached the frame goes straight to the link —
// retransmits and data never block a pump on ARP resolution.
func (c *TCPSocket) sendSegLocked(seg tcpSeg, clk *vtime.Clock) {
	seg.srcPort = c.local.Port
	seg.dstPort = c.remote.Port
	wnd := rcvBufCap - len(c.rcvBuf)
	if wnd < 0 {
		wnd = 0
	}
	seg.wnd = uint16(wnd)
	clk.Advance(c.stack.model.KernelTCPPerSegment +
		vtime.Bytes(c.stack.model.KernelCopyPerByte, len(seg.payload)))
	c.lastVTime.Store(clk.Now())
	var mac *[6]byte
	if c.hasMAC {
		mac = &c.peerMAC
	}
	c.table.sendSegTo(c.remote.IP, mac, seg, clk)
}

func (c *TCPSocket) sendAckLocked(clk *vtime.Clock) {
	c.sendSegLocked(tcpSeg{flags: TCPFlagACK, seq: c.sndNxt, ack: c.rcvNxt}, clk)
}

// trySendLocked pushes as much buffered data as the peer window allows,
// and the FIN once the buffer drains.
func (c *TCPSocket) trySendLocked(clk *vtime.Clock) {
	for {
		inFlight := c.sndNxt - c.sndUna
		if c.finSent && inFlight > 0 {
			inFlight-- // the FIN occupies one sequence number beyond the data
		}
		if inFlight > uint32(len(c.sndBuf)) {
			return // stale ACK state; nothing sane to transmit
		}
		unsent := uint32(len(c.sndBuf)) - inFlight
		if unsent > 0 && inFlight < c.sndWnd {
			n := c.sndWnd - inFlight
			if n > unsent {
				n = unsent
			}
			if n > MSS {
				n = MSS
			}
			off := inFlight
			seg := tcpSeg{
				flags:   TCPFlagACK | TCPFlagPSH,
				seq:     c.sndNxt,
				ack:     c.rcvNxt,
				payload: c.sndBuf[off : off+n],
			}
			c.sndNxt += n
			c.sendSegLocked(seg, clk)
			c.armRTOLocked()
			continue
		}
		if c.finPending && !c.finSent && unsent == 0 {
			c.finSeq = c.sndNxt
			c.sndNxt++
			c.finSent = true
			c.sendSegLocked(tcpSeg{flags: TCPFlagFIN | TCPFlagACK, seq: c.finSeq, ack: c.rcvNxt}, clk)
			c.armRTOLocked()
		}
		return
	}
}

// armRTOLocked schedules the retransmission deadline on the socket's
// home-shard timer wheel.
func (c *TCPSocket) armRTOLocked() {
	c.table.timers[c.shard].arm(c, time.Now().Add(c.rtoD))
}

func (c *TCPSocket) disarmRTOLocked() {
	c.table.timers[c.shard].disarm(c)
}

// onRTO fires when an ACK is overdue; it retransmits the oldest
// unacknowledged segment on the caller's clock (the servicing FM pump's,
// on pumped stacks) and doubles the backoff.
func (c *TCPSocket) onRTO(clk *vtime.Clock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == stateClosed || c.sndNxt == c.sndUna {
		return
	}
	switch {
	case c.state == stateSynSent:
		c.sendSegLocked(tcpSeg{flags: TCPFlagSYN, seq: c.sndUna}, clk)
	case c.state == stateSynRcvd:
		c.sendSegLocked(tcpSeg{flags: TCPFlagSYN | TCPFlagACK, seq: c.sndUna, ack: c.rcvNxt}, clk)
	case uint32(len(c.sndBuf)) > 0:
		n := uint32(len(c.sndBuf))
		if n > MSS {
			n = MSS
		}
		c.sendSegLocked(tcpSeg{
			flags: TCPFlagACK | TCPFlagPSH, seq: c.sndUna, ack: c.rcvNxt,
			payload: c.sndBuf[:n],
		}, clk)
	case c.finSent:
		c.sendSegLocked(tcpSeg{flags: TCPFlagFIN | TCPFlagACK, seq: c.finSeq, ack: c.rcvNxt}, clk)
	}
	c.rtoD *= 2
	if c.rtoD > rtoMax {
		c.rtoD = rtoMax
	}
	c.armRTOLocked()
}

// input parses, verifies, and demuxes one TCP segment arriving on the
// classic (copying) path. ethSrc, when non-nil, is the frame's layer-2
// source for direct replies.
func (t *tcpTable) input(h IPv4Header, payload []byte, clk *vtime.Clock, shard int, ethSrc *[6]byte) {
	seg, ok := parseTCP(payload)
	if !ok {
		return
	}
	sum := pseudoHeaderSum(h.Src, h.Dst, ProtoTCP, len(payload))
	if checksumFold(checksumPartial(sum, payload)) != 0 {
		return
	}
	t.inputSeg(h.Src, seg, clk, shard, ethSrc)
}

// inputSeg demuxes one already-verified TCP segment through the given
// shard's connections and the lock-free listener map. The certify-in-place view path enters here directly
// after its single-snapshot parse and single-pass checksum.
func (t *tcpTable) inputSeg(src IP4, seg tcpSeg, clk *vtime.Clock, shard int, ethSrc *[6]byte) {
	if shard < 0 || shard >= len(t.shards) {
		shard = 0
	}
	key := connKey{src, seg.srcPort, seg.dstPort}
	d := &t.shards[shard]
	d.mu.RLock()
	c := d.conns[key]
	d.mu.RUnlock()
	l := t.listeners.lookup(seg.dstPort)

	clk.Charge(vtime.CompStack, t.stack.model.KernelTCPPerSegment)

	if c != nil {
		c.noteMAC(ethSrc)
		c.segArrives(seg, clk)
		return
	}
	if l != nil && seg.flags&TCPFlagSYN != 0 && seg.flags&TCPFlagACK == 0 {
		t.handleSYN(l, key, seg, clk, ethSrc)
		return
	}
	if t.cookies && l != nil && seg.flags&TCPFlagACK != 0 && seg.flags&(TCPFlagSYN|TCPFlagRST) == 0 {
		t.acceptCookie(l, key, seg, clk, ethSrc)
		return
	}
	if seg.flags&TCPFlagRST == 0 {
		t.refuse()
		t.sendRST(src, ethSrc, seg, clk)
	}
}

// sendRST answers a segment that matches no connection.
func (t *tcpTable) sendRST(dst IP4, ethSrc *[6]byte, in tcpSeg, clk *vtime.Clock) {
	out := tcpSeg{
		srcPort: in.dstPort,
		dstPort: in.srcPort,
		flags:   TCPFlagRST | TCPFlagACK,
		ack:     in.seq + uint32(len(in.payload)),
	}
	if in.flags&TCPFlagSYN != 0 {
		out.ack++
	}
	if in.flags&TCPFlagACK != 0 {
		out.seq = in.ack
		out.flags = TCPFlagRST
	}
	t.sendSegTo(dst, ethSrc, out, clk)
}

// sendSegTo transmits one segment — a connection's, or a connectionless
// SYN|ACK cookie reply or RST — as a run of one on its flow's lane: the
// header is built in trusted scratch and the payload's only copy is the
// one into the frame. With a MAC in hand (the flow's cached one, or the
// triggering frame's source) the reply goes straight to it — never
// through ARP, so a spoofed source can neither stall a pump on
// resolution nor grow the neighbour cache.
func (t *tcpTable) sendSegTo(dst IP4, mac *[6]byte, seg tcpSeg, clk *vtime.Clock) {
	var h [TCPHeaderBytes]byte
	putTCPHeader(h[:], seg)
	lane := TXShard(t.stack.ip, dst, seg.srcPort, seg.dstPort, len(t.shards))
	t.stack.sendRun(mac, lane, ProtoTCP, dst, h[:], [][]byte{seg.payload}, clk)
}

// handleSYN answers a listener SYN: statelessly with a SYN-cookie
// SYN|ACK on the enclave configuration, or by spawning a SYN_RCVD child
// on the stateful kernel configuration.
func (t *tcpTable) handleSYN(l *TCPSocket, key connKey, seg tcpSeg, clk *vtime.Clock, ethSrc *[6]byte) {
	if t.cookies {
		iss := t.cookieISS(key)
		out := tcpSeg{
			srcPort: key.localPort,
			dstPort: key.remotePort,
			flags:   TCPFlagSYN | TCPFlagACK,
			seq:     iss,
			ack:     seg.seq + 1,
			wnd:     rcvBufCap,
		}
		if c := t.stack.cfg.Counters; c != nil {
			c.TCPCookiesSent.Add(1)
		}
		t.sendSegTo(key.remoteIP, ethSrc, out, clk)
		return
	}
	c := newTCPSocket(t)
	c.parent = l
	c.local = Addr{IP: t.stack.ip, Port: seg.dstPort}
	c.remote = Addr{IP: key.remoteIP, Port: seg.srcPort}
	c.rcvNxt = seg.seq + 1
	iss := t.nextISS()
	c.sndUna, c.sndNxt = iss, iss+1
	c.sndWnd = uint32(seg.wnd)
	c.state = stateSynRcvd
	if !t.register(key, c) {
		return // stale duplicate SYN
	}
	c.noteMAC(ethSrc)
	c.mu.Lock()
	c.sendSegLocked(tcpSeg{flags: TCPFlagSYN | TCPFlagACK, seq: iss, ack: c.rcvNxt}, clk)
	c.armRTOLocked()
	c.mu.Unlock()
}

// segArrives is the per-connection segment processor.
func (c *TCPSocket) segArrives(seg tcpSeg, clk *vtime.Clock) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if seg.flags&TCPFlagRST != 0 {
		if c.state == stateSynSent && seg.ack != c.sndNxt {
			return // blind RST with wrong ack
		}
		err := ErrReset
		if c.state == stateSynSent {
			err = ErrRefused
		}
		c.teardownLocked(err)
		return
	}

	// Handshake progress.
	switch c.state {
	case stateSynSent:
		if seg.flags&(TCPFlagSYN|TCPFlagACK) == TCPFlagSYN|TCPFlagACK && seg.ack == c.sndNxt {
			c.rcvNxt = seg.seq + 1
			c.sndUna = seg.ack
			c.sndWnd = uint32(seg.wnd)
			c.state = stateEstablished
			c.rtoD = rtoInitial
			c.disarmRTOLocked()
			c.sendAckLocked(clk)
			c.cond.Broadcast()
		}
		return
	case stateSynRcvd:
		if seg.flags&TCPFlagACK != 0 && seg.ack == c.sndNxt {
			c.sndUna = seg.ack
			c.sndWnd = uint32(seg.wnd)
			c.state = stateEstablished
			c.rtoD = rtoInitial
			c.disarmRTOLocked()
			c.stamp.Raise(clk.Now())
			if c.parent != nil && !c.parent.offerBacklog(c) {
				// Backlog overflow or listener gone: drop the connection.
				c.table.refuse()
				c.teardownLocked(ErrRefused)
				return
			}
			// Fall through: the ACK may carry data.
		} else {
			return
		}
	case stateClosed, stateListen:
		return
	}

	// ACK processing.
	if seg.flags&TCPFlagACK != 0 {
		acked := seg.ack - c.sndUna
		inFlight := c.sndNxt - c.sndUna
		if acked > 0 && acked <= inFlight {
			dataAcked := acked
			if c.finSent && seg.ack == c.sndNxt {
				dataAcked-- // the FIN consumed one sequence number
			}
			if dataAcked > uint32(len(c.sndBuf)) {
				dataAcked = uint32(len(c.sndBuf))
			}
			c.sndBuf = c.sndBuf[dataAcked:]
			c.sndUna = seg.ack
			c.rtoD = rtoInitial
			if c.sndUna == c.sndNxt {
				c.disarmRTOLocked()
			} else {
				c.armRTOLocked()
			}
			c.cond.Broadcast()
			// Our FIN is acknowledged?
			if c.finSent && seg.ack == c.sndNxt {
				switch c.state {
				case stateFinWait1:
					c.state = stateFinWait2
				case stateClosing:
					c.enterTimeWaitLocked()
				case stateLastAck:
					c.teardownLocked(nil)
					return
				}
			}
		}
		c.sndWnd = uint32(seg.wnd)
	}

	// Data processing.
	data := seg.payload
	seq := seg.seq
	if len(data) > 0 {
		// Trim a retransmitted prefix we already have.
		if diff := c.rcvNxt - seq; diff > 0 && diff <= uint32(len(data)) {
			data = data[diff:]
			seq += diff
		}
		if seq == c.rcvNxt && len(data) > 0 && !c.rcvClosed {
			room := rcvBufCap - len(c.rcvBuf)
			if room > 0 {
				if len(data) > room {
					data = data[:room] // excess is dropped; peer retransmits
				}
				c.rcvBuf = append(c.rcvBuf, data...)
				c.rcvNxt += uint32(len(data))
				c.stamp.Raise(clk.Now())
				c.cond.Broadcast()
			}
		}
		// Every data-bearing segment is acknowledged — in-sequence,
		// out-of-order, and one trimmed to nothing (a full duplicate)
		// alike. Swallowing a full duplicate silently livelocks loss
		// recovery: when the ACK of a delivered segment is lost, the
		// peer retransmits that same segment forever and the bytes
		// queued behind it never unstick.
		c.sendAckLocked(clk)
	}

	// FIN processing.
	if seg.flags&TCPFlagFIN != 0 && seq+uint32(len(data)) == c.rcvNxt || seg.flags&TCPFlagFIN != 0 && seg.seq == c.rcvNxt {
		if !c.rcvClosed {
			c.rcvNxt++
			c.rcvClosed = true
			c.stamp.Raise(clk.Now())
			c.sendAckLocked(clk)
			c.cond.Broadcast()
			switch c.state {
			case stateEstablished:
				c.state = stateCloseWait
			case stateFinWait1:
				c.state = stateClosing
			case stateFinWait2:
				c.enterTimeWaitLocked()
			}
		} else {
			c.sendAckLocked(clk) // retransmitted FIN
		}
	}

	// Window may have opened: push more data.
	if c.stateSendableLocked() || c.state == stateFinWait1 || c.state == stateLastAck {
		c.trySendLocked(clk)
	}
}

// enterTimeWaitLocked models TIME_WAIT as immediate reclamation: the
// simulated network cannot deliver old duplicates out of order.
func (c *TCPSocket) enterTimeWaitLocked() {
	c.state = stateTimeWait
	c.teardownLocked(nil)
	c.state = stateTimeWait // teardown sets Closed; report TIME_WAIT
}
