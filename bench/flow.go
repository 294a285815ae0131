package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"rakis/internal/sys"
	"rakis/internal/vtime"
)

// A flow is one closed-loop load generator: it owns one socket,
// connection or file, keeps a fixed window of requests outstanding, and
// refills a slot only when that slot's reply has arrived and been
// checked against the request. Exactly one goroutine drives a flow.
type flow interface {
	// drive issues requests until the limit is reached, then waits for
	// every outstanding reply. It returns an error when a call fails. A
	// reply that never comes parks it for good; the phase monitor turns
	// that into an abort.
	drive(u until) error
	// clock is the virtual clock whose advance over a phase is this
	// flow's share of the virtual makespan.
	clock() *vtime.Clock
	tally() *tally
}

// until bounds one phase of a flow: a fixed number of requests (warm-up)
// or a wall-clock deadline (the timed window). The deadline is polled
// every 16 requests so time.Now stays out of the per-op cost.
type until struct {
	ops      uint64
	deadline time.Time
}

// phase is one flow's progress through an until.
type phase struct {
	until
	issued uint64
	over   bool
}

// next reports whether the flow may issue one more request, and counts
// it.
func (p *phase) next() bool {
	if !p.over {
		if p.ops > 0 {
			p.over = p.issued >= p.ops
		} else {
			p.over = p.issued&15 == 0 && !time.Now().Before(p.deadline)
		}
	}
	if p.over {
		return false
	}
	p.issued++
	return true
}

// tally is what one flow reports. done is read by the sampler and the
// watchdog while the flow runs; everything else is read after drive
// returns.
type tally struct {
	done atomic.Uint64 // ops completed (verified or written off)
	_    [56]byte      // keep each flow's hot counter on its own cache line

	attempted uint64
	failed    uint64

	// Round-trip samples, one op in rttEvery, taken only on a traced run.
	sample bool
	rttNS  []uint32 // wall clock
	rttCyc []uint32 // the flow's virtual clock
}

// rttEvery is the round-trip sampling stride of a traced run.
const rttEvery = 8

// opTimeout is how long a phase may go without any flow completing an
// op before the run is given up. A hang must abort, never turn into a
// number.
var opTimeout = 5 * time.Second

var errOpTimeout = errors.New("no op completed within the per-op timeout")

// hdrLen is the request header, big endian: flow id (16 bits), window
// slot (16 bits), sequence number (32 bits).
const hdrLen = 8

// maxDepth bounds a flow's window.
const maxDepth = 64

// slot is one position of a flow's window: at most one request is
// outstanding on it, and it is refilled only when that request's reply
// has arrived and been checked.
type slot struct {
	fill    []byte // the seeded payload this slot sends, header rewritten per request
	seq     uint64
	busy    bool
	sentNS  int64
	sentCyc uint64
}

// window tracks the outstanding requests of one flow and checks each
// reply: it must name a busy slot, carry that slot's current sequence
// number, and match the request byte for byte. Anything else (a
// duplicate, a late or alien reply) fails on its own. On an ordered flow
// (one server thread, or a stream) a reply that skips ahead also fails
// every older outstanding request, because their replies were dropped
// or overtaken. On an unordered flow (datagrams echoed by several
// server threads) replies may come in any order; a reply that never
// comes leaves its slot busy, and the flow times out when it drains.
type window struct {
	t        *tally
	id       uint16
	ordered  bool
	slots    []slot
	free     []uint16
	next     uint64 // sequence number of the next request
	expect   uint64 // ordered flows: sequence number of the next reply
	clk      *vtime.Clock
	inflight int
}

func newWindow(t *tally, id uint16, ordered bool, size, depth int, clk *vtime.Clock, rng *rand.Rand) (window, error) {
	if depth < 1 || depth > maxDepth || size < hdrLen {
		return window{}, fmt.Errorf("window of %d requests of %d bytes is out of range", depth, size)
	}
	w := window{t: t, id: id, ordered: ordered, slots: make([]slot, depth), clk: clk}
	for i := range w.slots {
		w.slots[i].fill = make([]byte, size)
		rng.Read(w.slots[i].fill)
		w.free = append(w.free, uint16(depth-1-i))
	}
	return w, nil
}

// issue takes a free slot and returns the request to send on it. The
// caller has checked inflight against the depth.
func (w *window) issue() []byte {
	i := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	sl := &w.slots[i]
	sl.seq, sl.busy = w.next, true
	binary.BigEndian.PutUint16(sl.fill, w.id)
	binary.BigEndian.PutUint16(sl.fill[2:], i)
	binary.BigEndian.PutUint32(sl.fill[4:], uint32(sl.seq))
	if w.t.sample && sl.seq%rttEvery == 0 {
		sl.sentNS = time.Now().UnixNano()
		sl.sentCyc = w.clk.Now()
	}
	w.next++
	w.inflight++
	w.t.attempted++
	return sl.fill
}

func (w *window) reply(p []byte) {
	if len(p) < hdrLen {
		w.t.failed++
		return
	}
	i := binary.BigEndian.Uint16(p[2:])
	if int(i) >= len(w.slots) || !w.slots[i].busy ||
		binary.BigEndian.Uint32(p[4:]) != uint32(w.slots[i].seq) {
		w.t.failed++
		return
	}
	sl := &w.slots[i]
	if w.ordered {
		if sl.seq != w.expect {
			for j := range w.slots {
				if w.slots[j].busy && w.slots[j].seq < sl.seq {
					w.complete(uint16(j), false)
				}
			}
		}
		w.expect = sl.seq + 1
	}
	if w.t.sample && sl.seq%rttEvery == 0 {
		w.t.rttNS = append(w.t.rttNS, uint32(time.Now().UnixNano()-sl.sentNS))
		w.t.rttCyc = append(w.t.rttCyc, uint32(w.clk.Now()-sl.sentCyc))
	}
	w.complete(i, bytes.Equal(p, sl.fill))
}

// complete retires the request on slot i, verified or failed, and frees
// the slot.
func (w *window) complete(i uint16, ok bool) {
	if !ok {
		w.t.failed++
	}
	w.slots[i].busy = false
	w.free = append(w.free, i)
	w.inflight--
	w.t.done.Add(1)
}

// udpFlow is one client socket echoing datagrams off the server.
type udpFlow struct {
	cli   sys.Sys
	fd    int
	dst   sys.Addr
	depth int // requests kept outstanding
	win   window
	tal   tally
	buf   []byte
}

func newUDPFlow(cli sys.Sys, id uint16, srcPort uint16, dst sys.Addr, size, depth int, ordered bool, rng *rand.Rand) (*udpFlow, error) {
	fd, err := cli.Socket(sys.UDP)
	if err != nil {
		return nil, err
	}
	if err := cli.Bind(fd, srcPort); err != nil {
		return nil, fmt.Errorf("bind client port %d: %w", srcPort, err)
	}
	f := &udpFlow{cli: cli, fd: fd, dst: dst, depth: depth, buf: make([]byte, size+64)}
	if f.win, err = newWindow(&f.tal, id, ordered, size, depth, cli.Clock(), rng); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *udpFlow) clock() *vtime.Clock { return f.cli.Clock() }
func (f *udpFlow) tally() *tally       { return &f.tal }

func (f *udpFlow) drive(u until) error {
	ph := phase{until: u}
	for {
		for f.win.inflight < f.depth && ph.next() {
			if _, err := f.cli.SendTo(f.fd, f.win.issue(), f.dst); err != nil {
				return fmt.Errorf("flow %d send: %w", f.win.id, err)
			}
		}
		if f.win.inflight == 0 {
			return nil
		}
		// A blocking receive parks on the socket's wake-up channel; a
		// poll would add the host kernel's 50 µs poll quantum to every
		// drained window.
		n, _, err := f.cli.RecvFrom(f.fd, f.buf, true)
		if err != nil {
			return fmt.Errorf("flow %d: %d outstanding: %w", f.win.id, f.win.inflight, err)
		}
		f.win.reply(f.buf[:n])
	}
}

// tcpFlow is one persistent client connection pipelining fixed-size
// requests; the server answers each with the same bytes. The stream
// keeps order, so any reply out of sequence is a failure.
type tcpFlow struct {
	cli   sys.Sys
	fd    int
	depth int
	size  int
	win   window
	tal   tally
	buf   []byte // unparsed reply bytes
	rd    []byte
}

func newTCPFlow(cli sys.Sys, id uint16, dst sys.Addr, size, depth int, rng *rand.Rand) (*tcpFlow, error) {
	fd, err := cli.Socket(sys.TCP)
	if err != nil {
		return nil, err
	}
	if err := cli.Connect(fd, dst); err != nil {
		return nil, fmt.Errorf("connect flow %d: %w", id, err)
	}
	f := &tcpFlow{cli: cli, fd: fd, depth: depth, size: size, rd: make([]byte, 64<<10)}
	if f.win, err = newWindow(&f.tal, id, true, size, depth, cli.Clock(), rng); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *tcpFlow) clock() *vtime.Clock { return f.cli.Clock() }
func (f *tcpFlow) tally() *tally       { return &f.tal }

func (f *tcpFlow) drive(u until) error {
	ph := phase{until: u}
	for {
		for f.win.inflight < f.depth && ph.next() {
			if err := sendFull(f.cli, f.fd, f.win.issue()); err != nil {
				return fmt.Errorf("flow %d send: %w", f.win.id, err)
			}
		}
		if f.win.inflight == 0 {
			return nil
		}
		n, err := f.cli.Recv(f.fd, f.rd, true)
		if err != nil {
			return fmt.Errorf("flow %d: %d outstanding: %w", f.win.id, f.win.inflight, err)
		}
		if n == 0 {
			return fmt.Errorf("flow %d: server closed the connection with %d outstanding", f.win.id, f.win.inflight)
		}
		f.buf = append(f.buf, f.rd[:n]...)
		off := 0
		for len(f.buf)-off >= f.size && f.win.inflight > 0 {
			f.win.reply(f.buf[off : off+f.size])
			off += f.size
		}
		f.buf = f.buf[:copy(f.buf, f.buf[off:])]
	}
}

// sendFull writes all of p to a stream socket; Send blocks while the
// send buffer is full, so a short write is an error.
func sendFull(t sys.Sys, fd int, p []byte) error {
	n, err := t.Send(fd, p)
	if err == nil && n != len(p) {
		err = fmt.Errorf("short send: %d of %d bytes", n, len(p))
	}
	return err
}

// fileFlow is one server thread alternating block writes and reads at
// seeded block-aligned offsets of a pre-sized file. It keeps a shadow
// copy: every read is checked against it, and so is the whole file when
// the run ends.
type fileFlow struct {
	t      sys.Sys
	fd     int
	block  int
	blocks int
	rng    *rand.Rand
	fills  [][]byte // seeded blocks the writes cycle through, stamped per write
	shadow []byte
	seq    uint64
	tal    tally
	sp     *apiSpans
	rd     []byte
}

// fsyncEvery is how many file ops go between two fsyncs.
const fsyncEvery = 1024

func newFileFlow(t sys.Sys, path string, shadow []byte, block int, rng *rand.Rand) (*fileFlow, error) {
	fd, err := t.Open(path, sys.ORdwr)
	if err != nil {
		return nil, err
	}
	f := &fileFlow{
		t: t, fd: fd, block: block, blocks: len(shadow) / block, rng: rng,
		fills: make([][]byte, 16), shadow: shadow, rd: make([]byte, block),
	}
	for i := range f.fills {
		f.fills[i] = make([]byte, block)
		rng.Read(f.fills[i])
	}
	return f, nil
}

func (f *fileFlow) clock() *vtime.Clock { return f.t.Clock() }
func (f *fileFlow) tally() *tally       { return &f.tal }

func (f *fileFlow) drive(u until) error {
	for ph := (phase{until: u}); ph.next(); {
		off := int64(f.rng.Intn(f.blocks)) * int64(f.block)
		f.tal.attempted++
		var start int64
		if f.tal.sample && f.seq%rttEvery == 0 {
			start = time.Now().UnixNano()
		}
		startCyc := f.t.Clock().Now()
		if f.seq%2 == 0 {
			p := f.fills[f.seq/2%uint64(len(f.fills))]
			binary.BigEndian.PutUint64(p, f.seq) // no two writes are alike
			t0 := f.sp.begin()
			n, err := f.t.Pwrite(f.fd, p, off)
			f.sp.end(spanSend, t0)
			if err != nil {
				return fmt.Errorf("pwrite at %d: %w", off, err)
			}
			// A short write is a failed op; the shadow takes what the
			// call says it wrote.
			copy(f.shadow[off:], p[:n])
			if n != len(p) {
				f.tal.failed++
			}
		} else {
			t0 := f.sp.begin()
			n, err := f.t.Pread(f.fd, f.rd, off)
			f.sp.end(spanRecv, t0)
			if err != nil {
				return fmt.Errorf("pread at %d: %w", off, err)
			}
			if !bytes.Equal(f.rd[:n], f.shadow[off:off+int64(f.block)]) {
				f.tal.failed++
			}
		}
		if start != 0 {
			f.tal.rttNS = append(f.tal.rttNS, uint32(time.Now().UnixNano()-start))
			f.tal.rttCyc = append(f.tal.rttCyc, uint32(f.t.Clock().Now()-startCyc))
		}
		f.seq++
		if f.seq%fsyncEvery == 0 {
			t0 := f.sp.begin()
			err := f.t.Fsync(f.fd)
			f.sp.end(spanWait, t0)
			if err != nil {
				return fmt.Errorf("fsync: %w", err)
			}
		}
		f.tal.done.Add(1)
	}
	return nil
}
