package netstack

// The stack has two front doors on purpose: Input takes trusted bytes
// (the simulated kernel's softirq), InputView takes a certified view
// over host-writable memory (the enclave's FM pump). They differ in
// payload custody and in what they charge, never in header rules — both
// decode through parseIPv4Header/parseUDPHeader/parseTCPHeader. The
// tests here hold them to that: the same frame sequence through either
// door must deliver the same datagrams, emit the same frames and move
// the same counters, and the shared decoders must agree with themselves
// at every prefix length the view path can freeze.

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"rakis/internal/mem"
	"rakis/internal/vtime"
)

// doorPair is two identically configured stacks with one bound UDP
// socket each: h takes minted views through InputView, ref takes the
// same bytes through Input.
type doorPair struct {
	h       *viewHarness
	sock    *UDPSocket
	ref     *refDoor
	refSock *UDPSocket
}

// refDoor is the Input side of a door pair: a stack configured like a
// viewHarness's, with its own capture link and counters.
type refDoor struct {
	stack *Stack
	link  *capLink
	ctrs  *vtime.Counters
}

// newRefDoor builds the Input-side twin of a stack configured by cfg
// (Dev and Counters are replaced by the door's own).
func newRefDoor(t testing.TB, cfg Config) *refDoor {
	t.Helper()
	r := &refDoor{link: &capLink{}, ctrs: &vtime.Counters{}}
	cfg.Dev, cfg.Counters = r.link, r.ctrs
	var err error
	if r.stack, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.stack.Close)
	return r
}

// newDoorPair twins h's stack behind the Input door and binds UDP port
// 4242 on both.
func newDoorPair(t testing.TB, h *viewHarness) *doorPair {
	t.Helper()
	p := &doorPair{h: h, ref: newRefDoor(t, h.stack.cfg)}
	var err error
	if p.sock, err = h.stack.UDPBind(4242); err != nil {
		t.Fatal(err)
	}
	if p.refSock, err = p.ref.stack.UDPBind(4242); err != nil {
		t.Fatal(err)
	}
	return p
}

// delivered is what a socket drain observed of one datagram.
type delivered struct {
	payload string
	src     Addr
}

func drainSocket(sock *UDPSocket) []delivered {
	var clk vtime.Clock
	var out []delivered
	for {
		d, err := sock.RecvFrom(&clk, false)
		if err != nil {
			return out
		}
		// Bytes is the single app-boundary copy; it releases a view.
		out = append(out, delivered{string(d.Bytes()), d.Src})
	}
}

// takeFrames empties a capture link and returns what it held, with the
// one field two stacks legitimately disagree on blanked: a SYN|ACK's
// sequence number is a cookie minted from the wall-clock epoch, which
// can tick between the two doors' turns (its checksum goes with it).
func takeFrames(l *capLink) [][]byte {
	l.mu.Lock()
	frames := l.frames
	l.frames = nil
	l.mu.Unlock()
	for _, f := range frames {
		if _, ipPkt, err := ParseEth(f); err == nil {
			if h, l4, err := ParseIPv4(ipPkt); err == nil && h.Proto == ProtoTCP &&
				len(l4) >= TCPHeaderBytes && l4[13]&TCPFlagSYN != 0 {
				copy(l4[4:8], []byte{0, 0, 0, 0})
				copy(l4[16:18], []byte{0, 0})
			}
		}
	}
	return frames
}

// agree feeds data through InputView on p.h (a minted view) and through
// Input on p.ref, drains both sockets, and reports the first observable
// difference: delivered datagrams, emitted frames, the RX/drop/refusal
// counters, or a UMem frame left out of the pool.
func (p *doorPair) agree(t testing.TB, data []byte) error {
	t.Helper()
	h, ref := p.h, p.ref
	if len(data) > int(h.u.FrameSize()) {
		data = data[:h.u.FrameSize()]
	}
	v, _ := h.mintView(t, data)
	var clk vtime.Clock
	h.stack.InputView(v, &clk)
	got := drainSocket(p.sock)
	if free := h.u.FreeFrames(); free != int(h.u.FrameCount()) {
		return fmt.Errorf("frame leaked: free = %d, want %d", free, h.u.FrameCount())
	}
	ref.stack.Input(data, &clk)
	want := drainSocket(p.refSock)

	if len(got) != len(want) {
		return fmt.Errorf("InputView delivered %d datagrams, Input %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("datagram %d: InputView delivered %q from %v, Input %q from %v",
				i, got[i].payload, got[i].src, want[i].payload, want[i].src)
		}
	}
	gotTx, wantTx := takeFrames(h.link), takeFrames(ref.link)
	if len(gotTx) != len(wantTx) {
		return fmt.Errorf("InputView emitted %d frames, Input %d", len(gotTx), len(wantTx))
	}
	for i := range gotTx {
		if !bytes.Equal(gotTx[i], wantTx[i]) {
			return fmt.Errorf("emitted frame %d differs:\n InputView %x\n Input     %x", i, gotTx[i], wantTx[i])
		}
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"PacketsRx", h.ctrs.PacketsRx.Load(), ref.ctrs.PacketsRx.Load()},
		{"PacketsDropped", h.ctrs.PacketsDropped.Load(), ref.ctrs.PacketsDropped.Load()},
		{"TCPRefused", h.ctrs.TCPRefused.Load(), ref.ctrs.TCPRefused.Load()},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s: InputView side reads %d, Input side %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// corpusFrames is every committed hostile frame plus every frame the
// stack's own TX encoder emits (emitFrames: what a peer running this
// stack would send), in a fixed order.
func corpusFrames(t testing.TB) (names []string, frames map[string][]byte) {
	frames = map[string][]byte{}
	for _, table := range []map[string][]byte{hostileFrames(), viewHostileFrames(), tcpHostileFrames()} {
		for name, data := range table {
			frames[name] = data
		}
	}
	for _, e := range emitFrames(t) {
		for i, f := range e.got {
			frames[fmt.Sprintf("emitted-%s-%02d", e.name, i)] = f
		}
	}
	for name := range frames {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, frames
}

// TestFrontDoorsAgree runs the three hostile corpora through both doors
// of identically configured stacks — the enclave TCP configuration, one
// bound UDP socket, one listener — once per address the corpora target.
func TestFrontDoorsAgree(t *testing.T) {
	names, frames := corpusFrames(t)
	for _, ip := range []IP4{{10, 0, 0, 9}, harnessIP} {
		h := newViewHarness(t)
		cfg := Config{Name: "enclave-tcp", Dev: h.link, IP: ip, Counters: h.ctrs, EnableTCP: true, TCPCookies: true}
		var err error
		if h.stack, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.stack.Close)
		p := newDoorPair(t, h)
		// One secret, so both listeners mint and accept the same cookies.
		p.ref.stack.tcp.cookieSecret = h.stack.tcp.cookieSecret
		for _, s := range []*Stack{h.stack, p.ref.stack} {
			if _, err = s.TCPListen(fuzzTCPPort, 4); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			if err := p.agree(t, frames[name]); err != nil {
				t.Fatalf("stack %v, frame %s: %v", ip, name, err)
			}
		}
		if h.ctrs.PacketsRx.Load() == 0 {
			t.Fatalf("stack %v: no corpus frame was addressed to it", ip)
		}
	}
}

// TestDecodersAgreeAtEveryPrefix feeds every corpus frame to the shared
// decoders at every prefix length the view path can freeze. They must
// never panic, and validateViewHeader must accept a prefix exactly when
// the whole frame decodes (ParseEth, ParseIPv4, then the L4 decoder), is
// unfragmented UDP or TCP, and its headers fit inside the prefix.
func TestDecodersAgreeAtEveryPrefix(t *testing.T) {
	names, frames := corpusFrames(t)
	accepted := 0
	for _, name := range names {
		frame := frames[name]
		// The whole-frame verdict and the header bytes it needs.
		need := -1
		if eth, ipPkt, err := ParseEth(frame); err == nil && eth.Type == EtherTypeIPv4 {
			if h, l4, err := ParseIPv4(ipPkt); err == nil && !h.MF && h.FragOff == 0 {
				switch h.Proto {
				case ProtoUDP:
					if parseUDPHeader(l4, len(l4), new(udpHeader)) {
						need = EthHeaderBytes + h.HdrLen + UDPHeaderBytes
					}
				case ProtoTCP:
					if dataOff, ok := parseTCPHeader(l4, len(l4), new(tcpSeg)); ok {
						need = EthHeaderBytes + h.HdrLen + dataOff
					}
				}
			}
		}
		for n := 0; n <= viewHeaderSnapMax && n <= len(frame); n++ {
			prefix := mem.Snap(frame[:n])
			_, _, _ = ParseIPv4(prefix)
			parseUDPHeader(prefix, len(frame), new(udpHeader))
			parseTCPHeader(prefix, len(frame), new(tcpSeg))
			_, ok := validateViewHeader(prefix, len(frame))
			if want := need >= 0 && n >= need; ok != want {
				t.Fatalf("%s: validateViewHeader(frame[:%d], %d) = %v, want %v (headers need %d bytes)",
					name, n, len(frame), ok, want, need)
			}
			if ok {
				accepted++
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no corpus frame was ever accepted: the table tested nothing")
	}
}
