package netstack

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"rakis/internal/netsim"
	"rakis/internal/vtime"
)

// devLink adapts a netsim.Device to the stack's LinkDevice.
type devLink struct{ dev *netsim.Device }

func (l devLink) SendFrame(data []byte, clk *vtime.Clock) (uint64, error) {
	return l.dev.Transmit(data, clk.Now())
}
func (l devLink) MAC() [6]byte { return l.dev.MAC() }
func (l devLink) MTU() int     { return l.dev.MTU() }

type world struct {
	a, b *Stack
}

// newWorld wires two full stacks across a simulated 25 Gbps link.
func newWorld(t *testing.T, mutate func(a, b *Config)) *world {
	t.Helper()
	m := vtime.Default()
	da, db := netsim.NewPair(m,
		netsim.Config{Name: "eth0", MAC: [6]byte{2, 0, 0, 0, 0, 1}},
		netsim.Config{Name: "eth1", MAC: [6]byte{2, 0, 0, 0, 0, 2}},
	)
	ca := Config{Name: "a", Dev: devLink{da}, IP: IP4{10, 0, 0, 1}, Model: m, EnableTCP: true, EnableICMP: true}
	cb := Config{Name: "b", Dev: devLink{db}, IP: IP4{10, 0, 0, 2}, Model: m, EnableTCP: true, EnableICMP: true}
	if mutate != nil {
		mutate(&ca, &cb)
	}
	sa, err := New(ca)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := New(cb)
	if err != nil {
		t.Fatal(err)
	}
	da.Start(func(q int, f netsim.Frame, clk *vtime.Clock) { sa.Input(f.Data, clk) })
	db.Start(func(q int, f netsim.Frame, clk *vtime.Clock) { sb.Input(f.Data, clk) })
	t.Cleanup(func() {
		sa.Close()
		sb.Close()
		da.Close()
		db.Close()
	})
	return &world{a: sa, b: sb}
}

func TestUDPEndToEnd(t *testing.T) {
	w := newWorld(t, nil)
	srv, err := w.b.UDPBind(5000)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := w.a.UDPBind(0)
	if err != nil {
		t.Fatal(err)
	}

	var cclk, sclk vtime.Clock
	msg := []byte("hello over simulated udp")
	if err := cli.SendTo(msg, Addr{IP4{10, 0, 0, 2}, 5000}, &cclk); err != nil {
		t.Fatal(err)
	}
	d, err := srv.RecvFrom(&sclk, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, msg) {
		t.Fatalf("payload = %q", d.Payload)
	}
	if d.Src.IP != (IP4{10, 0, 0, 1}) || d.Src.Port != cli.LocalAddr().Port {
		t.Fatalf("src = %v", d.Src)
	}
	// Virtual time flowed: the receiver's clock is ahead of the sender's
	// send-start (wire + kernel processing happened in between).
	if sclk.Now() <= 0 || sclk.Now() < d.Stamp {
		t.Fatalf("receiver clock %d, stamp %d", sclk.Now(), d.Stamp)
	}

	// And the reply direction works (ARP already warm).
	if err := srv.SendTo([]byte("pong"), d.Src, &sclk); err != nil {
		t.Fatal(err)
	}
	r, err := cli.RecvFrom(&cclk, true)
	if err != nil || string(r.Payload) != "pong" {
		t.Fatalf("reply = %q, %v", r.Payload, err)
	}
}

func TestUDPEcho1000(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5001)
	cli, _ := w.a.UDPBind(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var clk vtime.Clock
		for i := 0; i < 1000; i++ {
			d, err := srv.RecvFrom(&clk, true)
			if err != nil {
				t.Errorf("server recv %d: %v", i, err)
				return
			}
			if err := srv.SendTo(d.Payload, d.Src, &clk); err != nil {
				t.Errorf("server send %d: %v", i, err)
				return
			}
		}
	}()
	var clk vtime.Clock
	buf := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		buf[0], buf[1] = byte(i), byte(i>>8)
		if err := cli.SendTo(buf, Addr{IP4{10, 0, 0, 2}, 5001}, &clk); err != nil {
			t.Fatal(err)
		}
		d, err := cli.RecvFrom(&clk, true)
		if err != nil {
			t.Fatal(err)
		}
		if d.Payload[0] != byte(i) || d.Payload[1] != byte(i>>8) {
			t.Fatalf("echo %d corrupted", i)
		}
	}
	<-done
	if clk.Now() == 0 {
		t.Fatal("client clock did not advance")
	}
}

func TestUDPLargeDatagramFragments(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5002)
	cli, _ := w.a.UDPBind(0)
	payload := make([]byte, 9000) // 7 fragments at MTU 1500
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var clk vtime.Clock
	if err := cli.SendTo(payload, Addr{IP4{10, 0, 0, 2}, 5002}, &clk); err != nil {
		t.Fatal(err)
	}
	d, err := srv.RecvFrom(&clk, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Fatal("fragmented datagram corrupted")
	}
}

func TestUDPMaxSizeRejected(t *testing.T) {
	w := newWorld(t, nil)
	cli, _ := w.a.UDPBind(0)
	var clk vtime.Clock
	err := cli.SendTo(make([]byte, MaxUDPPayload+1), Addr{IP4{10, 0, 0, 2}, 1}, &clk)
	if !errors.Is(err, ErrMsgSize) {
		t.Fatalf("err = %v, want ErrMsgSize", err)
	}
}

func TestUDPBindConflicts(t *testing.T) {
	w := newWorld(t, nil)
	if _, err := w.a.UDPBind(7000); err != nil {
		t.Fatal(err)
	}
	if _, err := w.a.UDPBind(7000); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v, want ErrPortInUse", err)
	}
	e1, _ := w.a.UDPBind(0)
	e2, _ := w.a.UDPBind(0)
	if e1.LocalAddr().Port == e2.LocalAddr().Port {
		t.Fatal("ephemeral ports must differ")
	}
}

func TestUDPConnectSendRecv(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5003)
	cli, _ := w.a.UDPBind(0)
	cli.Connect(Addr{IP4{10, 0, 0, 2}, 5003})
	if _, ok := cli.RemoteAddr(); !ok {
		t.Fatal("RemoteAddr after Connect")
	}
	var clk vtime.Clock
	if err := cli.Send([]byte("via connect"), &clk); err != nil {
		t.Fatal(err)
	}
	d, err := srv.RecvFrom(&clk, true)
	if err != nil || string(d.Payload) != "via connect" {
		t.Fatalf("%q %v", d.Payload, err)
	}
	// Unconnected Send fails.
	if err := srv.Send([]byte("x"), &clk); err == nil {
		t.Fatal("Send on unconnected socket must fail")
	}
}

func TestUDPNonblockingAndClose(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5004)
	var clk vtime.Clock
	if _, err := srv.RecvFrom(&clk, false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty nonblocking recv = %v, want ErrWouldBlock", err)
	}
	if srv.Ready(PollIn) != 0 {
		t.Fatal("Readable on empty socket")
	}
	recvDone := make(chan error, 1)
	go func() {
		_, err := srv.RecvFrom(&clk, true)
		recvDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	if err := <-recvDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close = %v, want ErrClosed", err)
	}
	if err := srv.SendTo([]byte("x"), Addr{}, &clk); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
	// Port is free again.
	if _, err := w.b.UDPBind(5004); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

// recvWithin is a blocking RecvFrom with a real-time cap, for tests that
// must notice a datagram that never arrives. After a timeout the receive
// is still parked on the socket (only Close unblocks it), so use it
// where a late datagram no longer matters.
func recvWithin(u *UDPSocket, clk *vtime.Clock, d time.Duration) (Datagram, error) {
	type result struct {
		d   Datagram
		err error
	}
	done := make(chan result, 1)
	go func() {
		dg, err := u.RecvFrom(clk, true)
		done <- result{dg, err}
	}()
	select {
	case r := <-done:
		return r.d, r.err
	case <-time.After(d):
		return Datagram{}, ErrTimeout
	}
}

func TestCorruptUDPChecksumDropped(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5006)
	// Build a frame by hand with a broken UDP checksum and inject it.
	dgram := make([]byte, UDPHeaderBytes+4)
	put16(dgram[0:2], 1234)
	put16(dgram[2:4], 5006)
	put16(dgram[4:6], uint16(len(dgram)))
	put16(dgram[6:8], 0xBEEF) // wrong
	ip := MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoUDP, Src: IP4{10, 0, 0, 1}, Dst: IP4{10, 0, 0, 2}}, dgram)
	frame := MarshalEth(EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 2}, Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4}, ip)
	var clk vtime.Clock
	w.b.Input(frame, &clk)
	if srv.Ready(PollIn) != 0 {
		t.Fatal("corrupt-checksum datagram must be dropped")
	}
	// Zero checksum means "no checksum" and is accepted.
	put16(dgram[6:8], 0)
	ip = MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoUDP, Src: IP4{10, 0, 0, 1}, Dst: IP4{10, 0, 0, 2}}, dgram)
	frame = MarshalEth(EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 2}, Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4}, ip)
	w.b.Input(frame, &clk)
	if srv.Ready(PollIn) == 0 {
		t.Fatal("zero-checksum datagram must be accepted")
	}
}

func TestICMPEcho(t *testing.T) {
	w := newWorld(t, nil)
	// Observe b's replies by sniffing a's input: bind a raw check via a
	// socket is not possible, so instead send an echo request from a's
	// stack internals and verify no crash plus ARP learning; then check
	// reachability indirectly via UDP.
	body := []byte{0, 1, 0, 1, 'p', 'i', 'n', 'g'}
	req := marshalICMP(icmpEchoRequest, 0, body)
	var clk vtime.Clock
	if err := w.a.sendIP(ProtoICMP, IP4{10, 0, 0, 2}, req, &clk); err != nil {
		t.Fatal(err)
	}
	// The reply comes back to a's stack; a accepts it silently. Give the
	// softirq a moment, then confirm both stacks are still healthy.
	time.Sleep(20 * time.Millisecond)
	srv, _ := w.b.UDPBind(5007)
	cli, _ := w.a.UDPBind(0)
	cli.SendTo([]byte("after ping"), Addr{IP4{10, 0, 0, 2}, 5007}, &clk)
	if _, err := recvWithin(srv, &clk, time.Second); err != nil {
		t.Fatalf("stack unhealthy after ICMP exchange: %v", err)
	}
}

func TestStackCloseErrorsSockets(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5008)
	var clk vtime.Clock
	go func() {
		time.Sleep(10 * time.Millisecond)
		w.b.Close()
	}()
	if _, err := srv.RecvFrom(&clk, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on closed stack = %v, want ErrClosed", err)
	}
	if _, err := w.b.UDPBind(5009); !errors.Is(err, ErrClosed) {
		t.Fatalf("bind on closed stack = %v, want ErrClosed", err)
	}
}

func TestTrimmedStackRefusesTCP(t *testing.T) {
	w := newWorld(t, func(a, b *Config) {
		a.EnableTCP = false
		a.EnableICMP = false
	})
	if _, err := w.a.TCPListen(80, 1); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("TCPListen on trimmed stack = %v, want ErrTrimmed", err)
	}
	var clk vtime.Clock
	if _, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 80}, &clk); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("TCPConnect on trimmed stack = %v, want ErrTrimmed", err)
	}
}

// TestScalarSendIsBatchOfOne: SendTo is SendToN at width one — the same
// charges to the caller's clock, the same frame on the link, and the
// same heap cost: none, the frame being built in the buffer it leaves
// from.
func TestScalarSendIsBatchOfOne(t *testing.T) {
	peer := Addr{IP: IP4{10, 0, 0, 1}, Port: 7}
	link := &capLink{}
	s, err := New(Config{Name: "enclave", Dev: link, IP: IP4{10, 0, 0, 9},
		StaticARP: map[IP4][6]byte{peer.IP: {2, 0, 0, 0, 0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	sock, err := s.UDPBind(4242)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xA5}, 64)

	var scalarClk, vectorClk vtime.Clock
	if err := sock.SendTo(payload, peer, &scalarClk); err != nil {
		t.Fatal(err)
	}
	if n, err := sock.SendToN([][]byte{payload}, peer, &vectorClk); n != 1 || err != nil {
		t.Fatalf("SendToN = %d, %v", n, err)
	}
	if scalarClk.Now() != vectorClk.Now() || scalarClk.Now() == 0 {
		t.Fatalf("scalar send charged %d cycles, one-datagram vectored send %d", scalarClk.Now(), vectorClk.Now())
	}
	// The IP ID is the one field that moves between two sends.
	a, b := link.frames[0], link.frames[1]
	put16(a[EthHeaderBytes+4:], 0)
	put16(b[EthHeaderBytes+4:], 0)
	put16(a[EthHeaderBytes+10:], 0)
	put16(b[EthHeaderBytes+10:], 0)
	if !bytes.Equal(a, b) {
		t.Fatalf("frames differ:\n scalar %x\n vector %x", a, b)
	}

	s.dev = frameLender{sinkDevice{mac: link.MAC()}} // measure the stack, not the capture
	var clk vtime.Clock
	run := [][]byte{payload}
	const perDatagram = 0
	scalar := testing.AllocsPerRun(200, func() { sock.SendTo(payload, peer, &clk) })
	vector := testing.AllocsPerRun(200, func() { sock.SendToN(run, peer, &clk) })
	if !raceDetectorEnabled && (scalar != vector || scalar > perDatagram) {
		t.Fatalf("SendTo allocates %v objects, a one-datagram SendToN %v; want equal and <= %d",
			scalar, vector, perDatagram)
	}
}
