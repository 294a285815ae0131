package netstack

// The TX path builds every frame in the buffer it leaves from: headers
// encoded in trusted scratch at fixed offsets, the L4 checksum summed
// over the caller's bytes, one copy of the payload. The marshal chain it
// replaced — L4 datagram, IPv4 packet, Ethernet frame, each a fresh
// buffer around the last — is kept here, verbatim, as the reference:
// every frame the stack emits must equal what the chain would have
// produced for the same IP ID, byte for byte.

import (
	"bytes"
	"fmt"
	"testing"

	"rakis/internal/vtime"
)

func refEth(h EthHeader, payload []byte) []byte {
	frame := make([]byte, EthHeaderBytes+len(payload))
	copy(frame[0:6], h.Dst[:])
	copy(frame[6:12], h.Src[:])
	put16(frame[12:14], h.Type)
	copy(frame[EthHeaderBytes:], payload)
	return frame
}

func refIPv4(h IPv4Header, payload []byte) []byte {
	pkt := make([]byte, IPv4HeaderBytes+len(payload))
	pkt[0] = 0x45
	put16(pkt[2:4], uint16(IPv4HeaderBytes+len(payload)))
	put16(pkt[4:6], h.ID)
	var fl uint16
	if h.MF {
		fl |= 0x2000
	}
	fl |= (h.FragOff / 8) & 0x1FFF
	put16(pkt[6:8], fl)
	pkt[8] = h.TTL
	pkt[9] = h.Proto
	copy(pkt[12:16], h.Src[:])
	copy(pkt[16:20], h.Dst[:])
	put16(pkt[10:12], Checksum(pkt[:IPv4HeaderBytes]))
	copy(pkt[IPv4HeaderBytes:], payload)
	return pkt
}

func refFragments(h IPv4Header, payload []byte, mtu int) [][]byte {
	if len(payload)+IPv4HeaderBytes <= mtu {
		return [][]byte{refIPv4(h, payload)}
	}
	maxData := (mtu - IPv4HeaderBytes) &^ 7
	var pkts [][]byte
	for off := 0; off < len(payload); off += maxData {
		fh := h
		fh.FragOff = uint16(off)
		end := off + maxData
		if fh.MF = end < len(payload); !fh.MF {
			end = len(payload)
		}
		pkts = append(pkts, refIPv4(fh, payload[off:end]))
	}
	return pkts
}

func refUDP(src, dst Addr, payload []byte) []byte {
	dgram := make([]byte, UDPHeaderBytes+len(payload))
	put16(dgram[0:2], src.Port)
	put16(dgram[2:4], dst.Port)
	put16(dgram[4:6], uint16(len(dgram)))
	copy(dgram[UDPHeaderBytes:], payload)
	ck := checksumFold(checksumPartial(pseudoHeaderSum(src.IP, dst.IP, ProtoUDP, len(dgram)), dgram))
	if ck == 0 {
		ck = 0xFFFF
	}
	put16(dgram[6:8], ck)
	return dgram
}

func refTCP(src, dst IP4, s tcpSeg) []byte {
	b := make([]byte, TCPHeaderBytes+len(s.payload))
	put16(b[0:2], s.srcPort)
	put16(b[2:4], s.dstPort)
	put32(b[4:8], s.seq)
	put32(b[8:12], s.ack)
	b[12] = (TCPHeaderBytes / 4) << 4
	b[13] = s.flags
	put16(b[14:16], s.wnd)
	copy(b[TCPHeaderBytes:], s.payload)
	put16(b[16:18], checksumFold(checksumPartial(pseudoHeaderSum(src, dst, ProtoTCP, len(b)), b)))
	return b
}

// emitted is one case of the differential: the frames the stack put on
// the link and the frames the reference chain builds for the same send.
type emitted struct {
	name      string
	got, want [][]byte
}

// encoderPayload is n deterministic bytes with no period a checksum
// could hide behind.
func encoderPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + i>>8 + 7)
	}
	return p
}

// emitFrames drives the TX path of one stack (10.0.0.1, MTU 1500) over a
// capture link, every frame addressed to harnessIP where the front-door
// stacks listen: UDP at every length that matters (empty, odd, even, the
// last one-frame length, the first fragmented one, the largest legal),
// the payload whose checksum comes out 0 and must go on the wire as
// 0xFFFF, and the TCP shapes — data up to the MSS, a pure ACK, a cookie
// SYN|ACK and an RST, the last two answering segments fed through Input.
func emitFrames(t testing.TB) []emitted {
	t.Helper()
	link := &capLink{}
	devMAC, peerMAC := link.MAC(), [6]byte{2, 0, 0, 0, 0, 0x77}
	self, peer := Addr{IP: peerIP, Port: 12345}, Addr{IP: harnessIP, Port: 4242}
	s, err := New(Config{Name: "sender", Dev: link, IP: self.IP, EnableTCP: true, TCPCookies: true,
		StaticARP: map[IP4][6]byte{peer.IP: peerMAC}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	eth := EthHeader{Dst: peerMAC, Src: devMAC, Type: EtherTypeIPv4}
	var clk vtime.Clock
	var out []emitted
	// record runs one send and pairs what reached the link with the
	// reference frames for the IP ID the send was about to use.
	record := func(name string, proto byte, l4 func() []byte, send func()) {
		hdr := IPv4Header{ID: uint16(s.ipID.Load() + 1), TTL: 64, Proto: proto, Src: self.IP, Dst: peer.IP}
		send()
		link.mu.Lock()
		e := emitted{name: name, got: link.frames}
		link.frames = nil
		link.mu.Unlock()
		for _, pkt := range refFragments(hdr, l4(), link.MTU()) {
			e.want = append(e.want, refEth(eth, pkt))
		}
		out = append(out, e)
	}

	sock, err := s.UDPBind(self.Port)
	if err != nil {
		t.Fatal(err)
	}
	mtu := link.MTU()
	zeroSum := []byte{0, 0}
	put16(zeroSum, be16(refUDP(self, peer, zeroSum)[6:8])) // folds the sum to 0xFFFF, the checksum to 0
	udpPayloads := map[string][]byte{"zero-checksum": zeroSum}
	for _, n := range []int{0, 1, 63, 64, 65, 1399, 1400, mtu - 28, mtu - 27, 4000, MaxUDPPayload} {
		udpPayloads[fmt.Sprint(n)] = encoderPayload(n)
	}
	for name, p := range udpPayloads {
		record("udp-"+name, ProtoUDP, func() []byte { return refUDP(self, peer, p) }, func() {
			if err := sock.SendTo(p, peer, &clk); err != nil {
				t.Fatalf("udp %s: %v", name, err)
			}
		})
	}

	c := newTCPSocket(s.tcp)
	c.local, c.remote = Addr{IP: self.IP, Port: 5555}, Addr{IP: peer.IP, Port: fuzzTCPPort}
	c.peerMAC, c.hasMAC = peerMAC, true
	c.sndNxt, c.rcvNxt = 0x01020304, 0xA0B0C0D0
	seg := tcpSeg{srcPort: c.local.Port, dstPort: c.remote.Port, seq: c.sndNxt, ack: c.rcvNxt, wnd: rcvBufCap}
	for _, n := range []int{1, 63, 64, 65, 1399, 1400, MSS} {
		data := seg
		data.flags, data.payload = TCPFlagACK|TCPFlagPSH, encoderPayload(n)
		record(fmt.Sprintf("tcp-data-%d", n), ProtoTCP, func() []byte { return refTCP(self.IP, peer.IP, data) }, func() {
			c.mu.Lock()
			c.sendSegLocked(tcpSeg{flags: data.flags, seq: data.seq, ack: data.ack, payload: data.payload}, &clk)
			c.mu.Unlock()
		})
	}
	ack := seg
	ack.flags = TCPFlagACK
	record("tcp-pure-ack", ProtoTCP, func() []byte { return refTCP(self.IP, peer.IP, ack) }, func() {
		c.mu.Lock()
		c.sendAckLocked(&clk)
		c.mu.Unlock()
	})

	// A SYN to a cookie listener and a stray ACK to a closed port, both
	// from the peer: the stack answers each straight to the frame's MAC.
	if _, err := s.TCPListen(7000, 4); err != nil {
		t.Fatal(err)
	}
	from := func(in tcpSeg) []byte {
		return refEth(EthHeader{Dst: devMAC, Src: peerMAC, Type: EtherTypeIPv4},
			refIPv4(IPv4Header{TTL: 64, Proto: ProtoTCP, Src: peer.IP, Dst: self.IP}, refTCP(peer.IP, self.IP, in)))
	}
	syn := tcpSeg{srcPort: 3333, dstPort: 7000, seq: 0x5000, flags: TCPFlagSYN, wnd: 4096}
	key := connKey{remoteIP: peer.IP, remotePort: syn.srcPort, localPort: syn.dstPort}
	synAck := tcpSeg{srcPort: 7000, dstPort: 3333, seq: s.tcp.cookieISS(key), ack: syn.seq + 1,
		flags: TCPFlagSYN | TCPFlagACK, wnd: rcvBufCap}
	record("tcp-cookie-synack", ProtoTCP, func() []byte { return refTCP(self.IP, peer.IP, synAck) },
		func() { s.Input(from(syn), &clk) })
	if got := s.tcp.cookieISS(key); got != synAck.seq {
		t.Skipf("the cookie epoch ticked mid-test (%#x → %#x)", synAck.seq, got)
	}
	stray := tcpSeg{srcPort: 3334, dstPort: 7001, seq: 0x6000, ack: 0x7000, flags: TCPFlagACK, wnd: 4096}
	rst := tcpSeg{srcPort: 7001, dstPort: 3334, seq: stray.ack, ack: stray.seq, flags: TCPFlagRST}
	record("tcp-rst", ProtoTCP, func() []byte { return refTCP(self.IP, peer.IP, rst) },
		func() { s.Input(from(stray), &clk) })
	return out
}

// TestEncoderMatchesMarshalChain is the byte-for-byte differential.
func TestEncoderMatchesMarshalChain(t *testing.T) {
	frames := 0
	for _, e := range emitFrames(t) {
		if len(e.got) != len(e.want) {
			t.Errorf("%s: %d frames on the link, the marshal chain builds %d", e.name, len(e.got), len(e.want))
			continue
		}
		for i := range e.got {
			if !bytes.Equal(e.got[i], e.want[i]) {
				t.Errorf("%s frame %d differs:\n got  %x\n want %x", e.name, i, e.got[i], e.want[i])
			}
		}
		frames += len(e.got)
	}
	// 12 UDP sends of which three fragment (2 + 3 + 45 frames), 7 data
	// segments, an ACK, a SYN|ACK and an RST.
	if want := 9 + 2 + 3 + 45 + 7 + 3; frames != want {
		t.Fatalf("compared %d frames, want %d", frames, want)
	}
}

// TestMarshalWrappersMatchChain: the exported allocate-then-encode
// wrappers (bench and the frame-building tests use them) are the
// reference chain's equals too.
func TestMarshalWrappersMatchChain(t *testing.T) {
	src, dst := IP4{10, 0, 0, 1}, IP4{10, 0, 0, 2}
	for _, n := range []int{0, 1, 64, 1399} {
		p := encoderPayload(n)
		seg := tcpSeg{srcPort: 1, dstPort: 2, seq: 3, ack: 4, flags: TCPFlagACK | TCPFlagPSH, wnd: 5, payload: p}
		if got, want := MarshalTCP(src, dst, 1, 2, 3, 4, TCPFlagACK|TCPFlagPSH, 5, p), refTCP(src, dst, seg); !bytes.Equal(got, want) {
			t.Errorf("MarshalTCP(%d bytes):\n got  %x\n want %x", n, got, want)
		}
		for _, h := range []IPv4Header{
			{ID: 7, Proto: ProtoUDP, Src: src, Dst: dst, TTL: 64},
			{ID: 0xFFFF, Proto: ProtoTCP, Src: src, Dst: dst, TTL: 1, MF: true, FragOff: 1480},
		} {
			if got, want := MarshalIPv4(h, p), refIPv4(h, p); !bytes.Equal(got, want) {
				t.Errorf("MarshalIPv4(%+v, %d bytes):\n got  %x\n want %x", h, n, got, want)
			}
		}
		eth := EthHeader{Dst: [6]byte{1, 2, 3, 4, 5, 6}, Src: [6]byte{7, 8, 9, 10, 11, 12}, Type: EtherTypeARP}
		if got, want := MarshalEth(eth, p), refEth(eth, p); !bytes.Equal(got, want) {
			t.Errorf("MarshalEth(%d bytes):\n got  %x\n want %x", n, got, want)
		}
	}
}

// TestTCPSendAllocatesNothing: a data segment and the ACK that answers
// it cost the TX side no heap object.
func TestTCPSendAllocatesNothing(t *testing.T) {
	s, err := New(Config{Name: "enclave", Dev: sinkDevice{mac: [6]byte{2, 0, 0, 0, 0, 9}}, IP: IP4{10, 0, 0, 9}, EnableTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := newTCPSocket(s.tcp)
	c.local, c.remote = Addr{IP: s.ip, Port: 80}, Addr{IP: IP4{10, 0, 0, 1}, Port: 40000}
	c.peerMAC, c.hasMAC = [6]byte{2, 0, 0, 0, 0, 1}, true
	payload := encoderPayload(256)
	var clk vtime.Clock
	if n := testing.AllocsPerRun(200, func() {
		c.mu.Lock()
		c.sendSegLocked(tcpSeg{flags: TCPFlagACK | TCPFlagPSH, seq: c.sndNxt, ack: c.rcvNxt, payload: payload}, &clk)
		c.sendAckLocked(&clk)
		c.mu.Unlock()
	}); n != 0 && !raceDetectorEnabled {
		t.Fatalf("a data segment and an ACK allocate %v objects, want 0", n)
	}
}
