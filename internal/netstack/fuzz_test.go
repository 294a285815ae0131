package netstack

// Fuzz targets reproducing the paper's §5.2 campaign: the UDP/IP stack is
// the enclave component that parses host-controlled bytes, so it must
// survive arbitrary incoming frames without panicking or corrupting
// state. The harness mirrors the paper's AFL++ binary: it initializes the
// stack, feeds frames from the fuzzer, and — to broaden the reachable
// state space — emulates user actions (bound sockets that echo what they
// receive).

import (
	"testing"

	"rakis/internal/vtime"
)

// sinkDevice is a LinkDevice that swallows output frames: the fuzzed
// stack's replies go nowhere.
type sinkDevice struct{ mac [6]byte }

func (d sinkDevice) SendFrame(data []byte, clk *vtime.Clock) (uint64, error) { return clk.Now(), nil }
func (d sinkDevice) MAC() [6]byte                                            { return d.mac }
func (d sinkDevice) MTU() int                                                { return 1500 }

// FuzzTarget builds the fuzzing stack in its trimmed (enclave)
// configuration, with a bound socket to make the UDP demux reachable, and
// feeds it one hostile frame.
func fuzzStack(trimmed bool) (*Stack, *UDPSocket) {
	cfg := Config{
		Name: "fuzz",
		Dev:  sinkDevice{mac: [6]byte{2, 0, 0, 0, 0, 9}},
		IP:   IP4{10, 0, 0, 9},
	}
	if !trimmed {
		cfg.EnableTCP = true
		cfg.EnableICMP = true
	}
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	sock, err := s.UDPBind(4242)
	if err != nil {
		panic(err)
	}
	if !trimmed {
		if _, err := s.TCPListen(4243, 4); err != nil {
			panic(err)
		}
	}
	return s, sock
}

// FuzzInject drives one frame through a stack and emulates the user side
// (echoing any datagram that arrived), as the paper's harness does to
// reach deeper states.
func fuzzInject(s *Stack, sock *UDPSocket, data []byte) {
	var clk vtime.Clock
	s.Input(data, &clk)
	for {
		d, err := sock.RecvFrom(&clk, false)
		if err != nil {
			break
		}
		sock.SendTo(d.Payload, d.Src, &clk)
	}
}

func FuzzStackInput(f *testing.F) {
	// Seed with well-formed frames of every protocol the stack parses.
	self := IP4{10, 0, 0, 9}
	peer := IP4{10, 0, 0, 1}
	mac := [6]byte{2, 0, 0, 0, 0, 9}
	peerMAC := [6]byte{2, 0, 0, 0, 0, 1}

	udp := make([]byte, UDPHeaderBytes+8)
	put16(udp[0:2], 1111)
	put16(udp[2:4], 4242)
	put16(udp[4:6], uint16(len(udp)))
	copy(udp[UDPHeaderBytes:], "fuzzseed")
	f.Add(MarshalEth(EthHeader{Dst: mac, Src: peerMAC, Type: EtherTypeIPv4},
		MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoUDP, Src: peer, Dst: self}, udp)))

	f.Add(MarshalEth(EthHeader{Dst: Broadcast, Src: peerMAC, Type: EtherTypeARP},
		marshalARP(arpPacket{op: arpOpRequest, sha: peerMAC, spa: peer, tpa: self})))

	syn := marshalTCP(peer, self, tcpSeg{srcPort: 5555, dstPort: 4243, seq: 100, flags: TCPFlagSYN, wnd: 65535})
	f.Add(MarshalEth(EthHeader{Dst: mac, Src: peerMAC, Type: EtherTypeIPv4},
		MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoTCP, Src: peer, Dst: self}, syn)))

	icmp := marshalICMP(icmpEchoRequest, 0, []byte{0, 1, 0, 1, 'x'})
	f.Add(MarshalEth(EthHeader{Dst: mac, Src: peerMAC, Type: EtherTypeIPv4},
		MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoICMP, Src: peer, Dst: self}, icmp)))

	// A fragment, to reach the reassembler.
	frag := MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoUDP, MF: true, ID: 77, Src: peer, Dst: self}, make([]byte, 16))
	f.Add(MarshalEth(EthHeader{Dst: mac, Src: peerMAC, Type: EtherTypeIPv4}, frag))

	// Fresh stacks per run would be slow; hostile input must not corrupt
	// a long-lived stack either, which is the stronger property.
	trimmedStack, trimmedSock := fuzzStack(true)
	fullStack, fullSock := fuzzStack(false)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzInject(trimmedStack, trimmedSock, data)
		fuzzInject(fullStack, fullSock, data)
	})
}

// FuzzSegArrives aims the fuzzer directly at the TCP state machine with a
// pre-established connection, bypassing checksums so mutations explore
// state transitions rather than dying in validation.
func FuzzSegArrives(f *testing.F) {
	f.Add(uint32(1), uint32(1), byte(TCPFlagACK), uint16(1024), []byte("data"))
	f.Add(uint32(0), uint32(0), byte(TCPFlagSYN|TCPFlagACK), uint16(0), []byte{})
	f.Add(uint32(5), uint32(2), byte(TCPFlagFIN|TCPFlagACK), uint16(65535), []byte{1})
	f.Add(uint32(9), uint32(9), byte(TCPFlagRST), uint16(9), []byte{})

	f.Fuzz(func(t *testing.T, seq, ack uint32, flags byte, wnd uint16, payload []byte) {
		s, _ := fuzzStack(false)
		c := newTCPSocket(s.tcp)
		c.state = stateEstablished
		c.local = Addr{s.ip, 4244}
		c.remote = Addr{IP4{10, 0, 0, 1}, 5555}
		c.rcvNxt = 1
		c.sndUna, c.sndNxt = 1, 1
		c.sndWnd = 65535
		var clk vtime.Clock
		c.segArrives(tcpSeg{
			srcPort: 5555, dstPort: 4244,
			seq: seq, ack: ack, flags: flags & 0x3F, wnd: wnd,
			payload: payload,
		}, &clk)
		// Invariants: buffers within caps, indices coherent.
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.rcvBuf) > rcvBufCap {
			t.Fatalf("rcvBuf grew to %d", len(c.rcvBuf))
		}
		inFlight := c.sndNxt - c.sndUna
		if c.finSent && inFlight > 0 {
			inFlight--
		}
		if inFlight > uint32(len(c.sndBuf))+1 {
			t.Fatalf("sndNxt-sndUna=%d exceeds sndBuf %d", inFlight, len(c.sndBuf))
		}
	})
}
