package netstack

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestChecksumKnownVectors(t *testing.T) {
	// RFC 1071 example: the checksum of this sequence is 0xDDF2.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("Checksum = %#x, want 0x220d (complement of 0xddf2)", got)
	}
	// A packet including its own correct checksum folds to zero.
	withSum := append([]byte{}, data...)
	withSum = append(withSum, 0x22, 0x0d)
	if got := Checksum(withSum); got != 0 {
		t.Fatalf("self-checksummed data = %#x, want 0", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xAB}) != ^uint16(0xAB00) {
		t.Fatal("odd-length checksum must pad with zero")
	}
}

func TestEthRoundTrip(t *testing.T) {
	h := EthHeader{
		Dst:  [6]byte{1, 2, 3, 4, 5, 6},
		Src:  [6]byte{6, 5, 4, 3, 2, 1},
		Type: EtherTypeIPv4,
	}
	payload := []byte("hello ethernet")
	frame := MarshalEth(h, payload)
	got, pl, err := ParseEth(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || !bytes.Equal(pl, payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, _, err := ParseEth(frame[:13]); !errors.Is(err, ErrShortFrame) {
		t.Fatal("short frame must be rejected")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4Header{
		ID:    42,
		TTL:   64,
		Proto: ProtoUDP,
		Src:   IP4{10, 0, 0, 1},
		Dst:   IP4{10, 0, 0, 2},
	}
	payload := []byte("payload bytes here")
	pkt := MarshalIPv4(h, payload)
	got, pl, err := ParseIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.Proto != h.Proto || got.ID != 42 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(pl, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestIPv4Rejections(t *testing.T) {
	good := MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoUDP, Src: IP4{1, 2, 3, 4}, Dst: IP4{5, 6, 7, 8}}, []byte("x"))

	short := good[:10]
	if _, _, err := ParseIPv4(short); !errors.Is(err, ErrIPHeader) {
		t.Fatal("short header must be rejected")
	}

	v6 := append([]byte{}, good...)
	v6[0] = 0x65
	if _, _, err := ParseIPv4(v6); !errors.Is(err, ErrIPVersion) {
		t.Fatal("version 6 must be rejected")
	}

	badSum := append([]byte{}, good...)
	badSum[10] ^= 0xFF
	if _, _, err := ParseIPv4(badSum); !errors.Is(err, ErrIPChecksum) {
		t.Fatal("bad checksum must be rejected")
	}

	badLen := append([]byte{}, good...)
	put16(badLen[2:4], uint16(len(badLen)+100))
	put16(badLen[10:12], 0)
	put16(badLen[10:12], Checksum(badLen[:20]))
	if _, _, err := ParseIPv4(badLen); !errors.Is(err, ErrIPHeader) {
		t.Fatal("overlong TotalLen must be rejected")
	}

	ttl0 := append([]byte{}, good...)
	ttl0[8] = 0
	put16(ttl0[10:12], 0)
	put16(ttl0[10:12], Checksum(ttl0[:20]))
	if _, _, err := ParseIPv4(ttl0); !errors.Is(err, ErrIPTTL) {
		t.Fatal("TTL 0 must be rejected")
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	h := IPv4Header{ID: 7, TTL: 64, Proto: ProtoUDP, Src: IP4{1, 1, 1, 1}, Dst: IP4{2, 2, 2, 2}}
	payload := make([]byte, 4000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	pkts := fragmentIPv4(h, payload, 1500)
	if len(pkts) != 3 {
		t.Fatalf("4000 bytes over MTU 1500 -> %d fragments, want 3", len(pkts))
	}
	r := newReassembler()
	var full []byte
	for i, pkt := range pkts {
		fh, pl, err := ParseIPv4(pkt)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		full = r.add(fh, pl)
		if i < len(pkts)-1 && full != nil {
			t.Fatal("reassembly completed early")
		}
	}
	if !bytes.Equal(full, payload) {
		t.Fatal("reassembled payload mismatch")
	}
}

func TestFragmentsOutOfOrder(t *testing.T) {
	h := IPv4Header{ID: 9, TTL: 64, Proto: ProtoUDP, Src: IP4{1, 1, 1, 1}, Dst: IP4{2, 2, 2, 2}}
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	pkts := fragmentIPv4(h, payload, 1500)
	r := newReassembler()
	// Deliver in reverse.
	var full []byte
	for i := len(pkts) - 1; i >= 0; i-- {
		fh, pl, _ := ParseIPv4(pkts[i])
		full = r.add(fh, pl)
	}
	if !bytes.Equal(full, payload) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestReassemblerHostileFragments(t *testing.T) {
	r := newReassembler()
	// Duplicate offsets must not double-count.
	h := IPv4Header{ID: 1, MF: true, FragOff: 0, Proto: ProtoUDP}
	if r.add(h, make([]byte, 16)) != nil {
		t.Fatal("incomplete must be nil")
	}
	if r.add(h, make([]byte, 16)) != nil {
		t.Fatal("duplicate must be nil")
	}
	// Oversized reassembly is abandoned.
	big := IPv4Header{ID: 2, MF: false, FragOff: 65528, Proto: ProtoUDP}
	if r.add(big, make([]byte, 5000)) != nil {
		t.Fatal("oversize must be nil")
	}
	// Non-final fragment not a multiple of 8 is abandoned.
	odd := IPv4Header{ID: 3, MF: true, FragOff: 0, Proto: ProtoUDP}
	if r.add(odd, make([]byte, 13)) != nil {
		t.Fatal("odd-length non-final must be nil")
	}
	// Flooding with distinct IDs evicts old entries without growth.
	for id := uint16(10); id < 200; id++ {
		r.add(IPv4Header{ID: id, MF: true, FragOff: 0, Proto: ProtoUDP}, make([]byte, 8))
	}
	r.mu.Lock()
	n := len(r.bufs)
	r.mu.Unlock()
	if n > 32 {
		t.Fatalf("reassembler grew to %d entries, cap is 32", n)
	}
}

func TestARPRoundTrip(t *testing.T) {
	p := arpPacket{
		op:  arpOpRequest,
		sha: [6]byte{1, 2, 3, 4, 5, 6},
		spa: IP4{10, 0, 0, 1},
		tha: [6]byte{0, 0, 0, 0, 0, 0},
		tpa: IP4{10, 0, 0, 2},
	}
	got, ok := parseARP(marshalARP(p))
	if !ok || got != p {
		t.Fatalf("ARP round trip mismatch: %+v", got)
	}
	if _, ok := parseARP(make([]byte, 10)); ok {
		t.Fatal("short ARP must be rejected")
	}
	bad := marshalARP(p)
	bad[0] = 9 // wrong htype
	if _, ok := parseARP(bad); ok {
		t.Fatal("wrong htype must be rejected")
	}
}

func TestTCPSegmentRoundTrip(t *testing.T) {
	src, dst := IP4{10, 0, 0, 1}, IP4{10, 0, 0, 2}
	seg := tcpSeg{
		srcPort: 40000, dstPort: 6379,
		seq: 0xDEADBEEF, ack: 0xFEEDFACE,
		flags: TCPFlagACK | TCPFlagPSH, wnd: 65535,
		payload: []byte("PING\r\n"),
	}
	b := marshalTCP(src, dst, seg)
	got, ok := parseTCP(b)
	if !ok {
		t.Fatal("parse failed")
	}
	if got.srcPort != seg.srcPort || got.seq != seg.seq || got.ack != seg.ack ||
		got.flags != seg.flags || got.wnd != seg.wnd || !bytes.Equal(got.payload, seg.payload) {
		t.Fatalf("mismatch: %+v", got)
	}
	// Checksum must validate.
	sum := pseudoHeaderSum(src, dst, ProtoTCP, len(b))
	if checksumFold(checksumPartial(sum, b)) != 0 {
		t.Fatal("TCP checksum invalid")
	}
}

func TestIPStrings(t *testing.T) {
	if (IP4{10, 1, 2, 3}).String() != "10.1.2.3" {
		t.Fatal("IP4.String")
	}
	if (Addr{IP4{1, 2, 3, 4}, 80}).String() != "1.2.3.4:80" {
		t.Fatal("Addr.String")
	}
	if stateEstablished.String() != "ESTABLISHED" {
		t.Fatal("state string")
	}
}

func TestIPv4ParseNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		ParseIPv4(b)
		parseTCP(b)
		parseARP(b)
		ParseEth(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// marshalTCP is MarshalTCP over a tcpSeg.
func marshalTCP(src, dst IP4, s tcpSeg) []byte {
	return MarshalTCP(src, dst, s.srcPort, s.dstPort, s.seq, s.ack, s.flags, s.wnd, s.payload)
}
