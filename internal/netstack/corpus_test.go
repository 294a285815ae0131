package netstack

// The committed fuzz seed corpus (testdata/fuzz/FuzzStackInput) carries
// the hostile frames the §5.2-style campaign has surfaced so far: each
// one once reached a parser edge worth keeping in every future run.
// hostileFrames is the canonical table; the corpus files on disk are its
// rendering in Go's fuzz-corpus format. TestFuzzCorpus feeds every frame
// through the fuzz harness (they must all be survived) and checks the
// files match the table, so the two cannot drift apart. Regenerate after
// editing the table:
//
//	RAKIS_WRITE_CORPUS=1 go test ./internal/netstack -run TestFuzzCorpus
//
// ci.sh then runs `go test -fuzz=FuzzStackInput -fuzztime=30s` over the
// corpus as a smoke leg.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func hostileFrames() map[string][]byte {
	self := IP4{10, 0, 0, 9}
	peer := IP4{10, 0, 0, 1}
	mac := [6]byte{2, 0, 0, 0, 0, 9}
	peerMAC := [6]byte{2, 0, 0, 0, 0, 1}
	eth := func(typ uint16, payload []byte) []byte {
		return MarshalEth(EthHeader{Dst: mac, Src: peerMAC, Type: typ}, payload)
	}
	ip := func(h IPv4Header, payload []byte) []byte {
		h.Src, h.Dst = peer, self
		if h.TTL == 0 {
			h.TTL = 64
		}
		return eth(EtherTypeIPv4, MarshalIPv4(h, payload))
	}

	frames := map[string][]byte{}

	// ARP: a spoof claiming the stack's own address, a truncated packet,
	// and an unsolicited reply aimed at the broadcast MAC.
	frames["arp-self-spoof"] = eth(EtherTypeARP,
		marshalARP(arpPacket{op: arpOpRequest, sha: peerMAC, spa: self, tpa: self}))
	frames["arp-truncated"] = eth(EtherTypeARP,
		marshalARP(arpPacket{op: arpOpRequest, sha: peerMAC, spa: peer, tpa: self})[:11])
	frames["arp-unsolicited-reply"] = eth(EtherTypeARP,
		marshalARP(arpPacket{op: arpOpReply, sha: peerMAC, spa: peer,
			tha: [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, tpa: self}))

	// IPv4 header damage: an IHL pointing past the frame, a TotalLen
	// larger than the bytes on the wire, and one smaller than the header
	// itself. Built from a valid packet, then scribbled — checksum is
	// refreshed for the length lies so the parser reaches the length
	// checks rather than dying at the sum.
	udp := make([]byte, UDPHeaderBytes+4)
	put16(udp[0:2], 1111)
	put16(udp[2:4], 4242)
	put16(udp[4:6], uint16(len(udp)))
	badIHL := ip(IPv4Header{Proto: ProtoUDP}, udp)
	badIHL[EthHeaderBytes] = 0x4F // IHL = 15 words, frame is far shorter
	frames["ipv4-ihl-past-end"] = badIHL
	longLen := ip(IPv4Header{Proto: ProtoUDP}, udp)
	put16(longLen[EthHeaderBytes+2:], 1400)
	put16(longLen[EthHeaderBytes+10:], 0)
	put16(longLen[EthHeaderBytes+10:], Checksum(longLen[EthHeaderBytes:EthHeaderBytes+IPv4HeaderBytes]))
	frames["ipv4-totallen-long"] = longLen
	shortLen := ip(IPv4Header{Proto: ProtoUDP}, udp)
	put16(shortLen[EthHeaderBytes+2:], uint16(IPv4HeaderBytes-1))
	put16(shortLen[EthHeaderBytes+10:], 0)
	put16(shortLen[EthHeaderBytes+10:], Checksum(shortLen[EthHeaderBytes:EthHeaderBytes+IPv4HeaderBytes]))
	frames["ipv4-totallen-short"] = shortLen

	// Fragments: an overlapping pair, a tail at the maximum offset
	// (reassembly-size probe), and a head whose MF chain never ends.
	frames["frag-head"] = ip(IPv4Header{Proto: ProtoUDP, MF: true, ID: 77}, make([]byte, 16))
	frames["frag-overlap"] = ip(IPv4Header{Proto: ProtoUDP, MF: true, ID: 77, FragOff: 8}, make([]byte, 16))
	frames["frag-max-offset"] = ip(IPv4Header{Proto: ProtoUDP, ID: 78, FragOff: 0x1FFF * 8}, make([]byte, 32))
	frames["frag-never-ends"] = ip(IPv4Header{Proto: ProtoUDP, MF: true, ID: 79, FragOff: 8 * 512}, make([]byte, 8))

	// TCP: a SYN whose data offset points past the segment, a
	// SYN|FIN|RST combination, and a blind RST at the listening port.
	badOff := marshalTCP(peer, self, tcpSeg{srcPort: 5555, dstPort: 4243, seq: 1, flags: TCPFlagSYN, wnd: 1024})
	badOff[12] = 0xF0 // data offset = 15 words
	frames["tcp-dataoff-past-end"] = ip(IPv4Header{Proto: ProtoTCP}, badOff)
	frames["tcp-syn-fin-rst"] = ip(IPv4Header{Proto: ProtoTCP},
		marshalTCP(peer, self, tcpSeg{srcPort: 5555, dstPort: 4243, seq: 1, flags: TCPFlagSYN | TCPFlagFIN | TCPFlagRST, wnd: 1024}))
	frames["tcp-blind-rst"] = ip(IPv4Header{Proto: ProtoTCP},
		marshalTCP(peer, self, tcpSeg{srcPort: 5555, dstPort: 4243, seq: 0xDEAD, flags: TCPFlagRST}))

	// UDP with a length field lying in both directions.
	zeroLen := make([]byte, UDPHeaderBytes+4)
	put16(zeroLen[0:2], 1111)
	put16(zeroLen[2:4], 4242)
	frames["udp-len-zero"] = ip(IPv4Header{Proto: ProtoUDP}, zeroLen)
	overLen := make([]byte, UDPHeaderBytes+4)
	put16(overLen[0:2], 1111)
	put16(overLen[2:4], 4242)
	put16(overLen[4:6], 9999)
	frames["udp-len-over"] = ip(IPv4Header{Proto: ProtoUDP}, overLen)

	// Truncation at the outer layers.
	frames["eth-runt"] = eth(EtherTypeIPv4, []byte{0x45})
	frames["icmp-truncated"] = ip(IPv4Header{Proto: ProtoICMP}, []byte{icmpEchoRequest, 0, 0})

	return frames
}

// corpusEntry renders data in Go's fuzz-corpus file format for a single
// []byte argument.
func corpusEntry(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

func TestFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStackInput")
	frames := hostileFrames()

	if os.Getenv("RAKIS_WRITE_CORPUS") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range frames {
			if err := os.WriteFile(filepath.Join(dir, name), corpusEntry(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d corpus files to %s", len(frames), dir)
		return
	}

	// Every table frame must be survivable — same property the fuzzer
	// asserts, pinned here so `go test` alone covers the known corpus.
	trimmedStack, trimmedSock := fuzzStack(true)
	fullStack, fullSock := fuzzStack(false)
	for name, data := range frames {
		fuzzInject(trimmedStack, trimmedSock, data)
		fuzzInject(fullStack, fullSock, data)
		// And the committed file must match the table.
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: corpus file missing (regenerate with RAKIS_WRITE_CORPUS=1): %v", name, err)
			continue
		}
		if !bytes.Equal(got, corpusEntry(data)) {
			t.Errorf("%s: corpus file stale (regenerate with RAKIS_WRITE_CORPUS=1)", name)
		}
	}
}
