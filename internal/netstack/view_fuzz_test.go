package netstack

// Fuzz target for the certify-in-place RX parser: InputView is the one
// routine that makes protocol decisions over host-writable frame bytes,
// so it gets its own campaign beside FuzzStackInput. Every iteration
// mints a certified view over a UMem frame, parses it in place, drains
// the socket, and then asserts the frame economy balanced — whatever the
// parser decided (in-place delivery, splice, fallback copy, refusal),
// the frame must be back in the pool. The committed seed corpus
// (testdata/fuzz/FuzzInputView, table below) pins the shapes that pick
// each branch: split headers with IP options out to ihl=60, a frame at
// the exact UMem frame size, and 0xFFFF length-field wraparounds.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rakis/internal/mem"
	"rakis/internal/vtime"
)

// releaseSplice is a SpliceDevice that retires the frame immediately, so
// the splice branch is reachable without a full XSK socket.
type releaseSplice struct{}

func (releaseSplice) SpliceFrame(v *mem.View, n uint32, clk *vtime.Clock) error {
	return v.Release()
}

// fuzzViewWorld builds the long-lived view-fuzzing harness: the stack
// under test behind InputView, with one bound socket for the in-place
// delivery branch and one spliced port for the echo-rewrite branch, and
// its Input-side twin (same configuration, same socket, no splice — a
// spliced frame is consumed in place, which Input sees as a datagram to
// an unbound port: nothing delivered, nothing emitted, one packet
// counted).
func fuzzViewWorld(t testing.TB) *doorPair {
	p := newDoorPair(t, newViewHarness(t))
	p.h.stack.SpliceUDPEcho(7, releaseSplice{})
	return p
}

// fuzzViewInject runs one frame through the in-place parser, checks the
// frame-economy invariant, and holds the result against what Input makes
// of the same bytes, so the campaign searches for a frame the two front
// doors treat differently.
func fuzzViewInject(t testing.TB, p *doorPair, data []byte) {
	if err := p.agree(t, data); err != nil {
		t.Fatal(err)
	}
}

// viewHostileFrames is the canonical seed table; the corpus files on
// disk are its rendering (see TestViewFuzzCorpus, same contract as
// hostileFrames/TestFuzzCorpus).
func viewHostileFrames() map[string][]byte {
	frames := map[string][]byte{}

	// The mainstream in-place delivery, and the splice-echo branch.
	frames["view-valid-udp"] = buildUDPFrame(peerIP, harnessIP, 1111, 4242, []byte("in place"))
	frames["view-splice-echo"] = buildUDPFrame(peerIP, harnessIP, 40000, 7, []byte("reflect me"))

	// Split header: IP options push the UDP header out to byte 74 —
	// ihl=15 (60-byte IP header), the farthest the header snapshot must
	// reach. Built by hand since MarshalIPv4 always emits ihl=5.
	optPayload := []byte("options!")
	optDgram := make([]byte, UDPHeaderBytes+len(optPayload))
	put16(optDgram[0:2], 1111)
	put16(optDgram[2:4], 4242)
	put16(optDgram[4:6], uint16(len(optDgram)))
	copy(optDgram[UDPHeaderBytes:], optPayload)
	sum := pseudoHeaderSum(peerIP, harnessIP, ProtoUDP, len(optDgram))
	ck := checksumFold(checksumPartial(sum, optDgram))
	if ck == 0 {
		ck = 0xFFFF
	}
	put16(optDgram[6:8], ck)
	iph := make([]byte, 60)
	iph[0] = 0x4F // version 4, ihl 15 words
	put16(iph[2:4], uint16(60+len(optDgram)))
	iph[8] = 64
	iph[9] = ProtoUDP
	copy(iph[12:16], peerIP[:])
	copy(iph[16:20], harnessIP[:])
	for i := IPv4HeaderBytes; i < 60; i++ {
		iph[i] = 0x01 // NOP options
	}
	put16(iph[10:12], Checksum(iph))
	frames["view-split-header"] = MarshalEth(
		EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 9}, Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4},
		append(iph, optDgram...))

	// Max length: the frame fills its 2048-byte UMem frame exactly.
	frames["view-max-length"] = buildUDPFrame(peerIP, harnessIP, 1111, 4242,
		bytes.Repeat([]byte{0xA5}, 2048-EthHeaderBytes-IPv4HeaderBytes-UDPHeaderBytes))

	// Wraparound lies: both 16-bit length fields pushed to 0xFFFF. The
	// IP checksum is refreshed so the parser reaches the length gates.
	wrapTotal := buildUDPFrame(peerIP, harnessIP, 1111, 4242, []byte("wrap"))
	put16(wrapTotal[EthHeaderBytes+2:], 0xFFFF)
	put16(wrapTotal[EthHeaderBytes+10:], 0)
	put16(wrapTotal[EthHeaderBytes+10:], Checksum(wrapTotal[EthHeaderBytes:EthHeaderBytes+IPv4HeaderBytes]))
	frames["view-wrap-totallen"] = wrapTotal
	wrapULen := buildUDPFrame(peerIP, harnessIP, 1111, 4242, []byte("wrap"))
	put16(wrapULen[EthHeaderBytes+IPv4HeaderBytes+4:], 0xFFFF)
	frames["view-wrap-ulen"] = wrapULen

	// A UDP length below its own header size.
	runt := buildUDPFrame(peerIP, harnessIP, 1111, 4242, []byte("wrap"))
	put16(runt[EthHeaderBytes+IPv4HeaderBytes+4:], 0)
	frames["view-ulen-runt"] = runt

	// Checksum elided (legal for UDP/IPv4): the no-verify branch.
	noCk := buildUDPFrame(peerIP, harnessIP, 1111, 4242, []byte("nocksum"))
	put16(noCk[EthHeaderBytes+IPv4HeaderBytes+6:], 0)
	frames["view-no-csum"] = noCk

	// Non-mainstream shapes that must take the one-copy fallback: an IP
	// fragment and an ARP request.
	frames["view-frag"] = MarshalEth(
		EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 9}, Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4},
		MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoUDP, MF: true, ID: 77, Src: peerIP, Dst: harnessIP}, make([]byte, 16)))
	frames["view-arp"] = MarshalEth(
		EthHeader{Dst: Broadcast, Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeARP},
		marshalARP(arpPacket{op: arpOpRequest, sha: [6]byte{2, 0, 0, 0, 0, 1}, spa: peerIP, tpa: harnessIP}))

	return frames
}

func FuzzInputView(f *testing.F) {
	for _, data := range viewHostileFrames() {
		f.Add(data)
	}
	w := fuzzViewWorld(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzViewInject(t, w, data)
	})
}

// TestViewFuzzCorpus pins the committed corpus to the table, exactly as
// TestFuzzCorpus does for FuzzStackInput. Regenerate after editing:
//
//	RAKIS_WRITE_CORPUS=1 go test ./internal/netstack -run TestViewFuzzCorpus
func TestViewFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzInputView")
	frames := viewHostileFrames()

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

	w := fuzzViewWorld(t)
	for name, data := range frames {
		fuzzViewInject(t, w, data)
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
