package netstack

// Fuzz target for the TCP leg of the certify-in-place RX parser. The
// enclave TCP configuration makes every protocol decision — data offset,
// flags, sequence numbers, cookie validation — over a single frozen
// header snapshot plus one trusted payload copy, so hostile segments
// must always land on a deterministic outcome: delivery, a stateless
// cookie reply, a RST, or a counted refusal. Every iteration mints a
// certified view over a UMem frame, runs it through the in-place
// parser, and asserts the frame economy balanced. The committed seed
// corpus (testdata/fuzz/FuzzInputTCP, table below) pins the hostile
// shapes: bad data offsets, option-field overruns, SYN+FIN, wrapped
// sequence numbers, checksum scribbles, and cookie-path ACK replays.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rakis/internal/vtime"
)

const fuzzTCPPort = 6379

// fuzzTCPWorld builds the long-lived TCP view-fuzzing harness: the
// trimmed enclave configuration (SYN-cookie listen path) with one
// listener, so SYNs, cookie ACKs, RST-provoking strays, and established-
// flow shapes are all reachable from a single frame.
func fuzzTCPWorld(t testing.TB) (*viewHarness, *TCPSocket) {
	t.Helper()
	h := newViewHarness(t)
	tcpStack, err := New(Config{
		Name: "enclave-tcp", Dev: h.link, IP: harnessIP,
		Counters: h.ctrs, EnableTCP: true, TCPCookies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcpStack.Close)
	h.stack = tcpStack
	l, err := tcpStack.TCPListen(fuzzTCPPort, 4)
	if err != nil {
		t.Fatal(err)
	}
	return h, l
}

// fuzzTCPInject runs one frame through the in-place parser and checks
// the frame-economy invariant: whatever the TCP layer decided (cookie
// reply, refusal, RST, drop, or — if the fuzzer ever forges a cookie —
// a minted connection), the UMem frame must be back in the pool.
func fuzzTCPInject(t testing.TB, h *viewHarness, l *TCPSocket, data []byte) {
	if len(data) > int(h.u.FrameSize()) {
		data = data[:h.u.FrameSize()]
	}
	v, _ := h.mintView(t, data)
	var clk vtime.Clock
	h.stack.InputView(v, &clk)
	// Drain any connection a forged cookie ACK managed to mint, so state
	// cannot accumulate across the campaign.
	for {
		c, err := l.Accept(&clk, false)
		if err != nil {
			break
		}
		c.Close(&clk)
	}
	if free := h.u.FreeFrames(); free != int(h.u.FrameCount()) {
		t.Fatalf("frame leaked: free = %d, want %d", free, h.u.FrameCount())
	}
	// The harness link captures replies (SYN|ACK cookies, RSTs); drop
	// them so a long campaign holds steady memory.
	h.link.mu.Lock()
	h.link.frames = h.link.frames[:0]
	h.link.mu.Unlock()
}

// buildTCPFrame assembles a checksummed Ethernet/IPv4/TCP frame.
func buildTCPFrame(src, dst IP4, seg tcpSeg) []byte {
	pkt := MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoTCP, Src: src, Dst: dst},
		marshalTCP(src, dst, seg))
	return MarshalEth(EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 9},
		Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4}, pkt)
}

// buildRawTCPFrame wraps hand-built TCP bytes (hostile headers that
// marshalTCP refuses to produce) in a well-formed Ethernet/IPv4 frame,
// refreshing the TCP checksum when asked so the parse reaches the gate
// under test instead of dying at checksum verification.
func buildRawTCPFrame(src, dst IP4, l4 []byte, fixCsum bool) []byte {
	if fixCsum && len(l4) >= TCPHeaderBytes {
		put16(l4[16:18], 0)
		sum := pseudoHeaderSum(src, dst, ProtoTCP, len(l4))
		put16(l4[16:18], checksumFold(checksumPartial(sum, l4)))
	}
	pkt := MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoTCP, Src: src, Dst: dst}, l4)
	return MarshalEth(EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 9},
		Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4}, pkt)
}

// rawTCPHeader builds a 20-byte TCP header plus payload with an
// arbitrary (possibly hostile) data-offset nibble.
func rawTCPHeader(sport, dport uint16, seq, ack uint32, dataOffWords byte, flags byte, payload []byte) []byte {
	b := make([]byte, TCPHeaderBytes+len(payload))
	put16(b[0:2], sport)
	put16(b[2:4], dport)
	put32(b[4:8], seq)
	put32(b[8:12], ack)
	b[12] = dataOffWords << 4
	b[13] = flags
	put16(b[14:16], 4096)
	copy(b[TCPHeaderBytes:], payload)
	return b
}

// tcpHostileFrames is the canonical seed table; the corpus files on disk
// are its rendering (see TestTCPFuzzCorpus, same contract as
// viewHostileFrames/TestViewFuzzCorpus).
func tcpHostileFrames() map[string][]byte {
	frames := map[string][]byte{}

	// The mainstream listen-path shapes: a clean SYN (answered with a
	// stateless cookie SYN|ACK) and a bare ACK on the cookie path. The
	// ACK's cookie cannot validate against a randomly keyed secret, so it
	// is the deterministic-refusal shape; a mutated ack field is exactly
	// a cookie replay/forgery attempt.
	frames["tcp-valid-syn"] = buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: fuzzTCPPort, seq: 0x1000, flags: TCPFlagSYN, wnd: 4096})
	frames["tcp-cookie-garbage-ack"] = buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: fuzzTCPPort, seq: 0x1001, ack: 0xDEADBEEF, flags: TCPFlagACK, wnd: 4096})
	// A replayed third segment: same flow, same forged cookie, with
	// ride-along data — the shape a replaying middlebox produces.
	frames["tcp-cookie-replay"] = buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: fuzzTCPPort, seq: 0x1001, ack: 0xDEADBEEF,
			flags: TCPFlagACK | TCPFlagPSH, wnd: 4096, payload: []byte("GET replay")})

	// Bad data offsets: zero (below the 20-byte minimum) and one pointing
	// past the end of the segment.
	frames["tcp-dataoff-zero"] = buildRawTCPFrame(peerIP, harnessIP,
		rawTCPHeader(1111, fuzzTCPPort, 0x1000, 0, 0, TCPFlagSYN, nil), true)
	frames["tcp-dataoff-past-end"] = buildRawTCPFrame(peerIP, harnessIP,
		rawTCPHeader(1111, fuzzTCPPort, 0x1000, 0, 15, TCPFlagSYN, nil), true)

	// Option-field overrun: data offset claims 8 words (12 option bytes)
	// but only 4 option bytes follow the header — the option region runs
	// past the segment end.
	frames["tcp-options-overrun"] = buildRawTCPFrame(peerIP, harnessIP,
		rawTCPHeader(1111, fuzzTCPPort, 0x1000, 0, 8, TCPFlagSYN, []byte{1, 1, 1, 0}), true)
	// Options within bounds: data offset 6, four NOP option bytes, then
	// payload — the parse must skip options and take the payload after
	// them, not from byte 20.
	frames["tcp-options-valid"] = buildRawTCPFrame(peerIP, harnessIP,
		rawTCPHeader(1111, fuzzTCPPort, 0x1000, 0, 6, TCPFlagSYN, []byte{1, 1, 1, 1}), true)

	// Illegal flag combination: SYN+FIN in one segment.
	frames["tcp-syn-fin"] = buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: fuzzTCPPort, seq: 0x1000, flags: TCPFlagSYN | TCPFlagFIN, wnd: 4096})

	// Wrapped sequence number: data straddling the 2^32 boundary.
	frames["tcp-wrapped-seq"] = buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: fuzzTCPPort, seq: 0xFFFFFFF0, ack: 1,
			flags: TCPFlagACK | TCPFlagPSH, wnd: 4096, payload: bytes.Repeat([]byte{0x55}, 32)})

	// Checksum scribble: a valid segment whose checksum bytes the host
	// flipped after building — the single-copy checksum must refuse it.
	scribbled := buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: fuzzTCPPort, seq: 0x1000, flags: TCPFlagSYN, wnd: 4096})
	scribbled[EthHeaderBytes+IPv4HeaderBytes+16] ^= 0xFF
	frames["tcp-bad-checksum"] = scribbled

	// Truncated header: IP total length admits only 8 TCP bytes.
	frames["tcp-truncated"] = buildRawTCPFrame(peerIP, harnessIP,
		rawTCPHeader(1111, fuzzTCPPort, 0x1000, 0, 5, TCPFlagSYN, nil)[:8], false)

	// Blind RST at a connection that does not exist.
	frames["tcp-blind-rst"] = buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 2222, dstPort: fuzzTCPPort, seq: 0x9999, flags: TCPFlagRST})

	// SYN at a closed port: the deterministic RST-refusal path.
	frames["tcp-syn-closed-port"] = buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: 9, seq: 0x1000, flags: TCPFlagSYN, wnd: 4096})

	// Data with no ACK flag aimed at the listener: matches no connection
	// and is not a handshake segment.
	frames["tcp-data-to-listener"] = buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: fuzzTCPPort, seq: 0x1000, flags: TCPFlagPSH,
			wnd: 4096, payload: []byte("no handshake")})

	// IP options push the TCP header deep into the frame: ihl=15 (60-byte
	// IP header), the farthest the header snapshot must reach.
	tcpBytes := marshalTCP(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: fuzzTCPPort, seq: 0x1000, flags: TCPFlagSYN, wnd: 4096})
	iph := make([]byte, 60)
	iph[0] = 0x4F // version 4, ihl 15 words
	put16(iph[2:4], uint16(60+len(tcpBytes)))
	iph[8] = 64
	iph[9] = ProtoTCP
	copy(iph[12:16], peerIP[:])
	copy(iph[16:20], harnessIP[:])
	for i := IPv4HeaderBytes; i < 60; i++ {
		iph[i] = 0x01 // NOP options
	}
	put16(iph[10:12], Checksum(iph))
	frames["tcp-ihl-options"] = MarshalEth(
		EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 9}, Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4},
		append(iph, tcpBytes...))

	// Max length: the segment fills its 2048-byte UMem frame exactly.
	frames["tcp-max-length"] = buildTCPFrame(peerIP, harnessIP,
		tcpSeg{srcPort: 1111, dstPort: fuzzTCPPort, seq: 0x2000, ack: 1, flags: TCPFlagACK, wnd: 4096,
			payload: bytes.Repeat([]byte{0xA5}, 2048-EthHeaderBytes-IPv4HeaderBytes-TCPHeaderBytes)})

	return frames
}

func FuzzInputTCP(f *testing.F) {
	for _, data := range tcpHostileFrames() {
		f.Add(data)
	}
	h, l := fuzzTCPWorld(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTCPInject(t, h, l, data)
	})
}

// TestTCPFuzzCorpus pins the committed corpus to the table, exactly as
// TestViewFuzzCorpus does for FuzzInputView. Regenerate after editing:
//
//	RAKIS_WRITE_CORPUS=1 go test ./internal/netstack -run TestTCPFuzzCorpus
func TestTCPFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzInputTCP")
	frames := tcpHostileFrames()
	if len(frames) < 12 {
		t.Fatalf("seed table holds %d frames, battery requires >= 12", len(frames))
	}

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

	h, l := fuzzTCPWorld(t)
	for name, data := range frames {
		fuzzTCPInject(t, h, l, data)
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: corpus file missing (regenerate with RAKIS_WRITE_CORPUS=1): %v", name, err)
			continue
		}
		if !bytes.Equal(got, corpusEntry(data)) {
			t.Errorf("%s: corpus file stale (regenerate with RAKIS_WRITE_CORPUS=1)", name)
		}
	}
	// The battery must have driven deterministic refusals, observable
	// through the shared counters.
	if h.ctrs.TCPRefused.Load() == 0 {
		t.Error("hostile battery drove no TCPRefused counts")
	}
}
