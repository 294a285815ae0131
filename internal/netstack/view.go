package netstack

import (
	"rakis/internal/mem"
	"rakis/internal/vtime"
)

// viewHeaderSnapMax is the header prefix frozen from an untrusted frame
// before any parsing decision: Ethernet, a maximal IPv4 header (options
// included), and a maximal L4 header — 60 bytes covers the largest TCP
// header (data offset 15) and, a fortiori, the 8-byte UDP header.
const viewHeaderSnapMax = EthHeaderBytes + 60 + tcpHeaderMax

// SpliceDevice re-queues a certified RX frame view onto the transmit
// path without copying the payload. n is the frame length to transmit.
type SpliceDevice interface {
	SpliceFrame(v *mem.View, n uint32, clk *vtime.Clock) error
}

// SpliceUDPEcho registers an in-place UDP echo on port: mainstream
// datagrams addressed to it are reflected to their sender by rewriting
// the frame header in place (MAC, IP, and port swaps — both checksums
// survive 16-bit-aligned swaps unchanged) and re-queuing the RX frame on
// TX with zero payload copies. Passing a nil device unregisters.
func (s *Stack) SpliceUDPEcho(port uint16, dev SpliceDevice) {
	s.udp.mu.Lock()
	defer s.udp.mu.Unlock()
	s.udp.splice.put(port, dev)
}

// InputView feeds one received frame into the stack as a certified
// zero-copy view. The mainstream shape — unfragmented IPv4/UDP addressed
// to this stack, headers intact, a consumer registered — is parsed in
// place: every header decision comes from one frozen Snap of the header
// prefix, the payload is traversed at most once (checksum), and the
// frame is handed on still in untrusted memory (socket queue view or TX
// splice). Everything else falls back to a single boundary copy followed
// by the classic Input path, so ARP, fragments, ICMP, TCP, and hostile
// shapes behave exactly as they always did.
func (s *Stack) InputView(v mem.View, clk *vtime.Clock) {
	s.InputViewShard(v, clk, 0)
}

// InputViewShard is InputView on the given shard: the in-place path
// queues on the socket's shard queue (or looks the connection up in the
// shard's table), and the copying fallback stays on the same shard — so
// a pump's frames never leave its shard however they parse.
func (s *Stack) InputViewShard(v mem.View, clk *vtime.Clock, shard int) {
	if s.closed.Load() {
		return
	}
	if s.inputViewInPlace(&v, clk, shard) {
		return
	}
	// A full-length CopyOut either fills the buffer or fails stale.
	frame := make([]byte, v.Len())
	_, err := v.CopyOut(frame, 0)
	v.Release()
	if err != nil {
		return
	}
	clk.Charge(vtime.CompCopy, vtime.Bytes(s.model.BoundaryCopyPerByte, len(frame)))
	s.InputShard(frame, clk, shard)
}

// viewFrameInfo is the trusted digest of a mainstream frame header,
// produced by validateViewHeader from the frozen snapshot: the decoded
// IPv4 header and the decoded header of whichever L4 protocol it names.
type viewFrameInfo struct {
	ethSrc  [6]byte
	ip      IPv4Header
	udp     udpHeader // ip.Proto == ProtoUDP
	tcp     tcpSeg    // ip.Proto == ProtoTCP; payload unset
	dataOff int       // TCP data offset in bytes
}

// l4len is the L4 segment length the IP envelope declares.
func (fi *viewFrameInfo) l4len() int { return int(fi.ip.TotalLen) - fi.ip.HdrLen }

// validateViewHeader runs every gating check of the in-place parse on
// the frozen header snapshot, through the same decoders the copying
// path uses: Ethernet type, parseIPv4Header against frameLen (the
// certified frame length), no fragmentation, and parseUDPHeader or
// parseTCPHeader against the IP envelope. A true return means the
// header fields in the digest are safe to use as offsets and bounds
// within the snapshot and the frame; for TCP it additionally means the
// whole TCP header (options included) lies inside the snapshot, so
// every handshake and sequencing decision reads frozen bytes (ihl ≤ 60
// and dataOff ≤ 60 keep the sum under viewHeaderSnapMax whenever it is
// inside the frame).
//
//rakis:validator
func validateViewHeader(hdr mem.Snap, frameLen int) (fi viewFrameInfo, ok bool) {
	if len(hdr) < EthHeaderBytes || be16(hdr[12:14]) != EtherTypeIPv4 {
		return fi, false
	}
	copy(fi.ethSrc[:], hdr[6:12])
	ip := hdr[EthHeaderBytes:]
	if parseIPv4Header(ip, frameLen-EthHeaderBytes, &fi.ip) != nil || fi.ip.MF || fi.ip.FragOff != 0 {
		return fi, false // fragments too: reassembly copies anyway
	}
	l4 := ip[fi.ip.HdrLen:]
	switch fi.ip.Proto {
	case ProtoUDP:
		ok = parseUDPHeader(l4, fi.l4len(), &fi.udp)
	case ProtoTCP:
		fi.dataOff, ok = parseTCPHeader(l4, fi.l4len(), &fi.tcp)
	}
	return fi, ok
}

// inputViewInPlace handles the mainstream UDP shape in place and reports
// whether it consumed the view. A false return means the caller must run
// the copying fallback; the view is still live. All gating decisions are
// taken on the frozen header snapshot before any cost is charged, so a
// fallen-back packet is charged once, by Input.
func (s *Stack) inputViewInPlace(v *mem.View, clk *vtime.Clock, shard int) bool {
	hn := v.Len()
	if hn > viewHeaderSnapMax {
		hn = viewHeaderSnapMax
	}
	var frozen [viewHeaderSnapMax]byte
	hdr, err := v.SnapTo(frozen[:], 0, hn)
	if err != nil {
		// Stale view: the frame is already gone; nothing to deliver.
		return true
	}
	fi, ok := validateViewHeader(hdr, v.Len())
	if !ok {
		return false
	}
	if fi.ip.Dst != s.ip {
		return false
	}
	if fi.ip.Proto == ProtoTCP {
		return s.inputViewTCP(v, hdr, fi, clk, shard)
	}
	udpOff := EthHeaderBytes + fi.ip.HdrLen
	ulen := fi.udp.length
	spliceDev := s.udp.splice.lookup(fi.udp.dstPort)
	var sock *UDPSocket
	if spliceDev == nil {
		if sock = s.udp.ports.lookup(fi.udp.dstPort); sock == nil {
			return false // port unreachable: the copy path answers it
		}
	}

	// Mainstream: parse in place. From here on the packet is consumed
	// exactly as the copy path would consume it — same charges, same
	// counters, same drop points — minus the copies.
	clk.Charge(vtime.CompStack, s.cfg.PerPacketCost)
	s.arp.learn(fi.ip.Src, fi.ethSrc)
	if s.cfg.Counters != nil {
		s.cfg.Counters.PacketsRx.Add(1)
		s.cfg.Counters.BytesRx.Add(uint64(fi.l4len()))
	}
	if fi.udp.hasCsum {
		sum := pseudoHeaderSum(fi.ip.Src, fi.ip.Dst, ProtoUDP, ulen)
		sum = checksumPartial(sum, hdr[udpOff:udpOff+UDPHeaderBytes])
		if ulen > UDPHeaderBytes {
			// The single sanctioned payload traversal: one pass, no
			// decisions on individual bytes, 16-bit alignment preserved
			// by splitting at the even UDP-header boundary.
			live, rerr := v.Range(udpOff+UDPHeaderBytes, ulen-UDPHeaderBytes)
			if rerr != nil {
				v.Release()
				return true
			}
			sum = checksumPartial(sum, live)
		}
		if checksumFold(sum) != 0 {
			v.Release()
			return true
		}
	}
	if spliceDev != nil {
		s.spliceEcho(v, hdr, &fi, clk, spliceDev)
		return true
	}
	clk.Charge(vtime.CompStack, s.model.SocketOp)
	pv, err := v.Slice(udpOff+UDPHeaderBytes, ulen-UDPHeaderBytes)
	if err != nil {
		v.Release()
		return true
	}
	sock.enqueue(ViewDatagram(pv, Addr{IP: fi.ip.Src, Port: fi.udp.srcPort}, clk.Now()), s, shard)
	return true
}

// inputViewTCP ingests one mainstream TCP segment from a certified view.
// The trust discipline is stricter than the UDP path's, because TCP
// bytes drive a state machine: every header decision (ports, sequence
// numbers, flags, window, data offset) was decoded from the frozen
// snapshot by validateViewHeader, and the payload is copied into trusted
// memory in a single pass *before* the checksum is verified over
// pseudo-header + frozen header + trusted copy. Untrusted frame bytes
// are therefore read exactly once each — a host rewriting the frame
// after certification can only produce a checksum mismatch
// (deterministic drop), never a byte stream that differs from what was
// verified.
func (s *Stack) inputViewTCP(v *mem.View, hdr mem.Snap, fi viewFrameInfo, clk *vtime.Clock, shard int) bool {
	if s.tcp == nil {
		return false // trimmed UDP-only build: fallback path drops it
	}
	l4Off := EthHeaderBytes + fi.ip.HdrLen
	l4len := fi.l4len()
	clk.Charge(vtime.CompStack, s.cfg.PerPacketCost)
	if s.cfg.Counters != nil {
		s.cfg.Counters.PacketsRx.Add(1)
		s.cfg.Counters.BytesRx.Add(uint64(l4len))
	}

	// One boundary copy of the payload, charged like every app-boundary
	// crossing. (The TCP receive buffer is trusted memory; unlike a UDP
	// datagram a segment cannot be parked in untrusted memory awaiting
	// recv, because ACKing it promises the bytes are safely ours.)
	seg := fi.tcp
	if n := l4len - fi.dataOff; n > 0 {
		seg.payload = make([]byte, n)
		if _, err := v.CopyOut(seg.payload, l4Off+fi.dataOff); err != nil {
			v.Release()
			return true // stale view
		}
		clk.Charge(vtime.CompCopy, vtime.Bytes(s.model.BoundaryCopyPerByte, n))
	}

	// Checksum over pseudo-header, the frozen TCP header, and the
	// trusted payload copy — never over live untrusted bytes. dataOff is
	// a multiple of 4, so 16-bit alignment is preserved at the split.
	sum := pseudoHeaderSum(fi.ip.Src, fi.ip.Dst, ProtoTCP, l4len)
	sum = checksumPartial(sum, hdr[l4Off:l4Off+fi.dataOff])
	sum = checksumPartial(sum, seg.payload)
	if checksumFold(sum) != 0 {
		v.Release()
		return true
	}
	v.Release() // frame economy: the segment now lives in trusted memory
	s.tcp.inputSeg(fi.ip.Src, seg, clk, shard, &fi.ethSrc)
	return true
}

// spliceEcho reflects a checksum-verified UDP frame back to its sender
// in place: the header rewrite (MAC swap, IP src/dst swap, port swap) is
// built in trusted scratch from the frozen snapshot and applied with one
// small CopyIn; both the IPv4 and UDP checksums are invariant under
// 16-bit-aligned field swaps, so nothing is recomputed and the payload
// is never read. The frame then moves RX→TX through the splice device.
func (s *Stack) spliceEcho(v *mem.View, hdr mem.Snap, fi *viewFrameInfo, clk *vtime.Clock, dev SpliceDevice) {
	udpOff := EthHeaderBytes + fi.ip.HdrLen
	var scratch [EthHeaderBytes + 60 + UDPHeaderBytes]byte
	rew := scratch[:udpOff+UDPHeaderBytes]
	copy(rew, hdr)
	copy(rew[0:6], hdr[6:12]) // eth dst ← src
	copy(rew[6:12], hdr[0:6]) // eth src ← dst
	copy(rew[EthHeaderBytes+12:EthHeaderBytes+16], hdr[EthHeaderBytes+16:EthHeaderBytes+20])
	copy(rew[EthHeaderBytes+16:EthHeaderBytes+20], hdr[EthHeaderBytes+12:EthHeaderBytes+16])
	copy(rew[udpOff:udpOff+2], hdr[udpOff+2:udpOff+4])
	copy(rew[udpOff+2:udpOff+4], hdr[udpOff:udpOff+2])
	if _, err := v.CopyIn(0, rew); err != nil {
		v.Release()
		return
	}
	clk.Charge(vtime.CompCopy, vtime.Bytes(s.model.BoundaryCopyPerByte, len(rew)))
	frameLen := uint32(EthHeaderBytes) + uint32(fi.ip.TotalLen)
	if err := dev.SpliceFrame(v, frameLen, clk); err != nil {
		// TX saturated (or frame not spliceable): degrade to one copied
		// send of the already-rewritten frame on the flow's lane.
		// frameLen is within the certified view, so the CopyOut either
		// fills frame or fails stale.
		frame := make([]byte, frameLen)
		_, cerr := v.CopyOut(frame, 0)
		v.Release()
		if cerr != nil {
			return
		}
		clk.Charge(vtime.CompCopy, vtime.Bytes(s.model.BoundaryCopyPerByte, len(frame)))
		lane := TXShard(s.ip, fi.ip.Src, fi.udp.dstPort, fi.udp.srcPort, s.Shards())
		if s.sendFrame(lane, frame, clk) != nil {
			return
		}
	}
	if s.cfg.Counters != nil {
		s.cfg.Counters.PacketsTx.Add(1)
	}
}
