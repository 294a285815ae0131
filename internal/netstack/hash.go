package netstack

// This file is the single definition of the flow hash shared by the RSS
// steering program and the sharded data path. Shard consistency is an
// invariant, not a convention: the XDP/RSS program picks the RX queue
// with exactly this hash over exactly these bytes, so a stack that
// partitions its demux tables by the same hash is guaranteed that a
// flow's receive, socket processing, and (reversed-argument) transmit
// all land on the queue's own shard and never touch another shard's
// locks. Every shard decision in the repo must route through FlowHash —
// a second, drifting copy of the FNV loop is how cross-shard traffic
// sneaks back in.

// fnvBasis/fnvPrime are the 32-bit FNV-1a constants, matching what real
// NIC indirection tables seed their Toeplitz surrogate with in the
// simulator.
const (
	fnvBasis uint32 = 2166136261
	fnvPrime uint32 = 16777619
)

// FlowHash is the FNV-1a hash over a flow's addressing 12-tuple bytes in
// wire order: first IP a, then IP b, then port ap, then port bp (both
// ports big-endian, as they sit in the UDP header). The argument order
// is significant and mirrors packet direction: for a received frame the
// RSS program hashes (src IP, dst IP, src port, dst port); for a frame
// being transmitted, hashing the reversed tuple (dst IP, src IP, dst
// port, src port) yields the hash the peer's packets arrive under —
// which is what flow-affine TX steering needs, statelessly.
func FlowHash(a, b IP4, ap, bp uint16) uint32 {
	h := fnvBasis
	for _, x := range a {
		h = (h ^ uint32(x)) * fnvPrime
	}
	for _, x := range b {
		h = (h ^ uint32(x)) * fnvPrime
	}
	h = (h ^ uint32(ap>>8)) * fnvPrime
	h = (h ^ uint32(ap&0xFF)) * fnvPrime
	h = (h ^ uint32(bp>>8)) * fnvPrime
	h = (h ^ uint32(bp&0xFF)) * fnvPrime
	return h
}

// RXShard returns the shard (== RSS queue) a received packet with the
// given header fields is steered to, for n shards.
func RXShard(src, dst IP4, sport, dport uint16, n int) int {
	if n <= 1 {
		return 0
	}
	return int(FlowHash(src, dst, sport, dport) % uint32(n))
}

// TXShard returns the shard whose XSK queue a transmitted packet must
// leave on so it stays on the same shard its flow's inbound packets
// arrive on: the hash of the reversed tuple. For n <= 1 it is 0.
func TXShard(src, dst IP4, sport, dport uint16, n int) int {
	return RXShard(dst, src, dport, sport, n)
}

// FrameFlow extracts FlowHash's inputs, in wire order, from an Ethernet
// frame: the parser behind the RSS program's steering decision (it
// passes the tuple to RXShard; the stack's TX lane choice passes the
// tuple it already holds to TXShard and parses nothing). An
// unfragmented UDP or TCP packet yields its address and port pairs. Any
// other IPv4 packet — a fragment, whose later pieces carry payload where
// the first carries ports, a protocol without ports, an L4 header cut
// short — yields the address pair with zero ports, as the stack's
// fragment and ICMP lanes do, so every fragment of one datagram takes
// the same queue. ok is false when there is no IPv4 header to key on
// (short frame, ARP, bad version or IHL); callers send those to shard 0.
func FrameFlow(frame []byte) (src, dst IP4, sport, dport uint16, ok bool) {
	if len(frame) < EthHeaderBytes+IPv4HeaderBytes || be16(frame[12:14]) != EtherTypeIPv4 {
		return
	}
	ip := frame[EthHeaderBytes:]
	ihl := int(ip[0]&0x0F) * 4
	if ip[0]>>4 != 4 || ihl < IPv4HeaderBytes || len(ip) < ihl {
		return
	}
	copy(src[:], ip[12:16])
	copy(dst[:], ip[16:20])
	fragment := be16(ip[6:8])&0x3FFF != 0 // MF set or a non-zero offset
	if !fragment && (ip[9] == ProtoUDP || ip[9] == ProtoTCP) && len(ip) >= ihl+4 {
		sport, dport = be16(ip[ihl:]), be16(ip[ihl+2:])
	}
	return src, dst, sport, dport, true
}
