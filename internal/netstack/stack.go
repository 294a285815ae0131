package netstack

import (
	"fmt"
	"sync/atomic"
	"time"

	"rakis/internal/vtime"
)

// Config configures a Stack instance.
type Config struct {
	// Name identifies the stack in diagnostics ("kernel", "enclave").
	Name string
	// Dev is the layer-2 output.
	Dev LinkDevice
	// IP is the interface address.
	IP IP4
	// Model supplies cost constants; nil uses vtime.Default.
	Model *vtime.Model
	// Counters receives statistics; it may be nil.
	Counters *vtime.Counters
	// EnableTCP compiles in the TCP layer. The kernel configuration has
	// always carried it; the trimmed enclave build (which the paper kept
	// UDP-only, proxying TCP through io_uring per §4.2/§7) can now opt in
	// to run TCP on the zero-exit XSK path.
	EnableTCP bool
	// TCPCookies selects the stateless SYN-cookie listen path: no
	// per-SYN state is allocated until the cookie round-trips, so a
	// spoofed-SYN flood cannot grow enclave memory. The kernel stack
	// keeps the classic stateful handshake (false).
	TCPCookies bool
	// EnableICMP compiles in ICMP echo/unreachable handling.
	EnableICMP bool
	// PerPacketCost is the processing cost charged per packet (the
	// kernel-stack hop for the full build, the trimmed-stack hop for the
	// enclave build). Zero selects the model's KernelNetPerPacket.
	PerPacketCost uint64
	// Shards partitions the UDP demux tables and per-socket receive
	// queues per RSS queue: InputShard(i) traffic only ever touches
	// shard i's demux replica and shard i's queue of each socket, so N
	// pump threads share no hot-path lock. Shard selection must agree
	// with the RSS steering hash (FlowHash) — the stack trusts the
	// caller's shard index. Zero or one selects the classic single-shard
	// layout (the kernel stack stays there).
	Shards int
	// StaticARP seeds the neighbour cache (the RAKIS deployment config
	// carries the peer MAC).
	StaticARP map[IP4][6]byte
}

// Stack is one network-stack instance.
type Stack struct {
	cfg   Config
	model *vtime.Model
	dev   LinkDevice
	ip    IP4
	arp   *arpTable
	reasm *reassembler

	udp    *udpTable
	tcp    *tcpTable
	splice spliceTable

	ipID   atomic.Uint32
	closed atomic.Bool
}

// New creates a stack bound to cfg.Dev.
func New(cfg Config) (*Stack, error) {
	if cfg.Dev == nil {
		return nil, fmt.Errorf("netstack: nil device")
	}
	if cfg.Model == nil {
		cfg.Model = vtime.Default()
	}
	if cfg.PerPacketCost == 0 {
		cfg.PerPacketCost = cfg.Model.KernelNetPerPacket
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	s := &Stack{
		cfg:   cfg,
		model: cfg.Model,
		dev:   cfg.Dev,
		ip:    cfg.IP,
		arp:   newARPTable(cfg.StaticARP),
		reasm: newReassembler(),
		udp:   newUDPTable(cfg.Shards),
	}
	if cfg.EnableTCP {
		s.tcp = newTCPTable(s, cfg.Shards, cfg.TCPCookies)
	}
	return s, nil
}

// IP returns the interface address.
func (s *Stack) IP() IP4 { return s.ip }

// Shards returns the demux shard count.
func (s *Stack) Shards() int { return len(s.udp.demux) }

// Model returns the stack's cost model.
func (s *Stack) Model() *vtime.Model { return s.model }

// Close shuts the stack down: all sockets error out.
func (s *Stack) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.udp.closeAll()
	if s.tcp != nil {
		s.tcp.closeAll()
	}
}

// Input feeds one received Ethernet frame into the stack on shard 0. It
// runs on the caller's (softirq or FM) virtual clock and never retains
// frame.
func (s *Stack) Input(frame []byte, clk *vtime.Clock) {
	s.InputShard(frame, clk, 0)
}

// InputShard feeds one received Ethernet frame into the stack through
// the given demux shard. The caller (an FM pump bound to one XSK queue)
// guarantees the frame was RSS-steered to that queue, so every lock the
// demux takes belongs to this shard alone.
func (s *Stack) InputShard(frame []byte, clk *vtime.Clock, shard int) {
	if s.closed.Load() {
		return
	}
	clk.Charge(vtime.CompStack, s.cfg.PerPacketCost)
	eth, payload, err := ParseEth(frame)
	if err != nil {
		return
	}
	switch eth.Type {
	case EtherTypeARP:
		s.inputARP(payload, clk)
	case EtherTypeIPv4:
		s.inputIPv4(eth, payload, clk, shard)
	}
}

func (s *Stack) inputARP(payload []byte, clk *vtime.Clock) {
	p, ok := parseARP(payload)
	if !ok {
		return
	}
	switch p.op {
	case arpOpRequest:
		// Learn the asker and answer if they want us.
		s.arp.learn(p.spa, p.sha)
		if p.tpa == s.ip {
			reply := arpPacket{
				op:  arpOpReply,
				sha: s.dev.MAC(), spa: s.ip,
				tha: p.sha, tpa: p.spa,
			}
			s.sendFrame(p.sha, EtherTypeARP, marshalARP(reply), clk)
		}
	case arpOpReply:
		s.arp.learn(p.spa, p.sha)
	}
}

func (s *Stack) inputIPv4(eth EthHeader, pkt []byte, clk *vtime.Clock, shard int) {
	h, payload, err := ParseIPv4(pkt)
	if err != nil {
		return
	}
	if h.Dst != s.ip && h.Dst != (IP4{255, 255, 255, 255}) {
		return // not for us; the simulated hosts never forward
	}
	// Learn the sender's MAC so replies never stall on ARP resolution in
	// softirq context (the single-segment network makes this safe).
	s.arp.learn(h.Src, eth.Src)
	if h.MF || h.FragOff != 0 {
		payload = s.reasm.add(h, payload)
		if payload == nil {
			return
		}
	}
	if s.cfg.Counters != nil {
		s.cfg.Counters.PacketsRx.Add(1)
		s.cfg.Counters.BytesRx.Add(uint64(len(payload)))
	}
	switch h.Proto {
	case ProtoUDP:
		s.inputUDP(h, payload, pkt, clk, shard)
	case ProtoTCP:
		if s.tcp != nil {
			s.tcp.input(h, payload, clk, shard, &eth.Src)
		}
	case ProtoICMP:
		if s.cfg.EnableICMP {
			s.handleICMP(h, payload, clk)
		}
	}
}

// sendFrame transmits one layer-2 frame.
func (s *Stack) sendFrame(dst [6]byte, etherType uint16, payload []byte, clk *vtime.Clock) (uint64, error) {
	frame := MarshalEth(EthHeader{Dst: dst, Src: s.dev.MAC(), Type: etherType}, payload)
	return s.dev.SendFrame(frame, clk)
}

// resolve finds the MAC for dst, emitting ARP requests as needed.
func (s *Stack) resolve(dst IP4, clk *vtime.Clock) ([6]byte, error) {
	if mac, ok := s.arp.lookup(dst); ok {
		return mac, nil
	}
	req := arpPacket{op: arpOpRequest, sha: s.dev.MAC(), spa: s.ip, tpa: dst}
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := s.sendFrame(Broadcast, EtherTypeARP, marshalARP(req), clk); err != nil {
			return [6]byte{}, err
		}
		if mac, ok := s.arp.waitFor(dst, time.Now().Add(200*time.Millisecond)); ok {
			return mac, nil
		}
	}
	return [6]byte{}, fmt.Errorf("%w: %v", ErrNoRoute, dst)
}

// sendIP resolves dst's MAC (emitting ARP requests as needed) and
// transmits through sendIPTo.
func (s *Stack) sendIP(proto byte, dst IP4, payload []byte, clk *vtime.Clock) (uint64, error) {
	mac, err := s.resolve(dst, clk)
	if err != nil {
		return clk.Now(), err
	}
	return s.sendIPTo(mac, proto, dst, payload, clk)
}

// nextHeader is the IPv4 header of the stack's next outgoing packet.
func (s *Stack) nextHeader(proto byte, dst IP4) IPv4Header {
	return IPv4Header{ID: uint16(s.ipID.Add(1)), TTL: 64, Proto: proto, Src: s.ip, Dst: dst}
}

// sendIPTo encapsulates an L4 payload and transmits it to a layer-2
// destination already in hand, fragmenting to the MTU when necessary;
// it returns the virtual time of the last fragment's serialization. No
// ARP lookup, no resolution stall, no neighbour-cache insertion: the
// enclave TCP path calls it directly for every reply whose MAC came off
// the triggering frame (SYN-cookie SYN|ACKs, RSTs to spoofed sources)
// and for established flows with a cached peer MAC, so hostile traffic
// can neither block an FM pump on resolution nor grow shared ARP state.
func (s *Stack) sendIPTo(mac [6]byte, proto byte, dst IP4, payload []byte, clk *vtime.Clock) (uint64, error) {
	h := s.nextHeader(proto, dst)
	end := clk.Now()
	var err error
	for _, pkt := range fragmentIPv4(h, payload, s.dev.MTU()) {
		end, err = s.sendFrame(mac, EtherTypeIPv4, pkt, clk)
		if err != nil {
			return end, err
		}
	}
	if s.cfg.Counters != nil {
		s.cfg.Counters.PacketsTx.Add(1)
	}
	return end, nil
}

// sendIPBatch encapsulates several same-destination L4 payloads and
// transmits them as one run. When the link device supports batched
// output the MAC is resolved once, every fragment of every payload is
// framed up front, and the whole run is handed to the device in a single
// call; otherwise it degrades to per-payload sendIP. It returns the
// number of payloads all of whose fragments went out, counts only those,
// and reports an error only when the first payload failed.
func (s *Stack) sendIPBatch(proto byte, dst IP4, payloads [][]byte, clk *vtime.Clock) (int, error) {
	var bdev BatchLinkDevice
	if len(payloads) > 1 { // a run of one gains nothing from the batched device
		bdev, _ = s.dev.(BatchLinkDevice)
	}
	if bdev == nil {
		for i, p := range payloads {
			if _, err := s.sendIP(proto, dst, p, clk); err != nil {
				if i == 0 {
					return 0, err
				}
				return i, nil
			}
		}
		return len(payloads), nil
	}
	mac, err := s.resolve(dst, clk)
	if err != nil {
		return 0, err
	}
	src := s.dev.MAC()
	frames := make([][]byte, 0, len(payloads))
	for _, payload := range payloads {
		for _, pkt := range fragmentIPv4(s.nextHeader(proto, dst), payload, s.dev.MTU()) {
			frames = append(frames, MarshalEth(EthHeader{Dst: mac, Src: src, Type: EtherTypeIPv4}, pkt))
		}
	}
	accepted, err := bdev.SendFrames(frames, clk)
	// A payload is out once its last fragment — the one frame of it with
	// MF clear — is inside the accepted prefix.
	sent := 0
	for _, f := range frames[:accepted] {
		if f[EthHeaderBytes+6]&0x20 == 0 {
			sent++
		}
	}
	if s.cfg.Counters != nil {
		s.cfg.Counters.PacketsTx.Add(uint64(sent))
	}
	if sent == 0 {
		return 0, err
	}
	return sent, nil
}
