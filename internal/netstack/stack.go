package netstack

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rakis/internal/mem"
	"rakis/internal/vtime"
)

// Config configures a Stack instance.
type Config struct {
	// Name identifies the stack in diagnostics ("kernel", "enclave").
	Name string
	// Dev is the layer-2 output: a LendingDevice, or a plain LinkDevice,
	// which New wraps in the lending adapter.
	Dev Link
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
	// Shards partitions the per-socket receive queues, the TCP
	// connection tables and the TCP timer sets per RSS queue:
	// InputShard(i) traffic only ever locks shard i's queue of a socket
	// and shard i's connections, so N pump threads share no hot-path
	// lock (the port tables take none at all). Shard selection must
	// agree with the RSS steering hash (FlowHash) — the stack trusts the
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
	dev   LendingDevice
	ip    IP4
	arp   *arpTable
	reasm *reassembler

	udp *udpTable
	tcp *tcpTable

	ipID   atomic.Uint32
	closed atomic.Bool

	// txRuns recycles the *txRun arrays sends are assembled in: an
	// array handed to the device interface cannot live on the sender's
	// stack, and over a plain LinkDevice its slots keep the frame
	// buffers the adapter lent.
	txRuns sync.Pool
}

// txRun holds the buffers of one lend → build → publish pass: as many as
// the widest vector the tuner advises.
type txRun [32]mem.TxBuf

// New creates a stack bound to cfg.Dev.
func New(cfg Config) (*Stack, error) {
	dev, lends := cfg.Dev.(LendingDevice)
	if plain, ok := cfg.Dev.(LinkDevice); ok && !lends {
		dev, lends = frameLender{plain}, true
	}
	if !lends {
		return nil, fmt.Errorf("netstack: device %T neither lends buffers nor sends frames", cfg.Dev)
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
		dev:   dev,
		ip:    cfg.IP,
		arp:   newARPTable(cfg.StaticARP),
		reasm: newReassembler(),
		udp:   &udpTable{ephemeral: 32768},
	}
	s.txRuns.New = func() any { return new(txRun) }
	if cfg.EnableTCP {
		s.tcp = newTCPTable(s, cfg.Shards, cfg.TCPCookies)
	}
	return s, nil
}

// IP returns the interface address.
func (s *Stack) IP() IP4 { return s.ip }

// Shards returns the demux shard count.
func (s *Stack) Shards() int { return s.cfg.Shards }

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

// InputShard feeds one received Ethernet frame into the stack on the
// given shard. The caller (an FM pump bound to one XSK queue) guarantees
// the frame was RSS-steered to that queue, so every lock the demux takes
// belongs to this shard alone.
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
			s.sendARP(p.sha, reply, clk)
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

// sendFrame is the cold end of the TX path: one frame already built in
// trusted memory (an ARP message, an IPv4 fragment, a splice that fell
// back) leaves by lend, plain copy, publish.
func (s *Stack) sendFrame(lane int, frame []byte, clk *vtime.Clock) error {
	run := s.txRuns.Get().(*txRun)
	defer s.txRuns.Put(run)
	if _, err := s.dev.Lend(lane, len(frame), run[:1], clk); err != nil {
		return err
	}
	run[0].B = run[0].B[:copy(run[0].B, frame)]
	_, err := s.dev.Publish(lane, run[:1], clk)
	return err
}

// sendARP transmits one ARP message on lane 0, where inbound ARP lands.
func (s *Stack) sendARP(dst [6]byte, p arpPacket, clk *vtime.Clock) error {
	return s.sendFrame(0, MarshalEth(EthHeader{Dst: dst, Src: s.dev.MAC(), Type: EtherTypeARP}, marshalARP(p)), clk)
}

// resolve finds the MAC for dst, emitting ARP requests as needed.
func (s *Stack) resolve(dst IP4, clk *vtime.Clock) ([6]byte, error) {
	if mac, ok := s.arp.lookup(dst); ok {
		return mac, nil
	}
	req := arpPacket{op: arpOpRequest, sha: s.dev.MAC(), spa: s.ip, tpa: dst}
	for attempt := 0; attempt < 3; attempt++ {
		if err := s.sendARP(Broadcast, req, clk); err != nil {
			return [6]byte{}, err
		}
		if mac, ok := s.arp.waitFor(dst, 200*time.Millisecond); ok {
			return mac, nil
		}
	}
	return [6]byte{}, fmt.Errorf("%w: %v", ErrNoRoute, dst)
}

// sendIP transmits one portless L4 message (ICMP) on its address pair's
// lane, resolving dst's MAC.
func (s *Stack) sendIP(proto byte, dst IP4, payload []byte, clk *vtime.Clock) error {
	_, err := s.sendRun(nil, TXShard(s.ip, dst, 0, 0, s.Shards()), proto, dst, nil, [][]byte{payload}, clk)
	return err
}

// nextHeader is the IPv4 header of the stack's next outgoing packet.
func (s *Stack) nextHeader(proto byte, dst IP4) IPv4Header {
	return IPv4Header{ID: uint16(s.ipID.Add(1)), TTL: 64, Proto: proto, Src: s.ip, Dst: dst}
}

// sendRun is the stack's one TX path — lend → build → publish — for one
// flow's run of L4 messages: l4h, the flow's UDP or TCP header (nil for
// ICMP, which carries its own), goes in front of each payload, on the
// lane the caller derived from the flow tuple. Per pass the device lends
// up to a txRun of buffers, each message is built once, in the buffer it
// leaves from (buildFrame), and one Publish sends the pass; a message
// over the MTU takes the fragmenting fallback in its turn. A nil mac is
// resolved through ARP. With a MAC in hand nothing here looks up,
// stalls on or grows the neighbour cache: the enclave TCP path passes
// the MAC off the triggering frame (SYN-cookie SYN|ACKs, RSTs to spoofed
// sources) or the flow's cached one, so hostile traffic cannot block an
// FM pump. Semantics follow sendmmsg: it returns how many leading
// messages went out whole, counts only those, and reports an error only
// when the first failed.
func (s *Stack) sendRun(mac *[6]byte, lane int, proto byte, dst IP4, l4h []byte, payloads [][]byte, clk *vtime.Clock) (int, error) {
	if mac == nil {
		resolved, err := s.resolve(dst, clk)
		if err != nil {
			return 0, err
		}
		mac = &resolved
	}
	eth := EthHeader{Dst: *mac, Src: s.dev.MAC(), Type: EtherTypeIPv4}
	mtu := s.dev.MTU()
	run := s.txRuns.Get().(*txRun)
	defer s.txRuns.Put(run)
	sent := 0
	var err error
	for sent < len(payloads) && err == nil {
		k := 0
		for k < len(run) && sent+k < len(payloads) && IPv4HeaderBytes+len(l4h)+len(payloads[sent+k]) <= mtu {
			k++
		}
		if k == 0 {
			if err = s.sendFragments(eth, proto, dst, l4h, payloads[sent], clk); err == nil {
				sent++
			}
			continue
		}
		if k, err = s.dev.Lend(lane, EthHeaderBytes+mtu, run[:k], clk); err != nil {
			break
		}
		for i := range run[:k] {
			run[i].B = s.buildFrame(run[i].B, eth, proto, dst, l4h, payloads[sent+i])
		}
		k, err = s.dev.Publish(lane, run[:k], clk)
		sent += k
	}
	if s.cfg.Counters != nil {
		s.cfg.Counters.PacketsTx.Add(uint64(sent))
	}
	if sent > 0 {
		err = nil
	}
	return sent, err
}

// buildFrame builds one frame in b, a lent buffer, and returns b cut to
// the frame. The headers are assembled and checksummed in trusted
// scratch — the L4 checksum over the caller's header and payload bytes —
// and then each byte of the frame is written once: the headers, and the
// payload in the only copy it ever gets. Nothing is read back from b,
// which may be memory the host can write.
func (s *Stack) buildFrame(b []byte, eth EthHeader, proto byte, dst IP4, l4h, payload []byte) []byte {
	const l4At = EthHeaderBytes + IPv4HeaderBytes
	var hdr [l4At + TCPHeaderBytes]byte
	n := l4At + copy(hdr[l4At:], l4h)
	putEthHeader(hdr[:], eth)
	putIPv4Header(hdr[EthHeaderBytes:], s.nextHeader(proto, dst), n-l4At+len(payload))
	sealL4(hdr[l4At:n], proto, s.ip, dst, payload)
	copy(b, hdr[:n])
	return b[:n+copy(b[n:], payload)]
}

// sealL4 fills in the per-message fields of the UDP or TCP header h,
// held in trusted memory with a zero checksum field: the UDP length, and
// the checksum over pseudo-header, h and payload. An empty h (ICMP
// carries its own checksum) is left alone.
func sealL4(h []byte, proto byte, src, dst IP4, payload []byte) {
	if len(h) == 0 {
		return
	}
	ck := h[16:18] // TCP
	if proto == ProtoUDP {
		put16(h[4:6], uint16(len(h)+len(payload)))
		ck = h[6:8]
	}
	sum := pseudoHeaderSum(src, dst, proto, len(h)+len(payload))
	c := checksumFold(checksumPartial(checksumPartial(sum, h), payload))
	if c == 0 && proto == ProtoUDP {
		c = 0xFFFF // zero means "no checksum" on the wire
	}
	put16(ck, c)
}

// sendFragments is the cold fallback for a message over the MTU: the L4
// message is assembled in trusted memory and cut into IPv4 fragments,
// which leave through sendFrame on the address pair's lane — where RSS,
// blind to ports past the first fragment, steers a fragmented datagram
// coming the other way.
func (s *Stack) sendFragments(eth EthHeader, proto byte, dst IP4, l4h, payload []byte, clk *vtime.Clock) error {
	l4 := append(append(make([]byte, 0, len(l4h)+len(payload)), l4h...), payload...)
	sealL4(l4[:len(l4h)], proto, s.ip, dst, payload)
	lane := TXShard(s.ip, dst, 0, 0, s.Shards())
	for _, pkt := range fragmentIPv4(s.nextHeader(proto, dst), l4, s.dev.MTU()) {
		if err := s.sendFrame(lane, MarshalEth(eth, pkt), clk); err != nil {
			return err
		}
	}
	return nil
}
