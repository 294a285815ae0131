package netstack

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rakis/internal/vtime"
)

// These tests exercise the sharded UDP demux directly — the lock-free
// copy-on-write port map, per-socket shard queues, and the MPMC receiver
// protocol — under the race detector, across shard widths 1..64. They drive
// inputUDP straight (no device, no rings) so the only moving parts are
// the demux data structures themselves.

// nullLink is a sink device for stacks that only receive.
type nullLink struct{}

func (nullLink) SendFrame(data []byte, clk *vtime.Clock) (uint64, error) { return clk.Now(), nil }
func (nullLink) MAC() [6]byte                                            { return [6]byte{2, 0, 0, 0, 0, 9} }
func (nullLink) MTU() int                                                { return 1500 }

func newShardStack(t *testing.T, shards int) *Stack {
	t.Helper()
	s, err := New(Config{
		Name:   fmt.Sprintf("shards%d", shards),
		Dev:    nullLink{},
		IP:     IP4{10, 9, 0, 2},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// injectUDP feeds one datagram into the stack through the given shard,
// exactly as an FM pump bound to that queue would after RSS steering.
func injectUDP(s *Stack, shard int, src Addr, dport uint16, data []byte, clk *vtime.Clock) {
	p := make([]byte, UDPHeaderBytes+len(data))
	put16(p[0:2], src.Port)
	put16(p[2:4], dport)
	put16(p[4:6], uint16(len(p)))
	// checksum 0: legal for UDP/IPv4, and keeps the focus on the demux.
	copy(p[UDPHeaderBytes:], data)
	h := IPv4Header{Src: src.IP, Dst: s.IP()}
	s.inputUDP(h, p, nil, clk, shard)
}

// shardFlow picks a source port that RSS-steers (srcIP -> stack, port ->
// dport) onto the wanted shard.
func shardFlow(t *testing.T, s *Stack, srcIP IP4, dport uint16, shard int) Addr {
	t.Helper()
	for p := uint16(20000); p < 65000; p++ {
		if RXShard(srcIP, s.IP(), p, dport, s.Shards()) == shard {
			return Addr{IP: srcIP, Port: p}
		}
	}
	t.Fatalf("no port steers to shard %d/%d", shard, s.Shards())
	return Addr{}
}

// TestShardDemuxWidths runs one injector pump per shard at every width
// 1..64 and checks, with a single receiver, that every datagram arrives
// and each flow's sequence numbers stay in order — the per-flow FIFO
// guarantee RSS steering is supposed to buy.
func TestShardDemuxWidths(t *testing.T) {
	const perShard = 200
	for _, width := range []int{1, 2, 3, 4, 7, 8, 16, 32, 64} {
		width := width
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			t.Parallel()
			s := newShardStack(t, width)
			if s.Shards() != width {
				t.Fatalf("Shards() = %d, want %d", s.Shards(), width)
			}
			sock, err := s.UDPBind(7)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for sh := 0; sh < width; sh++ {
				src := shardFlow(t, s, IP4{10, 9, 0, 100}, 7, sh)
				wg.Add(1)
				go func(sh int, src Addr) {
					defer wg.Done()
					var clk vtime.Clock
					buf := make([]byte, 4)
					for i := 0; i < perShard; i++ {
						put16(buf[0:2], uint16(sh))
						put16(buf[2:4], uint16(i))
						injectUDP(s, sh, src, 7, buf, &clk)
					}
				}(sh, src)
			}
			next := make([]int, width)
			var clk vtime.Clock
			for n := 0; n < width*perShard; n++ {
				d, err := sock.RecvFrom(&clk, true)
				if err != nil {
					t.Fatal(err)
				}
				b := d.Bytes()
				if len(b) != 4 {
					t.Fatalf("payload len %d", len(b))
				}
				sh, seq := int(be16(b[0:2])), int(be16(b[2:4]))
				if seq != next[sh] {
					t.Fatalf("shard %d: got seq %d, want %d (per-flow FIFO broken)", sh, seq, next[sh])
				}
				next[sh]++
			}
			wg.Wait()
			if _, err := sock.RecvFrom(&clk, false); !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("queue not empty after full drain: %v", err)
			}
		})
	}
}

// TestShardDemuxMPMC floods all shards while several receivers share the
// socket — the multi-producer multi-consumer protocol (coalesced wakeup
// channel plus baton re-signal) must deliver every datagram with no lost
// wakeups and no duplicates.
func TestShardDemuxMPMC(t *testing.T) {
	const (
		width     = 16
		perShard  = 300
		receivers = 8
	)
	s := newShardStack(t, width)
	sock, err := s.UDPBind(7)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	seen := make([]atomic.Int32, width*perShard)
	var rwg sync.WaitGroup
	for r := 0; r < receivers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var clk vtime.Clock
			for {
				d, err := sock.RecvFrom(&clk, true)
				if err != nil {
					return // closed: every datagram must already be counted
				}
				b := d.Bytes()
				id := int(be16(b[0:2]))*perShard + int(be16(b[2:4]))
				if seen[id].Add(1) != 1 {
					t.Errorf("datagram %d delivered twice", id)
				}
				got.Add(1)
			}
		}()
	}
	var iwg sync.WaitGroup
	for sh := 0; sh < width; sh++ {
		src := shardFlow(t, s, IP4{10, 9, 0, 101}, 7, sh)
		iwg.Add(1)
		go func(sh int, src Addr) {
			defer iwg.Done()
			var clk vtime.Clock
			buf := make([]byte, 4)
			for i := 0; i < perShard; i++ {
				put16(buf[0:2], uint16(sh))
				put16(buf[2:4], uint16(i))
				injectUDP(s, sh, src, 7, buf, &clk)
			}
		}(sh, src)
	}
	iwg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < width*perShard && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != width*perShard {
		t.Fatalf("delivered %d of %d", got.Load(), width*perShard)
	}
	sock.Close()
	rwg.Wait()
}

// TestShardRebindDifferentShard closes a bound port and rebinds it, then
// delivers through a different shard than the first socket ever used:
// the one port map every shard reads must show the rebind, and nothing
// from the old socket may linger.
func TestShardRebindDifferentShard(t *testing.T) {
	const width = 8
	s := newShardStack(t, width)
	first, err := s.UDPBind(7)
	if err != nil {
		t.Fatal(err)
	}
	var clk vtime.Clock
	src0 := shardFlow(t, s, IP4{10, 9, 0, 102}, 7, 0)
	injectUDP(s, 0, src0, 7, []byte("old"), &clk)
	if d, err := first.RecvFrom(&clk, true); err != nil || string(d.Bytes()) != "old" {
		t.Fatalf("first socket recv: %v", err)
	}
	first.Close()
	if s.udp.ports.lookup(7) != nil {
		t.Fatal("port 7 still bound after close")
	}
	second, err := s.UDPBind(7)
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	if s.udp.ports.lookup(7) != second {
		t.Fatal("port 7 does not map the rebound socket")
	}
	// Deliver through a different shard than the first socket ever saw.
	src5 := shardFlow(t, s, IP4{10, 9, 0, 103}, 7, 5)
	injectUDP(s, 5, src5, 7, []byte("new"), &clk)
	d, err := second.RecvFrom(&clk, true)
	if err != nil || string(d.Bytes()) != "new" {
		t.Fatalf("rebound socket recv: %q, %v", d.Bytes(), err)
	}
	if _, err := first.RecvFrom(&clk, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed socket recv = %v, want ErrClosed", err)
	}
}

// TestShardPortCollision checks that port ownership stays global across
// shards: two flows hashing to different shards still cannot bind the
// same port, and under concurrent contention exactly one bind wins.
func TestShardPortCollision(t *testing.T) {
	s := newShardStack(t, 8)
	sock, err := s.UDPBind(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UDPBind(7); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("second bind = %v, want ErrPortInUse", err)
	}
	sock.Close()

	const contenders = 16
	var wins atomic.Int32
	var wg sync.WaitGroup
	winners := make(chan *UDPSocket, contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w, err := s.UDPBind(4242); err == nil {
				wins.Add(1)
				winners <- w
			} else if !errors.Is(err, ErrPortInUse) {
				t.Errorf("bind: %v", err)
			}
		}()
	}
	wg.Wait()
	close(winners)
	if wins.Load() != 1 {
		t.Fatalf("%d concurrent binds won port 4242, want exactly 1", wins.Load())
	}
	w := <-winners
	if s.udp.ports.lookup(4242) != w {
		t.Fatal("the port map disagrees about port 4242's owner")
	}
}

// TestPortMapBindCloseLeavesNothing: the copy-on-write port map is the
// one record of a binding, so a thousand binds and closes leave it empty
// (nothing lingers in a superseded copy a reader could still find), a
// lookup on the packet path costs no heap object, and a stack shut down
// through closeAll refuses further binds.
func TestPortMapBindCloseLeavesNothing(t *testing.T) {
	s := newShardStack(t, 8)
	socks := make([]*UDPSocket, 1000)
	for i := range socks {
		var err error
		if socks[i], err = s.UDPBind(uint16(10000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.udp.ports.load()); n != len(socks) {
		t.Fatalf("%d ports bound, want %d", n, len(socks))
	}
	if n := testing.AllocsPerRun(100, func() {
		if s.udp.ports.lookup(10500) != socks[500] || s.udp.ports.lookup(9) != nil {
			t.Fatal("lookup disagrees with the binds")
		}
	}); n != 0 {
		t.Fatalf("a demux lookup allocates %v objects, want 0", n)
	}
	for _, sock := range socks[:len(socks)-1] {
		sock.Close()
	}
	if m := s.udp.ports.load(); len(m) != 1 || m[10999] != socks[999] {
		t.Fatalf("after closing all but the last socket the map holds %d ports", len(m))
	}
	s.Close() // closeAll closes the last one
	if n := len(s.udp.ports.load()); n != 0 {
		t.Fatalf("%d ports still bound after shutdown", n)
	}
	if _, err := s.UDPBind(10000); !errors.Is(err, ErrClosed) {
		t.Fatalf("bind after shutdown = %v, want ErrClosed", err)
	}
}

// TestShardBindCloseRecvRace hammers bind/close/inject/recv on the same
// ports from every direction at width 64. The assertions are weak on
// purpose — the race detector is the real oracle; the invariant checked
// here is only that a datagram is never delivered to a closed socket's
// caller and the stack survives. Injection volume is bounded (not a
// spin loop) so the test stays fair on a single-core runner.
func TestShardBindCloseRecvRace(t *testing.T) {
	const (
		width    = 64
		ports    = 4
		rounds   = 12
		perShard = 40
	)
	s := newShardStack(t, width)
	var wg sync.WaitGroup
	// Injectors: one pump per shard, spraying all contested ports a
	// bounded number of times, yielding between bursts.
	for sh := 0; sh < width; sh++ {
		src := shardFlow(t, s, IP4{10, 9, 0, 104}, 9000, sh)
		wg.Add(1)
		go func(sh int, src Addr) {
			defer wg.Done()
			var clk vtime.Clock
			buf := []byte{0xAB}
			for i := 0; i < perShard; i++ {
				for p := 0; p < ports; p++ {
					injectUDP(s, sh, src, uint16(9000+p), buf, &clk)
				}
				runtime.Gosched()
			}
		}(sh, src)
	}
	// Churners: each owns one port, repeatedly binding, receiving a
	// little, and closing.
	var cwg sync.WaitGroup
	for p := 0; p < ports; p++ {
		cwg.Add(1)
		go func(p int) {
			defer cwg.Done()
			var clk vtime.Clock
			for r := 0; r < rounds; r++ {
				sock, err := s.UDPBind(uint16(9000 + p))
				if err != nil {
					t.Errorf("port %d round %d: %v", 9000+p, r, err)
					return
				}
				for i := 0; i < 4; i++ {
					if _, err := recvWithin(sock, &clk, 20*time.Millisecond); err != nil && !errors.Is(err, ErrTimeout) {
						t.Errorf("port %d: recv: %v", 9000+p, err)
					}
				}
				sock.Close()
				if _, err := sock.RecvFrom(&clk, false); !errors.Is(err, ErrClosed) {
					t.Errorf("port %d: recv on closed = %v", 9000+p, err)
				}
			}
		}(p)
	}
	cwg.Wait()
	wg.Wait()
}

// TestFrameFlow pins the one frame parser behind both steering
// decisions: unfragmented UDP/TCP key on addresses and ports (the tuple
// FlowHash always took), every other IPv4 packet — each fragment of a
// datagram included — on the address pair alone, and frames without an
// IPv4 header have no key. A request and its reply land on one shard.
func TestFrameFlow(t *testing.T) {
	a, b := IP4{10, 0, 0, 1}, IP4{10, 0, 0, 3}
	frame := func(h IPv4Header, l4 []byte) []byte {
		return MarshalEth(EthHeader{Type: EtherTypeIPv4}, MarshalIPv4(h, l4))
	}
	ports := []byte{0x9c, 0x40, 0, 7, 0, 12, 0, 0, 'd', 'a', 't', 'a'} // 40000 -> 7
	for _, tc := range []struct {
		name         string
		frame        []byte
		sport, dport uint16
		ok           bool
	}{
		{"udp", frame(IPv4Header{Proto: ProtoUDP, Src: a, Dst: b}, ports), 40000, 7, true},
		{"tcp", frame(IPv4Header{Proto: ProtoTCP, Src: a, Dst: b}, ports), 40000, 7, true},
		{"udp df", frame(IPv4Header{Proto: ProtoUDP, Src: a, Dst: b, DF: true}, ports), 40000, 7, true},
		{"first fragment", frame(IPv4Header{Proto: ProtoUDP, Src: a, Dst: b, MF: true}, ports), 0, 0, true},
		{"later fragment", frame(IPv4Header{Proto: ProtoUDP, Src: a, Dst: b, MF: true, FragOff: 8}, ports), 0, 0, true},
		{"last fragment", frame(IPv4Header{Proto: ProtoUDP, Src: a, Dst: b, FragOff: 16}, ports), 0, 0, true},
		{"icmp", frame(IPv4Header{Proto: ProtoICMP, Src: a, Dst: b}, ports), 0, 0, true},
		{"l4 cut short", frame(IPv4Header{Proto: ProtoUDP, Src: a, Dst: b}, ports[:3]), 0, 0, true},
		{"arp", MarshalEth(EthHeader{Type: EtherTypeARP}, make([]byte, 28)), 0, 0, false},
		{"short", frame(IPv4Header{Proto: ProtoUDP, Src: a, Dst: b}, nil)[:EthHeaderBytes+IPv4HeaderBytes-1], 0, 0, false},
		{"bad version", func() []byte {
			f := frame(IPv4Header{Proto: ProtoUDP, Src: a, Dst: b}, ports)
			f[EthHeaderBytes] = 0x65
			return f
		}(), 0, 0, false},
	} {
		src, dst, sport, dport, ok := FrameFlow(tc.frame)
		if ok != tc.ok || sport != tc.sport || dport != tc.dport || (ok && (src != a || dst != b)) {
			t.Errorf("%s: FrameFlow = %v %v %d %d %v, want %v %v %d %d %v",
				tc.name, src, dst, sport, dport, ok, a, b, tc.sport, tc.dport, tc.ok)
		}
	}
	// The reply to a fragment leaves on the shard the fragment arrived on.
	in := frame(IPv4Header{Proto: ProtoUDP, Src: a, Dst: b, MF: true}, ports)
	out := frame(IPv4Header{Proto: ProtoUDP, Src: b, Dst: a, FragOff: 8}, ports)
	is, id, isp, idp, _ := FrameFlow(in)
	os, od, osp, odp, _ := FrameFlow(out)
	for _, n := range []int{2, 4, 7, 16} {
		if rx, tx := RXShard(is, id, isp, idp, n), TXShard(os, od, osp, odp, n); rx != tx {
			t.Errorf("%d shards: fragment arrives on %d, reply fragment leaves on %d", n, rx, tx)
		}
	}
}
