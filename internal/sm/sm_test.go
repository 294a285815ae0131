package sm

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"rakis/internal/fm"
	"rakis/internal/hostos"
	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/mm"
	"rakis/internal/netsim"
	"rakis/internal/netstack"
	"rakis/internal/ring"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

type fixture struct {
	kern  *hostos.Kernel
	ns    *hostos.NetNS
	proc  *hostos.Proc
	mon   *mm.Monitor
	proxy *SyncProxy
	clk   vtime.Clock
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	m := vtime.Default()
	kern := hostos.NewKernel(mem.NewSpace(1<<20, 1<<24), m)
	a, b := netsim.NewPair(m, netsim.Config{Name: "a"}, netsim.Config{Name: "b"})
	ns, err := kern.AddNetNS("a", a, netstack.IP4{10, 0, 0, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kern.AddNetNS("b", b, netstack.IP4{10, 0, 0, 2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(kern.Close)
	f := &fixture{kern: kern, ns: ns, proc: kern.NewProc(ns, &vtime.Counters{})}

	setup, err := f.proc.IoUringSetup(64, &f.clk)
	if err != nil {
		t.Fatal(err)
	}
	ringFM, err := iouring.Attach(iouring.Config{Space: kern.Space, Setup: setup, Entries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ufm, err := fm.NewUringFM(ringFM, kern.Space, m, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	f.proxy = NewSyncProxy(ufm, m)
	f.mon = mm.New(f.proc)
	f.mon.WatchUring(kern.Space, setup)
	f.mon.Start()
	t.Cleanup(f.mon.Close)
	return f
}

func TestSyncProxyFileOps(t *testing.T) {
	f := newFixture(t)
	f.kern.VFS().WriteFile("/f", []byte("0123456789"))
	fd, err := f.proc.Open("/f", hostos.ORdwr, &f.clk)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	n, err := f.proxy.Pread(fd, buf, 3, &f.clk)
	if err != nil || n != 4 || string(buf) != "3456" {
		t.Fatalf("pread = %d %q %v", n, buf, err)
	}
	if n, err := f.proxy.Pwrite(fd, []byte("XY"), 0, &f.clk); err != nil || n != 2 {
		t.Fatalf("pwrite = %d %v", n, err)
	}
	if err := f.proxy.Fsync(fd, &f.clk); err != nil {
		t.Fatal(err)
	}
	data, _ := f.kern.VFS().ReadFile("/f")
	if string(data) != "XY23456789" {
		t.Fatalf("file = %q", data)
	}
	// Cursor-based sequential reads hit EOF cleanly.
	big := make([]byte, 64)
	n, err = f.proxy.Read(fd, big, &f.clk)
	if err != nil || n != 10 {
		t.Fatalf("read = %d %v", n, err)
	}
	n, err = f.proxy.Read(fd, big, &f.clk)
	if err != nil || n != 0 {
		t.Fatalf("EOF read = %d %v", n, err)
	}
}

func TestSyncProxyLargeTransferChunks(t *testing.T) {
	// Larger than the 64 KiB bounce buffer: must chunk and still be
	// byte-exact.
	f := newFixture(t)
	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	fd, err := f.proc.Open("/big", hostos.OCreate|hostos.ORdwr, &f.clk)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.proxy.Write(fd, payload, &f.clk); err != nil || n != len(payload) {
		t.Fatalf("write = %d %v", n, err)
	}
	got := make([]byte, len(payload))
	if n, err := f.proxy.Pread(fd, got, 0, &f.clk); err != nil || n != len(payload) {
		t.Fatalf("read = %d %v", n, err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestPollAggregatesUDPAndHost(t *testing.T) {
	f := newFixture(t)
	// An enclave-side UDP socket (plain netstack socket here) and a host
	// file (always readable).
	link := sinkLink{}
	encl, err := netstack.New(netstack.Config{Name: "encl", Dev: link, IP: netstack.IP4{10, 9, 9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	usock, err := encl.UDPBind(9)
	if err != nil {
		t.Fatal(err)
	}
	ffd, err := f.proc.Open("/pollfile", hostos.OCreate|hostos.ORdwr, &f.clk)
	if err != nil {
		t.Fatal(err)
	}

	// Host file is immediately ready.
	srcs := []PollSource{
		{UDP: usock, Events: PollIn},
		{HostFD: ffd, Events: PollIn | PollOut},
	}
	n, err := Poll(srcs, 2*time.Second, f.proxy, nil, &f.clk)
	if err != nil || n != 1 {
		t.Fatalf("poll = %d %v", n, err)
	}
	if srcs[1].Revents == 0 || srcs[0].Revents != 0 {
		t.Fatalf("revents = %v/%v", srcs[0].Revents, srcs[1].Revents)
	}

	// Now only the UDP socket, with a datagram injected mid-poll.
	go func() {
		time.Sleep(5 * time.Millisecond)
		var clk vtime.Clock
		frame := buildUDPFrame(netstack.IP4{10, 0, 0, 1}, netstack.IP4{10, 9, 9, 9}, 1234, 9, []byte("wake"))
		encl.Input(frame, &clk)
	}()
	srcs = []PollSource{{UDP: usock, Events: PollIn}}
	n, err = Poll(srcs, 2*time.Second, f.proxy, nil, &f.clk)
	if err != nil || n != 1 || srcs[0].Revents&PollIn == 0 {
		t.Fatalf("udp poll = %d %v %v", n, err, srcs[0].Revents)
	}

	// Timeout path with nothing ready.
	var drainClk vtime.Clock
	usock.RecvFrom(&drainClk, true)
	srcs[0].Revents = 0
	n, err = Poll(srcs, 30*time.Millisecond, f.proxy, nil, &f.clk)
	if err != nil || n != 0 {
		t.Fatalf("empty poll = %d %v", n, err)
	}
	// The armed host polls were cancelled; nothing stays outstanding for
	// long (poll_remove is asynchronous, so allow the kernel a moment).
	deadline := time.Now().Add(time.Second)
	for f.proxy.FM.Ring().Outstanding() > 0 && time.Now().Before(deadline) {
		var clk vtime.Clock
		f.proxy.FM.Ring().Drain(&clk)
		time.Sleep(time.Millisecond)
	}
}

// sinkLink drops outbound frames.
type sinkLink struct{}

func (sinkLink) SendFrame(data []byte, clk *vtime.Clock) (uint64, error) { return clk.Now(), nil }
func (sinkLink) MAC() [6]byte                                            { return [6]byte{2, 0, 0, 0, 0, 3} }
func (sinkLink) MTU() int                                                { return 1500 }

// buildUDPFrame assembles a raw Ethernet+IPv4+UDP frame.
func buildUDPFrame(src, dst netstack.IP4, sport, dport uint16, payload []byte) []byte {
	udp := make([]byte, netstack.UDPHeaderBytes+len(payload))
	udp[0], udp[1] = byte(sport>>8), byte(sport)
	udp[2], udp[3] = byte(dport>>8), byte(dport)
	udp[4], udp[5] = byte(len(udp)>>8), byte(len(udp))
	copy(udp[netstack.UDPHeaderBytes:], payload)
	ip := netstack.MarshalIPv4(netstack.IPv4Header{
		TTL: 64, Proto: netstack.ProtoUDP, Src: src, Dst: dst,
	}, udp)
	return netstack.MarshalEth(netstack.EthHeader{
		Dst: [6]byte{2, 0, 0, 0, 0, 3}, Src: [6]byte{2, 0, 0, 0, 0, 1},
		Type: netstack.EtherTypeIPv4,
	}, ip)
}

// linkRig is an XskLink over sockets attached straight to a simulated
// address space, with the test playing the kernel's end of each xTX and
// xCompl ring.
type linkRig struct {
	sp     *mem.Space
	link   *XskLink
	socks  []*xsk.Socket
	setups []xsk.Setup
	kTX    []*ring.Ring
	kCompl []*ring.Ring
	ctrs   *vtime.Counters
}

const rigFrameSize = 2048

func newLinkRig(t *testing.T, nsocks int, ringSize, frames uint32) *linkRig {
	t.Helper()
	r := &linkRig{sp: mem.NewSpace(1<<16, 1<<24), ctrs: &vtime.Counters{}}
	alloc := func(n uint64) mem.Addr {
		a, err := r.sp.Alloc(mem.Untrusted, n, 64)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	hostRing := func(base mem.Addr, entry uint32, side ring.Side) *ring.Ring {
		k, err := ring.New(ring.Config{Space: r.sp, Access: mem.RoleHost, Base: base,
			Size: ringSize, EntrySize: entry, Side: side})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for i := 0; i < nsocks; i++ {
		s := xsk.Setup{
			FD:        3 + i,
			FillBase:  alloc(ring.TotalBytes(ringSize, xsk.FillEntryBytes)),
			RXBase:    alloc(ring.TotalBytes(ringSize, xsk.DescBytes)),
			TXBase:    alloc(ring.TotalBytes(ringSize, xsk.DescBytes)),
			ComplBase: alloc(ring.TotalBytes(ringSize, xsk.FillEntryBytes)),
			UMemBase:  alloc(uint64(frames) * rigFrameSize),
		}
		sock, err := xsk.Attach(xsk.Config{Space: r.sp, Setup: s, RingSize: ringSize,
			FrameSize: rigFrameSize, FrameCount: frames, Counters: r.ctrs})
		if err != nil {
			t.Fatal(err)
		}
		r.socks = append(r.socks, sock)
		r.setups = append(r.setups, s)
		r.kTX = append(r.kTX, hostRing(s.TXBase, xsk.DescBytes, ring.Consumer))
		r.kCompl = append(r.kCompl, hostRing(s.ComplBase, xsk.FillEntryBytes, ring.Producer))
	}
	r.link = NewXskLink(r.socks, [6]byte{2, 0, 0, 0, 0, 9}, 1500)
	return r
}

// drain plays the kernel on shard i: it consumes the queued xTX
// descriptors xCompl has room to complete, returns the transmitted
// frames in ring order, and completes them on xCompl.
func (r *linkRig) drain(t *testing.T, i int) [][]byte {
	avail, err := r.kTX[i].Available()
	if err != nil {
		t.Error(err)
		return nil
	}
	if room, _ := r.kCompl[i].Free(); room < avail {
		avail = room
	}
	var out [][]byte
	for j := uint32(0); j < avail; j++ {
		slot, _ := r.kTX[i].SlotBytes(j)
		d := xsk.GetDesc(slot)
		b, err := r.sp.Bytes(mem.RoleHost, r.setups[i].UMemBase+mem.Addr(d.Addr), uint64(d.Len))
		if err != nil {
			t.Error(err)
			return out
		}
		out = append(out, append([]byte(nil), b...))
		r.kCompl[i].WriteU64(j, d.Addr)
	}
	r.kTX[i].Release(avail)
	r.kCompl[i].Submit(avail, 0)
	return out
}

// udpFragment builds an Ethernet/IPv4 frame carrying l4 as the piece of
// a UDP datagram at byte offset off.
func udpFragment(src, dst netstack.IP4, off uint16, more bool, l4 []byte) []byte {
	pkt := netstack.MarshalIPv4(netstack.IPv4Header{ID: 7, Proto: netstack.ProtoUDP,
		Src: src, Dst: dst, MF: more, FragOff: off}, l4)
	return netstack.MarshalEth(netstack.EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 1},
		Src: [6]byte{2, 0, 0, 0, 0, 9}, Type: netstack.EtherTypeIPv4}, pkt)
}

// TestSendFrameIsBatchOfOne: a scalar SendFrame and a one-frame
// SendFrames are the same send — same ring indices, same descriptor,
// same counters, same charge to the caller's clock.
func TestSendFrameIsBatchOfOne(t *testing.T) {
	frame := udpFragment(netstack.IP4{10, 0, 0, 3}, netstack.IP4{10, 0, 0, 1}, 0, false,
		append([]byte{0, 7, 0x9c, 0x40, 0, 72, 0, 0}, make([]byte, 64)...))
	type outcome struct {
		end, now         uint64 // returned time, caller's clock after the send
		local, prod      uint32
		desc             xsk.Desc
		shardTx          uint64
		pkts, bytes      uint64
		calls, batched   uint64
		umemFree, txFree uint32
		wire             string
	}
	run := func(send func(l *XskLink, clk *vtime.Clock) (uint64, error)) outcome {
		r := newLinkRig(t, 1, 8, 16)
		var clk vtime.Clock
		end, err := send(r.link, &clk)
		if err != nil {
			t.Fatal(err)
		}
		s := r.socks[0]
		slot, _ := r.kTX[0].SlotBytes(0)
		free, _ := s.TX.Free()
		o := outcome{end: end, now: clk.Now(), local: s.TX.Local(), prod: s.TX.ProducerValue(),
			desc: xsk.GetDesc(slot), shardTx: r.link.ShardTx(0),
			pkts: r.ctrs.PacketsTx.Load(), bytes: r.ctrs.BytesTx.Load(),
			calls: r.ctrs.BatchCalls.Load(), batched: r.ctrs.BatchedMsgs.Load(),
			umemFree: uint32(s.UMem.FreeFrames()), txFree: free}
		if sent := r.drain(t, 0); len(sent) != 1 {
			t.Fatalf("%d frames on the wire, want 1", len(sent))
		} else {
			o.wire = string(sent[0])
		}
		return o
	}
	scalar := run(func(l *XskLink, clk *vtime.Clock) (uint64, error) { return l.SendFrame(frame, clk) })
	vector := run(func(l *XskLink, clk *vtime.Clock) (uint64, error) {
		n, err := l.SendFrames([][]byte{frame}, clk)
		if err == nil && n != 1 {
			t.Errorf("SendFrames accepted %d frames, want 1", n)
		}
		return clk.Now(), err
	})
	if scalar != vector {
		t.Fatalf("scalar and one-frame vectored sends differ:\n scalar %+v\n vector %+v", scalar, vector)
	}
	if scalar.local != 1 || scalar.prod != 1 || scalar.shardTx != 1 || scalar.pkts != 1 ||
		scalar.desc.Len != uint32(len(frame)) || scalar.wire != string(frame) || scalar.now == 0 {
		t.Fatalf("one frame sent, but the ring saw %+v", scalar)
	}
}

// TestConcurrentScalarSendsDeliverOnceInOrder: N goroutines each issue M
// scalar SendFrames on one shard while the kernel side drains the ring.
// Every frame must reach the wire exactly once, and each goroutine's
// frames in the order it sent them. (-race checks the socket lock is all
// the serialization the path needs. The ring is deep enough that no
// sender can lose the race for a free slot sendRetryMax times running —
// that legitimate drop is TestRingThatStaysFullDropsAfterLadder's.)
func TestConcurrentScalarSendsDeliverOnceInOrder(t *testing.T) {
	const senders, perSender = 8, 200
	r := newLinkRig(t, 1, 256, 1024)
	stop := make(chan struct{})
	var wire [][]byte
	var kernel sync.WaitGroup
	kernel.Add(1)
	go func() {
		defer kernel.Done()
		for {
			wire = append(wire, r.drain(t, 0)...)
			select {
			case <-stop:
				wire = append(wire, r.drain(t, 0)...)
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var clk vtime.Clock
			for k := 0; k < perSender; k++ {
				frame := make([]byte, 64)
				binary.BigEndian.PutUint32(frame[56:], uint32(g))
				binary.BigEndian.PutUint32(frame[60:], uint32(k))
				if _, err := r.link.SendFrame(frame, &clk); err != nil {
					t.Errorf("sender %d frame %d: %v", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	kernel.Wait()

	if len(wire) != senders*perSender {
		t.Fatalf("%d frames on the wire, want %d", len(wire), senders*perSender)
	}
	next := make([]uint32, senders)
	for _, f := range wire {
		g, k := binary.BigEndian.Uint32(f[56:]), binary.BigEndian.Uint32(f[60:])
		if g >= senders || k != next[g] {
			t.Fatalf("sender %d: frame %d on the wire, want its frame %d next", g, k, next[g])
		}
		next[g]++
	}
	if got := r.link.ShardTx(0); got != senders*perSender {
		t.Fatalf("ShardTx = %d, want %d", got, senders*perSender)
	}
}

// TestOversizedFrameMidRunIsPositional: a frame the ring can never take
// gets its own error at its own index, and the frames around it go out.
func TestOversizedFrameMidRunIsPositional(t *testing.T) {
	r := newLinkRig(t, 1, 8, 16)
	frames := [][]byte{{1}, {2}, make([]byte, rigFrameSize+1), {4}}
	errs := make([]error, len(frames))
	var clk vtime.Clock
	r.link.sendBatchRetry(0, frames, errs, &clk)
	for i, err := range errs {
		if want := i == 2; errors.Is(err, xsk.ErrTooBig) != want || (err != nil) != want {
			t.Errorf("frame %d: err = %v", i, err)
		}
	}
	sent := r.drain(t, 0)
	if len(sent) != 3 || sent[0][0] != 1 || sent[1][0] != 2 || sent[2][0] != 4 {
		t.Fatalf("wire carries %v, want frames 1, 2, 4 in order", sent)
	}
	if got := r.link.ShardTx(0); got != 3 {
		t.Fatalf("ShardTx = %d, want 3", got)
	}
}

// TestRingThatStaysFullDropsAfterLadder: with no kernel draining xTX, a
// send climbs the whole reap-and-backoff ladder (sendRetryMax rungs,
// 10 µs doubling to the 320 µs ceiling) and then drops with ErrRingFull,
// leaving the ring and counters untouched.
func TestRingThatStaysFullDropsAfterLadder(t *testing.T) {
	r := newLinkRig(t, 1, 8, 32)
	var clk vtime.Clock
	for i := 0; i < 8; i++ {
		if _, err := r.link.SendFrame([]byte{byte(i)}, &clk); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	var ladder time.Duration
	for rung, d := 0, 10*time.Microsecond; rung < sendRetryMax; rung++ {
		ladder += d
		if d < 320*time.Microsecond {
			d *= 2
		}
	}
	start := time.Now()
	_, err := r.link.SendFrame([]byte{8}, &clk)
	if !errors.Is(err, xsk.ErrRingFull) {
		t.Fatalf("err = %v, want ErrRingFull", err)
	}
	if el := time.Since(start); el < ladder {
		t.Fatalf("gave up after %v, before the %v ladder was climbed", el, ladder)
	}
	if r.socks[0].TX.Local() != 8 || r.link.ShardTx(0) != 8 || r.ctrs.PacketsTx.Load() != 8 {
		t.Fatalf("dropped frame left a trace: local=%d shardTx=%d pkts=%d",
			r.socks[0].TX.Local(), r.link.ShardTx(0), r.ctrs.PacketsTx.Load())
	}
	// The kernel catches up: the next send goes out.
	r.drain(t, 0)
	if _, err := r.link.SendFrame([]byte{9}, &clk); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
}

// TestFragmentsLeaveOnOneLane: every fragment of one datagram must leave
// on the lane the flow's address pair selects. The later fragments carry
// payload where the first carries the UDP ports; the bytes here are
// chosen so that reading them as ports scatters the pieces over both
// lanes.
func TestFragmentsLeaveOnOneLane(t *testing.T) {
	src, dst := netstack.IP4{10, 0, 0, 3}, netstack.IP4{10, 0, 0, 1}
	r := newLinkRig(t, 2, 8, 16)
	lane := netstack.TXShard(src, dst, 0, 0, 2)
	// portsFor returns four bytes that, hashed as a port pair, select
	// the given lane.
	portsFor := func(want int) []byte {
		for p := uint16(1); p != 0; p++ {
			if netstack.TXShard(src, dst, p, 7, 2) == want {
				return []byte{byte(p >> 8), byte(p), 0, 7}
			}
		}
		t.Fatalf("no port pair selects lane %d", want)
		return nil
	}
	piece := func(ports []byte, rest string) []byte { return append(append([]byte(nil), ports...), rest...) }
	frags := [][]byte{
		udpFragment(src, dst, 0, true, piece(portsFor(1-lane), "\x00\x18\x00\x00aaaaaaaa")),
		udpFragment(src, dst, 16, true, piece(portsFor(lane), "bbbb")),
		udpFragment(src, dst, 24, false, piece(portsFor(1-lane), "cccc")),
	}
	var clk vtime.Clock
	// Vectored and scalar sends take the same lane decision.
	if _, err := r.link.SendFrames(frags, &clk); err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if _, err := r.link.SendFrame(f, &clk); err != nil {
			t.Fatal(err)
		}
	}
	if got, stray := r.link.ShardTx(lane), r.link.ShardTx(1-lane); got != 6 || stray != 0 {
		t.Fatalf("lane %d carried %d fragments and lane %d carried %d, want all 6 on lane %d",
			lane, got, 1-lane, stray, lane)
	}
}

// TestVectoredSendReportsWhatWentOut: with the TX ring held full past
// the ladder, a vectored send reports the datagrams that actually went
// out — none of them and ErrRingFull when the first is dropped, exactly
// as the scalar send does; the leading ones that fit otherwise — and
// PacketsTx counts only those.
func TestVectoredSendReportsWhatWentOut(t *testing.T) {
	peer := netstack.Addr{IP: netstack.IP4{10, 0, 0, 1}, Port: 7}
	r := newLinkRig(t, 1, 8, 32)
	ctrs := &vtime.Counters{}
	stack, err := netstack.New(netstack.Config{Name: "enclave", Dev: r.link, IP: netstack.IP4{10, 0, 0, 3},
		Counters: ctrs, StaticARP: map[netstack.IP4][6]byte{peer.IP: {2, 0, 0, 0, 0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	sock, err := stack.UDPBind(9)
	if err != nil {
		t.Fatal(err)
	}
	var clk vtime.Clock
	run := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}

	// Six of the eight slots taken: the run's first two datagrams fit.
	for i := 0; i < 6; i++ {
		if err := sock.SendTo([]byte{byte(i)}, peer, &clk); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if n, err := sock.SendToN(run, peer, &clk); n != 2 || err != nil {
		t.Fatalf("run into 2 free slots: sent %d, %v; want 2, nil", n, err)
	}
	if got := ctrs.PacketsTx.Load(); got != 8 {
		t.Fatalf("PacketsTx = %d, want 8 (6 scalar + the 2 that fit)", got)
	}

	// Ring full: nothing of the run goes out, vectored or scalar.
	if n, err := sock.SendToN(run, peer, &clk); n != 0 || !errors.Is(err, xsk.ErrRingFull) {
		t.Fatalf("run into a full ring: sent %d, %v; want 0, ErrRingFull", n, err)
	}
	if err := sock.SendTo(run[0], peer, &clk); !errors.Is(err, xsk.ErrRingFull) {
		t.Fatalf("scalar send into a full ring: %v, want ErrRingFull", err)
	}
	frames := [][]byte{{1}, {2}, {3}, {4}}
	if n, err := r.link.SendFrames(frames, &clk); n != 0 || !errors.Is(err, xsk.ErrRingFull) {
		t.Fatalf("SendFrames into a full ring: %d, %v; want 0, ErrRingFull", n, err)
	}
	if got := ctrs.PacketsTx.Load(); got != 8 {
		t.Fatalf("PacketsTx = %d after the dropped runs, want 8", got)
	}
	if wire := r.drain(t, 0); len(wire) != 8 {
		t.Fatalf("%d frames on the wire, want 8", len(wire))
	}
}

// TestPollCancelsPartialArm: a poll set wider than iSub, with no kernel
// consuming, arms a prefix and then fails. The armed prefix must be
// cancelled before the error returns, or its tokens stay outstanding for
// the life of the ring (and pin reconcileSub off with them).
func TestPollCancelsPartialArm(t *testing.T) {
	const entries = 4
	sp := mem.NewSpace(1<<16, 1<<20)
	alloc := func(n uint64) mem.Addr {
		a, err := sp.Alloc(mem.Untrusted, n, 64)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ringFM, err := iouring.Attach(iouring.Config{Space: sp, Entries: entries, Setup: iouring.Setup{FD: 3,
		SubBase:   alloc(ring.TotalBytes(entries, iouring.SQEBytes)),
		ComplBase: alloc(ring.TotalBytes(entries, iouring.CQEBytes))}})
	if err != nil {
		t.Fatal(err)
	}
	ufm, err := fm.NewUringFM(ringFM, sp, nil, 4096)
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewSyncProxy(ufm, nil)
	before := ringFM.Outstanding()
	srcs := make([]PollSource, entries+2)
	for i := range srcs {
		srcs[i] = PollSource{HostFD: 10 + i, Events: PollIn}
	}
	var clk vtime.Clock
	if _, err := Poll(srcs, 0, proxy, nil, &clk); !errors.Is(err, iouring.ErrFull) {
		t.Fatalf("poll wider than iSub: err = %v, want ErrFull", err)
	}
	if got := ringFM.Outstanding(); got != before {
		t.Fatalf("%d polls still outstanding after the failed Poll, want %d", got, before)
	}
}
