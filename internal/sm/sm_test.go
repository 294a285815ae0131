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
		{UDP: usock, Events: netstack.PollIn},
		{HostFD: ffd, Events: netstack.PollIn | netstack.PollOut},
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
	srcs = []PollSource{{UDP: usock, Events: netstack.PollIn}}
	n, err = Poll(srcs, 2*time.Second, f.proxy, nil, &f.clk)
	if err != nil || n != 1 || srcs[0].Revents&netstack.PollIn == 0 {
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

// complete plays the kernel on shard i without looking at the frames
// (and without allocating): every queued xTX descriptor is consumed and
// completed on xCompl.
func (r *linkRig) complete(i int) {
	avail, _ := r.kTX[i].Available()
	for j := uint32(0); j < avail; j++ {
		slot, _ := r.kTX[i].SlotBytes(j)
		r.kCompl[i].WriteU64(j, xsk.GetDesc(slot).Addr)
	}
	r.kTX[i].Release(avail)
	r.kCompl[i].Submit(avail, 0)
}

// poolsIntact reports every socket's frame pool sound and missing
// exactly the frames the kernel side still holds (out[i] of shard i).
func (r *linkRig) poolsIntact(t *testing.T, frames int, out ...int) {
	t.Helper()
	for i, s := range r.socks {
		if !s.UMem.InvariantHolds() || s.UMem.FreeFrames() != frames-out[i] {
			t.Fatalf("shard %d: pool holds %d of %d frames with %d in flight (invariant %v)",
				i, s.UMem.FreeFrames(), frames, out[i], s.UMem.InvariantHolds())
		}
	}
}

// sendFrames pushes whole prebuilt frames down one lane the way the
// stack's cold path does: lend, plain copy, publish.
func sendFrames(l *XskLink, lane int, frames [][]byte, clk *vtime.Clock) (int, error) {
	bufs := make([]mem.TxBuf, len(frames))
	k, err := l.Lend(lane, rigFrameSize, bufs, clk)
	if err != nil {
		return 0, err
	}
	for i := range bufs[:k] {
		bufs[i].B = bufs[i].B[:copy(bufs[i].B, frames[i])]
	}
	return l.Publish(lane, bufs[:k], clk)
}

// rigStack is an enclave stack over the rig's link, bound to one UDP
// socket, with the peer's MAC already known.
func rigStack(t *testing.T, r *linkRig, peer netstack.Addr, ctrs *vtime.Counters) *netstack.UDPSocket {
	t.Helper()
	stack, err := netstack.New(netstack.Config{Name: "enclave", Dev: r.link, IP: netstack.IP4{10, 0, 0, 3},
		Shards: len(r.socks), Counters: ctrs, StaticARP: map[netstack.IP4][6]byte{peer.IP: {2, 0, 0, 0, 0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	sock, err := stack.UDPBind(9)
	if err != nil {
		t.Fatal(err)
	}
	return sock
}

// txOutcome is everything one send leaves behind that the enclave
// decided: ring indices, the descriptor, lane and counter movement, the
// charge to the caller's clock, and the pool.
type txOutcome struct {
	now            uint64
	local, prod    uint32
	desc           xsk.Desc
	pkts, bytes    uint64
	calls, batched uint64
	umemFree       int
	txFree         uint32
}

func (r *linkRig) outcome(clk *vtime.Clock) txOutcome {
	s := r.socks[0]
	slot, _ := r.kTX[0].SlotBytes(0)
	free, _ := s.TX.Free()
	return txOutcome{now: clk.Now(), local: s.TX.Local(), prod: s.TX.ProducerValue(),
		desc: xsk.GetDesc(slot), pkts: r.ctrs.PacketsTx.Load(), bytes: r.ctrs.BytesTx.Load(),
		calls: r.ctrs.BatchCalls.Load(), batched: r.ctrs.BatchedMsgs.Load(),
		umemFree: s.UMem.FreeFrames(), txFree: free}
}

// TestLendPublishOneIsSendBatchOfOne: a one-frame lend → copy → publish
// through the link and the socket's whole-frame SendBatch of the same
// frame are the same send — same ring indices, same descriptor, same
// counters, same charge to the caller's clock, same bytes on the wire.
func TestLendPublishOneIsSendBatchOfOne(t *testing.T) {
	frame := buildUDPFrame(netstack.IP4{10, 0, 0, 3}, netstack.IP4{10, 0, 0, 1}, 7, 40000, make([]byte, 64))
	run := func(send func(r *linkRig, clk *vtime.Clock) (int, error)) (txOutcome, string) {
		r := newLinkRig(t, 1, 8, 16)
		var clk vtime.Clock
		if n, err := send(r, &clk); n != 1 || err != nil {
			t.Fatalf("sent %d, %v", n, err)
		}
		o := r.outcome(&clk)
		sent := r.drain(t, 0)
		if len(sent) != 1 {
			t.Fatalf("%d frames on the wire, want 1", len(sent))
		}
		return o, string(sent[0])
	}
	lent, lentWire := run(func(r *linkRig, clk *vtime.Clock) (int, error) {
		defer func() {
			if got := r.link.ShardTx(0); got != 1 {
				t.Errorf("ShardTx = %d, want 1", got)
			}
		}()
		return sendFrames(r.link, 0, [][]byte{frame}, clk)
	})
	whole, wholeWire := run(func(r *linkRig, clk *vtime.Clock) (int, error) {
		return r.socks[0].SendBatch([][]byte{frame}, clk)
	})
	if lent != whole || lentWire != wholeWire {
		t.Fatalf("lend/publish and SendBatch differ:\n lent  %+v\n whole %+v", lent, whole)
	}
	if lent.local != 1 || lent.prod != 1 || lent.pkts != 1 || lent.desc.Len != uint32(len(frame)) ||
		lentWire != string(frame) || lent.now == 0 || lent.umemFree != 15 {
		t.Fatalf("one frame sent, but the ring saw %+v", lent)
	}
}

// TestPublishNeverReadsTheFrameBack: between lend and publish the lent
// frame is the host's to scribble, so nothing the enclave decides may
// come from it. The same datagram is sent twice through the stack's
// build, once untouched and once with the host overwriting the whole
// UMem frame — headers rewritten to another flow and another length —
// before the publish: same lane, same descriptor, same counters, same
// charge. (The scribble is stepwise on the test goroutine: a concurrent
// writer to simulated shared memory is a Go data race, not an attack the
// race detector could tell from one.)
func TestPublishNeverReadsTheFrameBack(t *testing.T) {
	payload := make([]byte, 200)
	want := netstack.EthHeaderBytes + netstack.IPv4HeaderBytes + netstack.UDPHeaderBytes + len(payload)
	run := func(scribble bool) (txOutcome, [2]uint64) {
		r := newLinkRig(t, 2, 8, 16)
		var clk vtime.Clock
		var bufs [1]mem.TxBuf
		if n, err := r.link.Lend(0, want, bufs[:], &clk); n != 1 || err != nil {
			t.Fatalf("Lend = %d, %v", n, err)
		}
		bufs[0].B = bufs[0].B[:want]
		copy(bufs[0].B, buildUDPFrame(netstack.IP4{10, 0, 0, 3}, netstack.IP4{10, 0, 0, 1}, 9, 7, payload))
		if scribble {
			host, err := r.sp.Bytes(mem.RoleHost, r.setups[0].UMemBase+mem.Addr(bufs[0].Off), rigFrameSize)
			if err != nil {
				t.Fatal(err)
			}
			for i := range host {
				host[i] = 0xFF
			}
			copy(host, buildUDPFrame(netstack.IP4{10, 0, 0, 4}, netstack.IP4{10, 0, 0, 2}, 1, 2, make([]byte, 1400)))
		}
		if n, err := r.link.Publish(0, bufs[:], &clk); n != 1 || err != nil {
			t.Fatalf("Publish = %d, %v", n, err)
		}
		o := r.outcome(&clk)
		if o.desc.Addr != bufs[0].Off {
			t.Fatalf("descriptor names frame %#x, lent %#x", o.desc.Addr, bufs[0].Off)
		}
		return o, [2]uint64{r.link.ShardTx(0), r.link.ShardTx(1)}
	}
	clean, cleanLanes := run(false)
	dirty, dirtyLanes := run(true)
	if clean != dirty || cleanLanes != dirtyLanes {
		t.Fatalf("the host's scribble moved an enclave decision:\n clean %+v %v\n dirty %+v %v",
			clean, cleanLanes, dirty, dirtyLanes)
	}
	if clean.desc.Len != uint32(want) || cleanLanes != [2]uint64{1, 0} || clean.bytes != uint64(want) {
		t.Fatalf("published %+v on lanes %v, want one %d-byte frame on lane 0", clean, cleanLanes, want)
	}
}

// TestConcurrentScalarSendsDeliverOnceInOrder: N goroutines each issue M
// one-frame sends on one lane while the kernel side drains the ring.
// Every frame must reach the wire exactly once, and each goroutine's
// frames in the order it sent them. (-race checks the socket lock is all
// the serialization the path needs — senders build their lent frames
// outside it. The ring is deep enough that no sender can lose the race
// for a free slot sendRetryMax times running — that legitimate drop is
// TestRingThatStaysFullDropsAfterLadder's.)
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
				if _, err := sendFrames(r.link, 0, [][]byte{frame}, &clk); err != nil {
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
	r.socks[0].Reap(&vtime.Clock{})
	r.poolsIntact(t, 1024, 0)
}

// TestRingThatStaysFullDropsAfterLadder: with no kernel draining xTX, a
// send climbs the whole reap-and-backoff ladder (sendRetryMax rungs,
// 10 µs doubling to the 320 µs ceiling) and then drops with ErrRingFull,
// leaving the ring and counters untouched and the frames it had been
// lent back in the pool.
func TestRingThatStaysFullDropsAfterLadder(t *testing.T) {
	r := newLinkRig(t, 1, 8, 32)
	var clk vtime.Clock
	for i := 0; i < 8; i++ {
		if _, err := sendFrames(r.link, 0, [][]byte{{byte(i)}}, &clk); err != nil {
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
	n, err := sendFrames(r.link, 0, [][]byte{{8}, {9}, {10}}, &clk)
	if n != 0 || !errors.Is(err, xsk.ErrRingFull) {
		t.Fatalf("sent %d, err = %v; want 0, ErrRingFull", n, err)
	}
	if el := time.Since(start); el < ladder {
		t.Fatalf("gave up after %v, before the %v ladder was climbed", el, ladder)
	}
	if r.socks[0].TX.Local() != 8 || r.link.ShardTx(0) != 8 || r.ctrs.PacketsTx.Load() != 8 {
		t.Fatalf("dropped run left a trace: local=%d shardTx=%d pkts=%d",
			r.socks[0].TX.Local(), r.link.ShardTx(0), r.ctrs.PacketsTx.Load())
	}
	r.poolsIntact(t, 32, 8) // the refused run's three frames are back
	// The kernel catches up: the next send goes out.
	r.drain(t, 0)
	if _, err := sendFrames(r.link, 0, [][]byte{{11}}, &clk); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
	r.poolsIntact(t, 32, 1)
}

// TestLendRefusesWhatAFrameCannotHold: a run whose frames would not fit
// a UMem frame is refused before anything is lent, and a pool that stays
// empty past the ladder reads ErrNoFrame with nothing lent either.
func TestLendRefusesWhatAFrameCannotHold(t *testing.T) {
	r := newLinkRig(t, 1, 8, 2)
	var clk vtime.Clock
	var bufs [3]mem.TxBuf
	if n, err := r.link.Lend(0, rigFrameSize+1, bufs[:1], &clk); n != 0 || !errors.Is(err, xsk.ErrTooBig) {
		t.Fatalf("oversized Lend = %d, %v; want 0, ErrTooBig", n, err)
	}
	r.poolsIntact(t, 2, 0)
	// Two frames in the pool: a run of three is lent short, and a second
	// run finds the pool dry.
	if n, err := r.link.Lend(0, 64, bufs[:], &clk); n != 2 || err != nil {
		t.Fatalf("Lend from a pool of two = %d, %v; want 2, nil", n, err)
	}
	if n, err := r.link.Lend(0, 64, bufs[2:], &clk); n != 0 || !errors.Is(err, xsk.ErrNoFrame) {
		t.Fatalf("Lend from a dry pool = %d, %v; want 0, ErrNoFrame", n, err)
	}
	if n, err := r.link.Publish(0, bufs[:2], &clk); n != 2 || err != nil {
		t.Fatalf("Publish = %d, %v", n, err)
	}
	r.poolsIntact(t, 2, 2)
}

// TestFragmentsLeaveOnOneLane: the lane is the stack's choice, made from
// the flow tuple it holds — never from the frame. Unfragmented datagrams
// leave on the lane their ports hash to; every fragment of an over-MTU
// datagram leaves on the address pair's lane (where RSS steers a
// fragmented datagram coming the other way), although the later
// fragments carry payload where the first carries the UDP ports. The
// peer port is chosen so the two lanes differ.
func TestFragmentsLeaveOnOneLane(t *testing.T) {
	local := netstack.Addr{IP: netstack.IP4{10, 0, 0, 3}, Port: 9}
	peer := netstack.Addr{IP: netstack.IP4{10, 0, 0, 1}, Port: 7}
	fragLane := netstack.TXShard(local.IP, peer.IP, 0, 0, 2)
	for netstack.TXShard(local.IP, peer.IP, local.Port, peer.Port, 2) == fragLane {
		peer.Port++
	}
	r := newLinkRig(t, 2, 8, 16)
	sock := rigStack(t, r, peer, nil)
	var clk vtime.Clock
	if err := sock.SendTo(make([]byte, 4000), peer, &clk); err != nil { // three fragments
		t.Fatal(err)
	}
	if n, err := sock.SendToN([][]byte{make([]byte, 64), make([]byte, 64)}, peer, &clk); n != 2 || err != nil {
		t.Fatalf("SendToN = %d, %v", n, err)
	}
	if frags, whole := r.link.ShardTx(fragLane), r.link.ShardTx(1-fragLane); frags != 3 || whole != 2 {
		t.Fatalf("lane %d carried %d frames and lane %d carried %d, want 3 fragments and 2 whole datagrams",
			fragLane, frags, 1-fragLane, whole)
	}
	for i, f := range r.drain(t, fragLane) {
		if mf := f[netstack.EthHeaderBytes+6]&0x20 != 0; mf != (i < 2) {
			t.Fatalf("fragment %d: MF = %v", i, mf)
		}
	}
}

// TestVectoredSendReportsWhatWentOut: with the TX ring held full past
// the ladder, a vectored send reports the datagrams that actually went
// out — none of them and ErrRingFull when the first is dropped, exactly
// as the scalar send does; the leading ones that fit otherwise — and
// PacketsTx counts only those. Every frame lent to a datagram that did
// not go out is back in the pool.
func TestVectoredSendReportsWhatWentOut(t *testing.T) {
	peer := netstack.Addr{IP: netstack.IP4{10, 0, 0, 1}, Port: 7}
	r := newLinkRig(t, 1, 8, 32)
	ctrs := &vtime.Counters{}
	sock := rigStack(t, r, peer, ctrs)
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
	r.poolsIntact(t, 32, 8)

	// Ring full: nothing of the run goes out, vectored or scalar.
	if n, err := sock.SendToN(run, peer, &clk); n != 0 || !errors.Is(err, xsk.ErrRingFull) {
		t.Fatalf("run into a full ring: sent %d, %v; want 0, ErrRingFull", n, err)
	}
	if err := sock.SendTo(run[0], peer, &clk); !errors.Is(err, xsk.ErrRingFull) {
		t.Fatalf("scalar send into a full ring: %v, want ErrRingFull", err)
	}
	if got := ctrs.PacketsTx.Load(); got != 8 {
		t.Fatalf("PacketsTx = %d after the dropped runs, want 8", got)
	}
	r.poolsIntact(t, 32, 8)
	if wire := r.drain(t, 0); len(wire) != 8 {
		t.Fatalf("%d frames on the wire, want 8", len(wire))
	}
}

// TestSendThroughTheLinkAllocatesNothing: a datagram from SendTo or
// SendToN to the xTX descriptor touches the heap nowhere — not in the
// stack, not in the link, not in the socket.
func TestSendThroughTheLinkAllocatesNothing(t *testing.T) {
	peer := netstack.Addr{IP: netstack.IP4{10, 0, 0, 1}, Port: 7}
	r := newLinkRig(t, 2, 64, 128)
	sock := rigStack(t, r, peer, &vtime.Counters{})
	lane := netstack.TXShard(sock.LocalAddr().IP, peer.IP, sock.LocalAddr().Port, peer.Port, 2)
	var clk vtime.Clock
	payload := make([]byte, 64)
	run := make([][]byte, 32)
	for i := range run {
		run[i] = make([]byte, 1400)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := sock.SendTo(payload, peer, &clk); err != nil {
			t.Fatal(err)
		}
		r.complete(lane)
	}); n != 0 && !raceDetectorEnabled {
		t.Errorf("SendTo allocates %v objects per datagram, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if n, err := sock.SendToN(run, peer, &clk); n != len(run) || err != nil {
			t.Fatalf("SendToN = %d, %v", n, err)
		}
		r.complete(lane)
	}); n != 0 && !raceDetectorEnabled {
		t.Errorf("SendToN allocates %v objects per 32-datagram run, want 0", n)
	}
	r.socks[lane].Reap(&clk)
	r.poolsIntact(t, 128, 0, 0)
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
		srcs[i] = PollSource{HostFD: 10 + i, Events: netstack.PollIn}
	}
	var clk vtime.Clock
	if _, err := Poll(srcs, 0, proxy, nil, &clk); !errors.Is(err, iouring.ErrFull) {
		t.Fatalf("poll wider than iSub: err = %v, want ErrFull", err)
	}
	if got := ringFM.Outstanding(); got != before {
		t.Fatalf("%d polls still outstanding after the failed Poll, want %d", got, before)
	}
}

// bareProxy is a SyncProxy over an io_uring no kernel serves, plus the
// kernel-side ring handles a test scripts by hand.
func bareProxy(t *testing.T, entries uint32) (proxy *SyncProxy, kSub, kCompl *ring.Ring) {
	t.Helper()
	sp := mem.NewSpace(1<<16, 1<<20)
	setup := iouring.Setup{FD: 3}
	var err error
	if setup.SubBase, err = sp.Alloc(mem.Untrusted, ring.TotalBytes(entries, iouring.SQEBytes), 64); err != nil {
		t.Fatal(err)
	}
	if setup.ComplBase, err = sp.Alloc(mem.Untrusted, ring.TotalBytes(entries, iouring.CQEBytes), 64); err != nil {
		t.Fatal(err)
	}
	ringFM, err := iouring.Attach(iouring.Config{Space: sp, Entries: entries, Setup: setup})
	if err != nil {
		t.Fatal(err)
	}
	ufm, err := fm.NewUringFM(ringFM, sp, nil, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if kSub, err = ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: setup.SubBase,
		Size: entries, EntrySize: iouring.SQEBytes, Side: ring.Consumer}); err != nil {
		t.Fatal(err)
	}
	if kCompl, err = ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: setup.ComplBase,
		Size: entries, EntrySize: iouring.CQEBytes, Side: ring.Producer}); err != nil {
		t.Fatal(err)
	}
	return NewSyncProxy(ufm, nil), kSub, kCompl
}

// TestPollReportsARefusedRearm: the kernel-side wait of an armed poll
// expires (completion 0) while iSub is full and stays full past the
// submit ladder, so the re-arm is refused. The descriptor is then watched
// by nothing: Poll must report it PollErr, as it does a poll the kernel
// refused, not wait out its timeout in silence.
func TestPollReportsARefusedRearm(t *testing.T) {
	proxy, kSub, kCompl := bareProxy(t, 2)
	var clk vtime.Clock
	// One SQE nobody consumes or completes; the poll then fills iSub.
	if _, err := proxy.FM.Ring().Submit(iouring.SQE{Op: iouring.OpNop}, &clk); err != nil {
		t.Fatal(err)
	}
	// The scripted kernel: once the poll is in iSub, complete it with 0 —
	// and never consume a thing, so the ring stays full.
	stop, done := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop); <-done })
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if avail, _ := kSub.Available(); avail < 2 {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			slot, _ := kSub.SlotBytes(1)
			cslot, _ := kCompl.SlotBytes(0)
			iouring.PutCQE(cslot, iouring.CQE{UserData: iouring.GetSQE(slot).UserData, Res: 0})
			kCompl.Submit(1, 0)
			return
		}
	}()
	srcs := []PollSource{{HostFD: 5, Events: netstack.PollIn}}
	start := time.Now()
	n, err := Poll(srcs, 2*time.Second, proxy, nil, &clk)
	if err != nil || n != 1 || srcs[0].Revents != netstack.PollErr {
		t.Fatalf("Poll = %d, %v with revents %#x after %v; want 1, nil, PollErr",
			n, err, srcs[0].Revents, time.Since(start))
	}
}

// TestPollOverEnclaveSocketsAllocs pins the heap cost of one aggregation
// pass over enclave sockets — what every epoll_wait of an in-enclave TCP
// server pays: the wait helper's closure must not escape.
func TestPollOverEnclaveSocketsAllocs(t *testing.T) {
	proxy, _, _ := bareProxy(t, 8)
	encl, err := netstack.New(netstack.Config{Name: "encl", Dev: sinkLink{}, IP: netstack.IP4{10, 9, 9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := encl.UDPBind(9)
	if err != nil {
		t.Fatal(err)
	}
	ready, err := encl.UDPBind(10)
	if err != nil {
		t.Fatal(err)
	}
	var clk vtime.Clock
	encl.Input(buildUDPFrame(netstack.IP4{10, 0, 0, 1}, netstack.IP4{10, 9, 9, 9}, 1234, 10, []byte("x")), &clk)
	srcs := []PollSource{{UDP: quiet, Events: netstack.PollIn}, {UDP: ready, Events: netstack.PollIn}}
	cache := NewPollCache()
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := PollCached(srcs, -1, proxy, nil, &clk, cache); n != 1 || err != nil {
			t.Fatalf("PollCached = %d, %v", n, err)
		}
	})
	if allocs > pollEnclaveAllocs && !raceDetectorEnabled {
		t.Fatalf("PollCached over two enclave sockets allocates %v objects, want <= %d", allocs, pollEnclaveAllocs)
	}
}

// pollEnclaveAllocs is what that pass cost before the wait loops were
// folded into vtime.Until (measured at 2e187a5): the token and armed
// slices.
const pollEnclaveAllocs = 2
