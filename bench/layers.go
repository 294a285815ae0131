package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"time"

	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/netstack"
	"rakis/internal/ring"
	"rakis/internal/telemetry"
	"rakis/internal/umem"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

// The layer drivers time one layer at a time on one goroutine, through
// the exported entry points the data path itself uses (the vectored and
// view ones). Where a layer talks to the kernel over a ring, the driver
// plays the kernel side of that ring. No world, no threads, no sleeps:
// what is left is the Go cost of the layer's own code.

// layerDriver prepares one layer and returns the loop body: step runs
// the operation once and reports how many units (ops, packets, segments,
// KiB) it moved.
type layerDriver struct {
	name  string // metric prefix; ".ns_per_<unit>" and ".allocs_per_op" are appended
	unit  string // op, pkt, seg or kb
	iters int
	setup func() (step func() (float64, error), err error)
}

const (
	layerReps   = 5 // median of this many timed repetitions
	layerWidth  = 32
	layerRing   = 256
	layerFrames = 1024
	layerFrame  = 2048
)

// runLayers runs every driver and returns metric name → value. scale
// shrinks the iteration counts (tests).
func runLayers(scale float64) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, d := range layerDrivers {
		step, err := d.setup()
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", d.name, err)
		}
		iters := int(float64(d.iters) * scale)
		if iters < 8 {
			iters = 8
		}
		run := func(n int) (units float64, err error) {
			for i := 0; i < n; i++ {
				u, err := step()
				if err != nil {
					return 0, err
				}
				units += u
			}
			return units, nil
		}
		if _, err := run(iters / 8); err != nil { // warm caches and pools
			return nil, fmt.Errorf("layer %s: %w", d.name, err)
		}
		var ns, allocs []float64
		var before, after runtime.MemStats
		for rep := 0; rep < layerReps; rep++ {
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			units, err := run(iters)
			el := time.Since(t0)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, fmt.Errorf("layer %s: %w", d.name, err)
			}
			ns = append(ns, float64(el.Nanoseconds())/units)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/units)
		}
		out[d.name+".ns_per_"+d.unit] = median(ns)
		out[d.name+".allocs_per_op"] = median(allocs)
	}
	return out, nil
}

var layerDrivers = []layerDriver{
	{name: "ring.submit_release", unit: "op", iters: 400_000, setup: setupRing},
	{name: "umem.validate_release", unit: "op", iters: 400_000, setup: setupUMem},
	{name: "xsk.recv_views", unit: "pkt", iters: 8_000, setup: setupXskRecv},
	{name: "xsk.send_batch", unit: "pkt", iters: 8_000, setup: setupXskSend},
	{name: "netstack.input_view_udp", unit: "pkt", iters: 150_000, setup: setupInputUDP},
	{name: "netstack.udp_sendto", unit: "pkt", iters: 150_000, setup: setupSendTo},
	{name: "netstack.input_view_tcp", unit: "seg", iters: 60_000, setup: setupInputTCP},
	{name: "iouring.submit_wait", unit: "op", iters: 150_000, setup: setupUring},
	{name: "mem.snapshot", unit: "op", iters: 400_000, setup: setupSnapshot},
	{name: "mem.view_copyout", unit: "kb", iters: 400_000, setup: setupCopyOut},
	{name: "telemetry.hook_disabled", unit: "op", iters: 2_000_000, setup: func() (func() (float64, error), error) { return setupHook(false) }},
	{name: "telemetry.hook_enabled", unit: "op", iters: 2_000_000, setup: func() (func() (float64, error), error) { return setupHook(true) }},
}

// hostRing opens the kernel's end of a ring the enclave side created.
func hostRing(sp *mem.Space, base mem.Addr, size, entry uint32, side ring.Side) (*ring.Ring, error) {
	return ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: base, Size: size, EntrySize: entry, Side: side})
}

// setupRing: the enclave produces one certified entry, the kernel side
// consumes it.
func setupRing() (func() (float64, error), error) {
	sp := mem.NewSpace(1<<12, 1<<16)
	base, err := sp.Alloc(mem.Untrusted, ring.TotalBytes(layerRing, 8), 64)
	if err != nil {
		return nil, err
	}
	prod, err := ring.New(ring.Config{Space: sp, Access: mem.RoleEnclave, Base: base,
		Size: layerRing, EntrySize: 8, Side: ring.Producer, Certified: true})
	if err != nil {
		return nil, err
	}
	cons, err := hostRing(sp, base, layerRing, 8, ring.Consumer)
	if err != nil {
		return nil, err
	}
	var i uint64
	return func() (float64, error) {
		i++
		if free, err := prod.Free(); err != nil || free == 0 {
			return 0, fmt.Errorf("ring has no free slot: %v", err)
		}
		if err := prod.WriteU64(0, i); err != nil {
			return 0, err
		}
		if err := prod.Submit(1, 0); err != nil {
			return 0, err
		}
		if avail, err := cons.Available(); err != nil || avail != 1 {
			return 0, fmt.Errorf("kernel side sees %d entries: %v", avail, err)
		}
		v, err := cons.ReadU64(0)
		if err != nil || v != i {
			return 0, fmt.Errorf("ring returned %d, want %d: %v", v, i, err)
		}
		return 1, cons.Release(1)
	}, nil
}

// setupUMem: one frame goes out to the fill routine, comes back as a
// certified view, and is released.
func setupUMem() (func() (float64, error), error) {
	sp := mem.NewSpace(1<<12, 1<<22)
	base, err := sp.Alloc(mem.Untrusted, layerFrames*layerFrame, 64)
	if err != nil {
		return nil, err
	}
	u, err := umem.New(umem.Config{Space: sp, Base: base, FrameSize: layerFrame, FrameCount: layerFrames})
	if err != nil {
		return nil, err
	}
	return func() (float64, error) {
		idx, err := u.Alloc(umem.OwnerFill)
		if err != nil {
			return 0, err
		}
		got, gen, err := u.ValidateView(u.FrameOffset(idx), 64)
		if err != nil || got != idx {
			return 0, fmt.Errorf("validate frame %d: got %d: %v", idx, got, err)
		}
		return 1, u.ReleaseView(idx, gen)
	}, nil
}

// xskRig is one XSK with the kernel's ends of its four rings.
type xskRig struct {
	sp                      *mem.Space
	sock                    *xsk.Socket
	kFill, kRX, kTX, kCompl *ring.Ring
	clk                     vtime.Clock
}

func newXskRig() (*xskRig, error) {
	sp := mem.NewSpace(1<<16, 1<<23)
	var allocErr error
	alloc := func(n uint64) mem.Addr {
		a, err := sp.Alloc(mem.Untrusted, n, 64)
		if err != nil {
			allocErr = err
		}
		return a
	}
	s := xsk.Setup{
		FD:        3,
		FillBase:  alloc(ring.TotalBytes(layerRing, xsk.FillEntryBytes)),
		RXBase:    alloc(ring.TotalBytes(layerRing, xsk.DescBytes)),
		TXBase:    alloc(ring.TotalBytes(layerRing, xsk.DescBytes)),
		ComplBase: alloc(ring.TotalBytes(layerRing, xsk.FillEntryBytes)),
		UMemBase:  alloc(layerFrames * layerFrame),
	}
	if allocErr != nil {
		return nil, allocErr
	}
	r := &xskRig{sp: sp}
	var err error
	r.sock, err = xsk.Attach(xsk.Config{Space: sp, Setup: s, RingSize: layerRing,
		FrameSize: layerFrame, FrameCount: layerFrames, Counters: &vtime.Counters{}})
	if err != nil {
		return nil, err
	}
	if r.kFill, err = hostRing(sp, s.FillBase, layerRing, xsk.FillEntryBytes, ring.Consumer); err != nil {
		return nil, err
	}
	if r.kRX, err = hostRing(sp, s.RXBase, layerRing, xsk.DescBytes, ring.Producer); err != nil {
		return nil, err
	}
	if r.kTX, err = hostRing(sp, s.TXBase, layerRing, xsk.DescBytes, ring.Consumer); err != nil {
		return nil, err
	}
	if r.kCompl, err = hostRing(sp, s.ComplBase, layerRing, xsk.FillEntryBytes, ring.Producer); err != nil {
		return nil, err
	}
	return r, nil
}

// setupXskRecv: the kernel side takes layerWidth frames off xFill and
// produces their descriptors on xRX; the socket certifies them as views
// in one RecvViews, releases them and refills.
func setupXskRecv() (func() (float64, error), error) {
	r, err := newXskRig()
	if err != nil {
		return nil, err
	}
	r.sock.Refill(&r.clk)
	return func() (float64, error) {
		if avail, err := r.kFill.Available(); err != nil || avail < layerWidth {
			return 0, fmt.Errorf("xFill holds %d frames: %v", avail, err)
		}
		for i := uint32(0); i < layerWidth; i++ {
			off, err := r.kFill.ReadU64(i)
			if err != nil {
				return 0, err
			}
			slot, err := r.kRX.SlotBytes(i)
			if err != nil {
				return 0, err
			}
			xsk.PutDesc(slot, xsk.Desc{Addr: off, Len: 64})
		}
		if err := r.kFill.Release(layerWidth); err != nil {
			return 0, err
		}
		if err := r.kRX.Submit(layerWidth, 0); err != nil {
			return 0, err
		}
		views := r.sock.RecvViews(&r.clk, layerWidth)
		if len(views) != layerWidth {
			return 0, fmt.Errorf("RecvViews certified %d of %d", len(views), layerWidth)
		}
		for i := range views {
			if err := views[i].Release(); err != nil {
				return 0, err
			}
		}
		r.sock.Refill(&r.clk)
		return layerWidth, nil
	}, nil
}

// setupXskSend: one SendBatch of layerWidth small frames; the kernel
// side consumes xTX and completes every frame on xCompl; the socket
// reaps them.
func setupXskSend() (func() (float64, error), error) {
	r, err := newXskRig()
	if err != nil {
		return nil, err
	}
	frames := make([][]byte, layerWidth)
	for i := range frames {
		frames[i] = make([]byte, 64+42)
	}
	return func() (float64, error) {
		n, err := r.sock.SendBatch(frames, &r.clk)
		if err != nil || n != layerWidth {
			return 0, fmt.Errorf("SendBatch sent %d of %d: %v", n, layerWidth, err)
		}
		for i := uint32(0); i < layerWidth; i++ {
			slot, err := r.kTX.SlotBytes(i)
			if err != nil {
				return 0, err
			}
			if err := r.kCompl.WriteU64(i, xsk.GetDesc(slot).Addr); err != nil {
				return 0, err
			}
		}
		if err := r.kTX.Release(layerWidth); err != nil {
			return 0, err
		}
		if err := r.kCompl.Submit(layerWidth, 0); err != nil {
			return 0, err
		}
		if got := r.sock.Reap(&r.clk); got != layerWidth {
			return 0, fmt.Errorf("reaped %d of %d completions", got, layerWidth)
		}
		return layerWidth, nil
	}, nil
}

// sinkLink is a LinkDevice that keeps only the last frame it was given
// (the TCP driver reads the stack's SYN-ACK off it).
type sinkLink struct {
	last []byte
	n    int
}

func (l *sinkLink) SendFrame(data []byte, clk *vtime.Clock) (uint64, error) {
	l.last = append(l.last[:0], data...)
	l.n++
	return clk.Now(), nil
}
func (l *sinkLink) MAC() [6]byte { return [6]byte{2, 0, 0, 0, 0, 9} }
func (l *sinkLink) MTU() int     { return 1500 }

var (
	layerLocal   = netstack.IP4{10, 9, 9, 9}
	layerPeer    = netstack.IP4{10, 9, 9, 1}
	layerPeerMAC = [6]byte{2, 0, 0, 0, 0, 1}
)

func newLayerStack(tcp bool) (*netstack.Stack, *sinkLink, error) {
	link := &sinkLink{}
	st, err := netstack.New(netstack.Config{Name: "enclave", Dev: link, IP: layerLocal,
		EnableTCP: tcp, StaticARP: map[netstack.IP4][6]byte{layerPeer: layerPeerMAC}})
	return st, link, err
}

// ipFrame wraps an L4 segment addressed from the peer to the stack.
func ipFrame(proto byte, l4 []byte) []byte {
	pkt := netstack.MarshalIPv4(netstack.IPv4Header{TTL: 64, Proto: proto, Src: layerPeer, Dst: layerLocal}, l4)
	return netstack.MarshalEth(netstack.EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 9}, Src: layerPeerMAC, Type: netstack.EtherTypeIPv4}, pkt)
}

// udpFrame is a checksummed Ethernet/IPv4/UDP frame from the peer.
func udpFrame(sport, dport uint16, payload []byte) []byte {
	n := netstack.UDPHeaderBytes + len(payload)
	// Pseudo-header then datagram: the Internet checksum over both is
	// the UDP checksum.
	b := make([]byte, 12+n)
	copy(b[0:4], layerPeer[:])
	copy(b[4:8], layerLocal[:])
	b[9] = netstack.ProtoUDP
	binary.BigEndian.PutUint16(b[10:], uint16(n))
	d := b[12:]
	binary.BigEndian.PutUint16(d[0:], sport)
	binary.BigEndian.PutUint16(d[2:], dport)
	binary.BigEndian.PutUint16(d[4:], uint16(n))
	copy(d[netstack.UDPHeaderBytes:], payload)
	ck := netstack.Checksum(b)
	if ck == 0 {
		ck = 0xFFFF
	}
	binary.BigEndian.PutUint16(d[6:], ck)
	return ipFrame(netstack.ProtoUDP, d)
}

// setupInputUDP: one 64-byte datagram enters the stack as a frame view
// (header snapshot, validation, demux, socket queue) and is popped and
// copied out, as Thread.RecvFrom does.
func setupInputUDP() (func() (float64, error), error) {
	st, _, err := newLayerStack(false)
	if err != nil {
		return nil, err
	}
	sock, err := st.UDPBind(7)
	if err != nil {
		return nil, err
	}
	frame := udpFrame(40000, 7, make([]byte, 64))
	var clk vtime.Clock
	buf := make([]byte, 128)
	return func() (float64, error) {
		st.InputView(mem.NewView(frame, 0, 0, 0, nil, nil), &clk)
		d, err := sock.RecvFrom(&clk, false)
		if err != nil {
			return 0, fmt.Errorf("datagram not delivered: %w", err)
		}
		if n := d.CopyOut(buf); n != 64 {
			return 0, fmt.Errorf("delivered %d bytes, want 64", n)
		}
		return 1, nil
	}, nil
}

// setupSendTo: one 64-byte datagram leaves through UDP, IP and Ethernet
// encapsulation onto a link that discards it.
func setupSendTo() (func() (float64, error), error) {
	st, link, err := newLayerStack(false)
	if err != nil {
		return nil, err
	}
	sock, err := st.UDPBind(7)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 64)
	dst := netstack.Addr{IP: layerPeer, Port: 40000}
	var clk vtime.Clock
	return func() (float64, error) {
		before := link.n
		if err := sock.SendTo(payload, dst, &clk); err != nil {
			return 0, err
		}
		if link.n != before+1 {
			return 0, errors.New("no frame reached the link")
		}
		return 1, nil
	}, nil
}

// setupInputTCP: the driver is the remote peer of one established
// connection. Each step feeds a 256-byte in-order segment as a frame
// view (validation, checksum, sequence handling, the ACK the stack sends
// back) and reads the bytes off the accepted socket.
func setupInputTCP() (func() (float64, error), error) {
	st, link, err := newLayerStack(true)
	if err != nil {
		return nil, err
	}
	const lport, pport = 7007, 40001
	l, err := st.TCPListen(lport, 4)
	if err != nil {
		return nil, err
	}
	var clk vtime.Clock
	seg := func(seq, ack uint32, flags byte, payload []byte) mem.View {
		f := ipFrame(netstack.ProtoTCP, netstack.MarshalTCP(layerPeer, layerLocal, pport, lport, seq, ack, flags, 65535, payload))
		return mem.NewView(f, 0, 0, 0, nil, nil)
	}
	const iss = 1000
	st.InputView(seg(iss, 0, netstack.TCPFlagSYN, nil), &clk)
	const tcpAt = netstack.EthHeaderBytes + netstack.IPv4HeaderBytes
	if len(link.last) < tcpAt+netstack.TCPHeaderBytes {
		return nil, errors.New("the stack sent no SYN-ACK")
	}
	theirs := binary.BigEndian.Uint32(link.last[tcpAt+4:]) + 1
	st.InputView(seg(iss+1, theirs, netstack.TCPFlagACK, nil), &clk)
	conn, err := l.Accept(&clk, false)
	if err != nil {
		return nil, fmt.Errorf("handshake did not complete: %w", err)
	}
	// One data segment, rebuilt in place for each step: the sequence
	// number moves on and the checksum follows it incrementally (RFC
	// 1624), so building the frame costs the measurement nothing.
	data := seg(iss+1, theirs, netstack.TCPFlagACK|netstack.TCPFlagPSH, make([]byte, tcpReqSize))
	frame, err := data.Range(0, data.Len())
	if err != nil {
		return nil, err
	}
	tcp := frame[tcpAt:]
	buf := make([]byte, 2*tcpReqSize)
	return func() (float64, error) {
		st.InputView(data, &clk)
		n, err := conn.Recv(buf, &clk, false)
		if err != nil || n != tcpReqSize {
			return 0, fmt.Errorf("segment delivered %d bytes: %v", n, err)
		}
		seq := binary.BigEndian.Uint32(tcp[4:])
		next := seq + tcpReqSize
		sum := uint32(^binary.BigEndian.Uint16(tcp[16:])) +
			uint32(^uint16(seq>>16)) + uint32(^uint16(seq)) + next>>16 + next&0xFFFF
		for sum>>16 != 0 {
			sum = sum&0xFFFF + sum>>16
		}
		binary.BigEndian.PutUint16(tcp[16:], ^uint16(sum))
		binary.BigEndian.PutUint32(tcp[4:], next)
		return 1, nil
	}, nil
}

// setupUring: one request is submitted; the kernel side consumes the
// SQE and produces its CQE; the FM validates and returns the result.
func setupUring() (func() (float64, error), error) {
	const entries = 64
	sp := mem.NewSpace(1<<12, 1<<20)
	sub, err := sp.Alloc(mem.Untrusted, ring.TotalBytes(entries, iouring.SQEBytes), 64)
	if err != nil {
		return nil, err
	}
	compl, err := sp.Alloc(mem.Untrusted, ring.TotalBytes(entries, iouring.CQEBytes), 64)
	if err != nil {
		return nil, err
	}
	bounce, err := sp.Alloc(mem.Untrusted, fileBlock, 64)
	if err != nil {
		return nil, err
	}
	r, err := iouring.Attach(iouring.Config{Space: sp, Setup: iouring.Setup{FD: 3, SubBase: sub, ComplBase: compl},
		Entries: entries, Counters: &vtime.Counters{}})
	if err != nil {
		return nil, err
	}
	kSub, err := hostRing(sp, sub, entries, iouring.SQEBytes, ring.Consumer)
	if err != nil {
		return nil, err
	}
	kCompl, err := hostRing(sp, compl, entries, iouring.CQEBytes, ring.Producer)
	if err != nil {
		return nil, err
	}
	var clk vtime.Clock
	return func() (float64, error) {
		tok, err := r.Submit(iouring.SQE{Op: iouring.OpRead, FD: 5, Addr: bounce, Len: fileBlock}, &clk)
		if err != nil {
			return 0, err
		}
		in, err := kSub.SlotBytes(0)
		if err != nil {
			return 0, err
		}
		sqe := iouring.GetSQE(in)
		out, err := kCompl.SlotBytes(0)
		if err != nil {
			return 0, err
		}
		iouring.PutCQE(out, iouring.CQE{UserData: sqe.UserData, Res: int32(sqe.Len)})
		if err := kSub.Release(1); err != nil {
			return 0, err
		}
		if err := kCompl.Submit(1, 0); err != nil {
			return 0, err
		}
		res, done, err := r.TryWait(tok, &clk)
		if err != nil || !done || res != fileBlock {
			return 0, fmt.Errorf("completion: res %d done %v: %v", res, done, err)
		}
		return 1, nil
	}, nil
}

// setupSnapshot: one header-sized single fetch of untrusted memory.
func setupSnapshot() (func() (float64, error), error) {
	sp := mem.NewSpace(1<<12, 1<<16)
	a, err := sp.Alloc(mem.Untrusted, 64, 64)
	if err != nil {
		return nil, err
	}
	return func() (float64, error) {
		s, err := sp.Snapshot(mem.RoleEnclave, a, 64)
		if err != nil || len(s) != 64 {
			return 0, fmt.Errorf("snapshot of %d bytes: %v", len(s), err)
		}
		return 1, nil
	}, nil
}

// setupCopyOut: the app-boundary copy of one 1400-byte payload view;
// reported per KiB.
func setupCopyOut() (func() (float64, error), error) {
	src := make([]byte, 1400)
	dst := make([]byte, 1400)
	v := mem.NewView(src, 0, 0, 0, nil, nil)
	return func() (float64, error) {
		n, err := v.CopyOut(dst, 0)
		if err != nil || n != len(dst) {
			return 0, fmt.Errorf("copied %d bytes: %v", n, err)
		}
		return float64(n) / 1024, nil
	}, nil
}

// setupHook: one trace-event hook, with the tracer off or on.
func setupHook(enabled bool) (func() (float64, error), error) {
	sink := telemetry.NewSink()
	buf := sink.NewBuf("bench")
	if enabled {
		sink.Trace.Enable()
	}
	var i uint64
	return func() (float64, error) {
		i++
		buf.Emit(telemetry.EvRingProduce, i, 1, 2)
		return 1, nil
	}, nil
}
