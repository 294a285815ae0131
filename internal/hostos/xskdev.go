package hostos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rakis/internal/chaos"
	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

// xskKernel is the kernel side of one XDP socket: the consumer of xFill
// and xTX, the producer of xRX and xCompl. Receive delivery runs in
// softirq context (the XDP redirect path); transmit processing runs when
// the sendto wakeup syscall arrives, honouring XDP_USE_NEED_WAKEUP — in
// RAKIS deployments that syscall comes from the Monitor Module.
type xskKernel struct {
	fd      int
	ns      *NetNS
	queueID int

	fill, rx, tx, compl *ring.Ring
	umemBase            mem.Addr
	frameSize           uint32
	frameCount          uint32

	rxMu sync.Mutex // serializes softirq delivery (one per queue, but be safe)
	txMu sync.Mutex // serializes sendto processing

	// Busy-poll worker: a kernel thread pinned to this socket that
	// drains xTX and keeps the receive path unblocked without any
	// need-wakeup syscalls (SO_BUSY_POLL / napi_busy_loop in spirit).
	// pollClk is allocated with the socket and survives mode toggles so
	// one telemetry probe covers every incarnation of the worker.
	pollMu    sync.Mutex
	pollStop  chan struct{}
	pollDone  chan struct{}
	pollClk   vtime.Clock
	pollFresh atomic.Bool

	// txClk is the driver TX context for this queue. The sendto wakeup
	// is only a doorbell in zero-copy XDP: the syscall cost lands on the
	// calling thread (the Monitor Module), but the per-frame driver work
	// runs in the queue's NAPI TX context — this clock — so N queues
	// drain in parallel instead of serializing every frame on the one
	// MM thread.
	txClk vtime.Clock

	counters *vtime.Counters
}

// XSKSetupResult carries what the in-enclave FM needs to attach.
type XSKSetupResult struct {
	Setup xsk.Setup
}

// XSKSetup performs the untrusted initialization of one XDP socket bound
// to the given interface queue (§4.1: "at least 14 syscalls" collapsed
// into one simulated control-plane call — initialization runs outside
// the enclave either way). It allocates the four rings and the UMem in
// shared untrusted memory and returns their addresses.
func (p *Proc) XSKSetup(ns *NetNS, queueID int, ringSize, frameSize, frameCount uint32, clk *vtime.Clock) (XSKSetupResult, error) {
	// Represent the multi-syscall setup cost.
	for i := 0; i < 14; i++ {
		p.enter(clk)
	}
	k := p.kern
	if queueID < 0 || queueID >= ns.Dev.NumQueues() {
		return XSKSetupResult{}, fmt.Errorf("%w: queue %d", ErrInval, queueID)
	}
	alloc := func(n uint64) (mem.Addr, error) { return k.Space.Alloc(mem.Untrusted, n, 64) }
	fillB, err := alloc(ring.TotalBytes(ringSize, xsk.FillEntryBytes))
	if err != nil {
		return XSKSetupResult{}, err
	}
	rxB, err := alloc(ring.TotalBytes(ringSize, xsk.DescBytes))
	if err != nil {
		return XSKSetupResult{}, err
	}
	txB, err := alloc(ring.TotalBytes(ringSize, xsk.DescBytes))
	if err != nil {
		return XSKSetupResult{}, err
	}
	complB, err := alloc(ring.TotalBytes(ringSize, xsk.FillEntryBytes))
	if err != nil {
		return XSKSetupResult{}, err
	}
	umemB, err := alloc(uint64(frameSize) * uint64(frameCount))
	if err != nil {
		return XSKSetupResult{}, err
	}

	mk := func(base mem.Addr, entry uint32, side ring.Side) (*ring.Ring, error) {
		return ring.New(ring.Config{
			Space: k.Space, Access: mem.RoleHost, Base: base,
			Size: ringSize, EntrySize: entry, Side: side,
		})
	}
	x := &xskKernel{
		ns: ns, queueID: queueID,
		umemBase: umemB, frameSize: frameSize, frameCount: frameCount,
		counters: p.Counters,
	}
	if x.fill, err = mk(fillB, xsk.FillEntryBytes, ring.Consumer); err != nil {
		return XSKSetupResult{}, err
	}
	if x.rx, err = mk(rxB, xsk.DescBytes, ring.Producer); err != nil {
		return XSKSetupResult{}, err
	}
	if x.tx, err = mk(txB, xsk.DescBytes, ring.Consumer); err != nil {
		return XSKSetupResult{}, err
	}
	if x.compl, err = mk(complB, xsk.FillEntryBytes, ring.Producer); err != nil {
		return XSKSetupResult{}, err
	}
	x.fd = k.installFD(x)
	for _, rg := range []chaos.RingRegion{
		{Name: fmt.Sprintf("xsk%d-fill", x.fd), Base: fillB, EntrySize: xsk.FillEntryBytes,
			KernelSide: ring.Consumer, Flags: true},
		{Name: fmt.Sprintf("xsk%d-rx", x.fd), Base: rxB, EntrySize: xsk.DescBytes,
			KernelSide: ring.Producer},
		{Name: fmt.Sprintf("xsk%d-tx", x.fd), Base: txB, EntrySize: xsk.DescBytes,
			KernelSide: ring.Consumer},
		{Name: fmt.Sprintf("xsk%d-compl", x.fd), Base: complB, EntrySize: xsk.FillEntryBytes,
			KernelSide: ring.Producer},
	} {
		rg.Size = ringSize
		k.Chaos.RegisterRing(rg)
	}

	ns.mu.Lock()
	ns.xsks[queueID] = x
	ns.mu.Unlock()

	return XSKSetupResult{Setup: xsk.Setup{
		FD:        x.fd,
		FillBase:  fillB,
		RXBase:    rxB,
		TXBase:    txB,
		ComplBase: complB,
		UMemBase:  umemB,
	}}, nil
}

// unbind detaches the XSK from its queue and retires its busy-poll
// worker.
func (x *xskKernel) unbind() {
	x.setBusyPoll(false)
	x.ns.mu.Lock()
	if x.ns.xsks[x.queueID] == x {
		delete(x.ns.xsks, x.queueID)
	}
	x.ns.mu.Unlock()
}

// umemOK bounds-checks a user-supplied UMem range. The kernel validates
// user descriptors just as Linux does — the kernel is not RAKIS's victim,
// but it protects itself.
func (x *xskKernel) umemOK(off uint64, n uint32) bool {
	total := uint64(x.frameSize) * uint64(x.frameCount)
	return off < total && uint64(n) <= total-off
}

// deliver places one received frame into a fill-ring UMem slot and
// publishes an xRX descriptor. Without fill entries the frame is dropped
// (§4.1 "Quality of service assurance") and need-wakeup is flagged.
func (x *xskKernel) deliver(frame []byte, clk *vtime.Clock) {
	x.rxMu.Lock()
	defer x.rxMu.Unlock()
	m := x.ns.kern.Model
	clk.Advance(m.XskKernelPerFrame)
	avail, _ := x.fill.Available()
	if avail == 0 {
		x.fill.SetFlags(ring.FlagNeedWakeup)
		if x.counters != nil {
			x.counters.PacketsDropped.Add(1)
		}
		return
	}
	rxFree, _ := x.rx.Free()
	if rxFree == 0 {
		if x.counters != nil {
			x.counters.PacketsDropped.Add(1)
		}
		return
	}
	off, err := x.fill.ReadU64(0)
	if err != nil || !x.umemOK(off, uint32(len(frame))) || uint32(len(frame)) > x.frameSize {
		// Hostile or nonsense fill entry: consume and drop.
		x.fill.Release(1)
		if x.counters != nil {
			x.counters.PacketsDropped.Add(1)
		}
		return
	}
	dst, err := x.ns.kern.Space.Bytes(mem.RoleHost, x.umemBase+mem.Addr(off), uint64(len(frame)))
	if err != nil {
		x.fill.Release(1)
		return
	}
	copy(dst, frame)
	clk.Advance(vtime.Bytes(m.KernelCopyPerByte, len(frame)))
	x.fill.Release(1)
	slot, err := x.rx.SlotBytes(0)
	if err != nil {
		return
	}
	xsk.PutDesc(slot, xsk.Desc{Addr: off, Len: uint32(len(frame))})
	x.rx.Submit(1, clk.Now())
}

// processTX consumes xTX, transmits the frames, and produces completions.
// It runs in syscall context — the sendto wakeup from the Monitor Module
// — or in the busy-poll worker. lag is the virtual time between a
// frame's publish and the drain picking it up: Model.XskWakeLatency for
// a woken drain, 0 for the busy-poll worker, which books that gap as
// spin itself.
func (x *xskKernel) processTX(clk *vtime.Clock, lag uint64) int {
	x.txMu.Lock()
	defer x.txMu.Unlock()
	// Republish the kernel-owned indices so a scribbled cell heals even
	// when no entries move this pass, and bound the drain at one ring's
	// worth — the tx ring is uncertified on this side, so a hostile
	// producer value must not become an unbounded loop.
	x.tx.Republish()
	x.compl.Republish()
	m := x.ns.kern.Model
	n := 0
	var frozen [xsk.DescBytes]byte
	for drained := uint32(0); drained < x.tx.Size(); drained++ {
		avail, _ := x.tx.Available()
		if avail == 0 {
			break
		}
		clk.Sync(x.tx.SlotStamp(0) + lag)
		// Freeze the descriptor before the bounds check: umemOK and the
		// copy below must agree on (Addr, Len) even if the producer
		// rewrites the live slot mid-drain.
		snap, err := x.tx.SnapSlotTo(frozen[:], 0)
		if err != nil {
			x.tx.Release(1)
			continue
		}
		d := xsk.SnapDesc(snap)
		if !x.umemOK(d.Addr, d.Len) {
			x.tx.Release(1)
			continue
		}
		src, err := x.ns.kern.Space.Bytes(mem.RoleHost, x.umemBase+mem.Addr(d.Addr), uint64(d.Len))
		if err != nil {
			x.tx.Release(1)
			continue
		}
		// Transmit makes the kernel's one copy of the frame (charged
		// here) before steering or the wire look at a byte of it.
		clk.Advance(m.XskKernelPerFrame + vtime.Bytes(m.KernelCopyPerByte, int(d.Len)))
		x.ns.Dev.Transmit(src, clk.Now())
		x.tx.Release(1)
		// Completion: hand the frame back.
		free, _ := x.compl.Free()
		if free > 0 {
			x.compl.WriteU64(0, d.Addr)
			x.compl.Submit(1, clk.Now())
		}
		n++
	}
	return n
}

// XSKSendto is the sendto(fd) wakeup: it prompts the kernel to drain the
// socket's xTX ring (§4.3).
func (p *Proc) XSKSendto(fd int, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	x, err := lookupAs[*xskKernel](p.kern, fd, ErrNotSocket)
	if err != nil {
		return 0, err
	}
	return wake(p, clk, x, (*xskKernel).sendto), nil
}

// sendto drains xTX for a doorbell rung at virtual time at. The doorbell
// itself is paid by the caller (p.enter, on its clock); the frame drain
// runs in the queue's driver context, which cannot start before the
// doorbell rang, so its clock first catches up to the caller. Each frame
// then waits Model.XskWakeLatency after its publish for the woken drain
// to reach it, as an SQE waits IoUringWakeLatency for the io_uring worker.
func (x *xskKernel) sendto(at uint64) int {
	x.txMu.Lock()
	x.txClk.Sync(at)
	x.txMu.Unlock()
	return x.processTX(&x.txClk, x.ns.kern.Model.XskWakeLatency)
}

// XSKTxClock exposes the queue's driver TX context clock so telemetry
// can attach a probe — the drain work moved off the MM clock must stay
// visible in the cycle accounting.
func (p *Proc) XSKTxClock(fd int) *vtime.Clock {
	x, err := lookupAs[*xskKernel](p.kern, fd, ErrNotSocket)
	if err != nil {
		return nil
	}
	return &x.txClk
}

// XSKRecvfrom is the recvfrom(fd) wakeup: it clears the fill ring's
// need-wakeup flag so the receive path resumes consuming fill entries.
func (p *Proc) XSKRecvfrom(fd int, clk *vtime.Clock) error {
	p.enter(clk)
	x, err := lookupAs[*xskKernel](p.kern, fd, ErrNotSocket)
	if err != nil {
		return err
	}
	wake(p, clk, x, func(x *xskKernel, _ uint64) int { x.resumeRX(); return 0 })
	return nil
}

// resumeRX clears need-wakeup and republishes the kernel-owned receive
// indices (scribble healing for an otherwise idle receive path).
func (x *xskKernel) resumeRX() {
	x.rxMu.Lock()
	x.fill.Republish()
	x.rx.Republish()
	x.rxMu.Unlock()
	x.fill.SetFlags(0)
}

// pollInterval is the real-time pass period of the busy-poll worker —
// same order as the Monitor sweep, but with no syscall per pass.
const pollInterval = 5 * time.Microsecond

// XSKBusyPoll switches the socket's kernel busy-poll worker on or off
// (the SO_PREFER_BUSY_POLL trade: no per-edge wakeup syscalls, one core
// spinning instead). The caller is a host thread — in RAKIS deployments
// the Monitor Module, so a mode switch never costs an enclave exit.
func (p *Proc) XSKBusyPoll(fd int, on bool, clk *vtime.Clock) error {
	p.enter(clk)
	x, err := lookupAs[*xskKernel](p.kern, fd, ErrNotSocket)
	if err != nil {
		return err
	}
	x.setBusyPoll(on)
	return nil
}

// XSKPollClock exposes the socket's busy-poll worker clock so the
// telemetry layer can attach a probe: the spin burn must show up in the
// cycle accounting, or busy-poll would look free.
func (p *Proc) XSKPollClock(fd int) *vtime.Clock {
	x, err := lookupAs[*xskKernel](p.kern, fd, ErrNotSocket)
	if err != nil {
		return nil
	}
	return &x.pollClk
}

// setBusyPoll starts or stops the worker, idempotently.
func (x *xskKernel) setBusyPoll(on bool) {
	x.pollMu.Lock()
	defer x.pollMu.Unlock()
	if on == (x.pollStop != nil) {
		return
	}
	if on {
		x.pollFresh.Store(true)
		x.pollStop = make(chan struct{})
		x.pollDone = make(chan struct{})
		go x.pollLoop(x.pollStop, x.pollDone)
	} else {
		close(x.pollStop)
		<-x.pollDone
		x.pollStop, x.pollDone = nil, nil
	}
}

func (x *xskKernel) pollLoop(stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		default:
		}
		x.pollPass()
		time.Sleep(pollInterval)
	}
}

// pollPass is one spin of the worker. The gap between the worker's
// clock and the oldest pending TX frame is exactly the time the core
// spent polling empty rings, so it is booked as spin (CompOther) before
// the frame is processed — busy-poll's cost is idle cycles, and the
// accounting must show it.
func (x *xskKernel) pollPass() {
	clk := &x.pollClk
	x.txMu.Lock()
	x.tx.Republish()
	if avail, _ := x.tx.Available(); avail > 0 {
		if x.pollFresh.Swap(false) {
			// First frame after (re)enabling: the worker was not
			// spinning across the gap since its last run, so catching
			// the clock up is wait, not burn.
			clk.Sync(x.tx.SlotStamp(0))
		} else {
			clk.SyncAs(x.tx.SlotStamp(0), vtime.CompOther)
		}
	}
	x.txMu.Unlock()
	x.processTX(clk, 0)
	x.resumeRX()
}
