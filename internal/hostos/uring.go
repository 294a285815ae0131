package hostos

import (
	"fmt"
	"sync"
	"time"

	"rakis/internal/chaos"
	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/sys"
	"rakis/internal/vtime"
)

// uringKernel is the kernel side of one io_uring instance: a worker that
// consumes iSub and produces iCompl. The worker is kicked by the
// io_uring_enter syscall (from the Monitor Module in RAKIS deployments)
// and models the dedicated kernel routine the paper cites [20-22].
type uringKernel struct {
	fd   int
	kern *Kernel
	proc *Proc // namespace context for socket fds

	sub   *ring.Ring // kernel consumes
	compl *ring.Ring // kernel produces

	wake     *vtime.Bell // rung by io_uring_enter
	done     chan struct{}
	stopOnce sync.Once

	// clk is the inline operations' clock, restarted for each SQE; owning
	// it keeps the per-SQE clock off the heap.
	clk vtime.Clock

	complMu sync.Mutex // serializes CQE production from async op goroutines

	pollMu      sync.Mutex
	pollCancels map[uint64]chan struct{} // armed polls by user data
}

// IoUringSetup performs the untrusted initialization of one io_uring.
func (p *Proc) IoUringSetup(entries uint32, clk *vtime.Clock) (iouring.Setup, error) {
	p.enter(clk)
	k := p.kern
	subB, err := k.Space.Alloc(mem.Untrusted, ring.TotalBytes(entries, iouring.SQEBytes), 64)
	if err != nil {
		return iouring.Setup{}, err
	}
	complB, err := k.Space.Alloc(mem.Untrusted, ring.TotalBytes(entries, iouring.CQEBytes), 64)
	if err != nil {
		return iouring.Setup{}, err
	}
	// The periodic scan is a safety net against lost wakeups. Chaos
	// profiles that inject wakeup loss disable it so the loss actually
	// stalls and the enclave's recovery ladder — not this timer — must
	// save the run.
	scan := kernelScan
	if k.Chaos.KernelScanDisabled() {
		scan = 0
	}
	u := &uringKernel{
		kern: k, proc: p,
		wake:        vtime.NewBell(scan),
		done:        make(chan struct{}),
		pollCancels: make(map[uint64]chan struct{}),
	}
	if u.sub, err = ring.New(ring.Config{
		Space: k.Space, Access: mem.RoleHost, Base: subB,
		Size: entries, EntrySize: iouring.SQEBytes, Side: ring.Consumer,
	}); err != nil {
		return iouring.Setup{}, err
	}
	if u.compl, err = ring.New(ring.Config{
		Space: k.Space, Access: mem.RoleHost, Base: complB,
		Size: entries, EntrySize: iouring.CQEBytes, Side: ring.Producer,
	}); err != nil {
		return iouring.Setup{}, err
	}
	u.fd = k.installFD(u)
	k.Chaos.RegisterRing(chaos.RingRegion{
		Name: fmt.Sprintf("uring%d-sub", u.fd), Base: subB,
		Size: entries, EntrySize: iouring.SQEBytes, KernelSide: ring.Consumer,
	})
	k.Chaos.RegisterRing(chaos.RingRegion{
		Name: fmt.Sprintf("uring%d-compl", u.fd), Base: complB,
		Size: entries, EntrySize: iouring.CQEBytes, KernelSide: ring.Producer,
	})
	go u.worker()
	return iouring.Setup{FD: u.fd, SubBase: subB, ComplBase: complB}, nil
}

// IoUringEnter kicks the worker to process pending submissions (§4.3).
// It does not block: the kernel routine runs asynchronously.
func (p *Proc) IoUringEnter(fd int, clk *vtime.Clock) error {
	p.enter(clk)
	u, err := lookupAs[*uringKernel](p.kern, fd, ErrInval)
	if err != nil {
		return err
	}
	wake(p, clk, u, func(u *uringKernel, _ uint64) int { u.kick(); return 0 })
	return nil
}

// kick delivers one (possibly coalesced) wakeup to the worker.
func (u *uringKernel) kick() { u.wake.Ring() }

// kernelScan is the worker's unkicked rescan period.
const kernelScan = 5 * time.Millisecond

func (u *uringKernel) stop() {
	u.stopOnce.Do(func() { close(u.done) })
}

// worker drains the submission ring whenever kicked.
func (u *uringKernel) worker() {
	inj := u.kern.Chaos
	for {
		u.wake.Wait(u.done)
		select {
		case <-u.done:
			return
		default:
		}
		if inj.WorkerKill() {
			// Fault site (c): the kernel routine dies. Outstanding and
			// future operations on this ring never complete; the enclave
			// surfaces ErrTimeout, never corruption.
			return
		}
		inj.Stall(chaos.SiteWorkerStall).Sleep()
		// Republish both kernel-owned indices: a scribbled cell normally
		// heals on the kernel's next Submit/Release, but an idle kernel
		// makes no stores — republishing on every wakeup lets the
		// enclave's nudge ladder force the heal.
		u.sub.Republish()
		u.complMu.Lock()
		u.compl.Republish()
		u.complMu.Unlock()
		if ud, res, ok := inj.CQEForge(); ok {
			// Fault site (b): a completion the enclave never asked for.
			u.complete(ud, res, 0)
		}
		// Bound the drain at one ring's worth per pass: the submission
		// ring is uncertified on this side, so a hostile producer value
		// must not turn into a multi-billion-iteration loop.
		var frozen [iouring.SQEBytes]byte
		for drained := uint32(0); drained < u.sub.Size(); drained++ {
			avail, _ := u.sub.Available()
			if avail == 0 {
				break
			}
			// Freeze the SQE before dispatch: the submission ring is
			// uncertified on this side, and an enclave (or scribbler)
			// rewriting the live slot between decode and execution must
			// not split the request into two disagreeing halves.
			snap, err := u.sub.SnapSlotTo(frozen[:], 0)
			if err != nil {
				u.sub.Release(1)
				continue
			}
			sqe := iouring.SnapSQE(snap)
			// The wake latency models the gap between the producer's
			// advance and this routine being scheduled. Each operation
			// runs asynchronously with its own virtual clock — as in
			// real io_uring, a blocking recv or an armed poll never
			// stalls later submissions.
			m := u.kern.Model
			start := u.sub.SlotStamp(0) + m.IoUringWakeLatency
			u.sub.Release(1)
			// Ops that cannot block complete inline in the worker — file
			// reads and writes among them, as a page-cache hit does in
			// real io_uring; recvs, sends and unready polls get a
			// goroutine, as real io_uring punts blocking work to async
			// context.
			clk := &u.clk
			*clk = vtime.Clock{}
			clk.SyncAdvance(start, m.IoUringDispatch)
			switch sqe.Op {
			case iouring.OpNop, iouring.OpPollRemove, iouring.OpFsync, iouring.OpRead, iouring.OpWrite:
				u.complete(sqe.UserData, u.hostileRes(sqe, u.execute(sqe, clk)), clk.Now())
				continue
			case iouring.OpPollAdd:
				if re := u.kern.readiness(int(sqe.FD), sqe.OpFlags); re != 0 && re != sys.PollErr {
					clk.Advance(m.PollPerFD)
					u.complete(sqe.UserData, u.hostileRes(sqe, int32(re)), clk.Now())
					continue
				}
			}
			now := clk.Now()
			go func(sqe iouring.SQE, start uint64) {
				var opClk vtime.Clock
				opClk.Sync(start)
				res := u.execute(sqe, &opClk)
				u.complete(sqe.UserData, u.hostileRes(sqe, res), opClk.Now())
			}(sqe, now)
		}
	}
}

// hostileRes gives chaos a chance to replace a genuine result with a
// hostile errno/short-count value (fault site (d)).
func (u *uringKernel) hostileRes(sqe iouring.SQE, res int32) int32 {
	if v, ok := u.kern.Chaos.CQERes(sqe.Len); ok {
		return v
	}
	return res
}

// complete publishes one CQE.
func (u *uringKernel) complete(userData uint64, res int32, now uint64) {
	u.complMu.Lock()
	defer u.complMu.Unlock()
	dup := 1
	if u.kern.Chaos.CQEDup() {
		// Fault site (b): the same completion posted twice.
		dup = 2
	}
	for i := 0; i < dup; i++ {
		free, _ := u.compl.Free()
		if free == 0 {
			// Completion overflow: drop, as the kernel does when the CQ is
			// full and overflow handling is off.
			return
		}
		cslot, err := u.compl.SlotBytes(0)
		if err != nil {
			return
		}
		iouring.PutCQE(cslot, iouring.CQE{UserData: userData, Res: res})
		u.compl.Submit(1, now)
	}
}

// Errno values surfaced through CQE results.
const (
	errnoEFAULT    = -14
	errnoEINVAL    = -22
	errnoEBADF     = -9
	errnoEPIPE     = -32
	errnoECANCELED = -125
)

// execute performs one submitted operation in the worker's context. The
// user buffer must lie in untrusted memory: a buffer pointing into the
// enclave fails exactly as SGX hardware would make it fail (the
// liburing attack of Appendix A is dead on arrival here).
func (u *uringKernel) execute(sqe iouring.SQE, clk *vtime.Clock) int32 {
	m := u.kern.Model
	var buf []byte
	needBuf := sqe.Op == iouring.OpRead || sqe.Op == iouring.OpWrite ||
		sqe.Op == iouring.OpSend || sqe.Op == iouring.OpRecv
	if needBuf {
		var err error
		buf, err = u.kern.Space.Bytes(mem.RoleHost, sqe.Addr, uint64(sqe.Len))
		if err != nil {
			return errnoEFAULT
		}
	}
	obj, err := u.kern.lookupFD(int(sqe.FD))
	if err != nil && sqe.Op != iouring.OpNop && sqe.Op != iouring.OpPollRemove {
		return errnoEBADF
	}
	switch sqe.Op {
	case iouring.OpNop:
		return 0
	case iouring.OpRead:
		f, ok := obj.(*File)
		if !ok {
			return errnoEBADF
		}
		var n int
		if sqe.Off == ^uint64(0) {
			f.mu.Lock()
			n = f.ino.ReadAt(buf, f.off)
			f.off += int64(n)
			f.mu.Unlock()
		} else {
			n = f.ino.ReadAt(buf, int64(sqe.Off))
		}
		clk.Advance(m.VfsOp + vtime.Bytes(m.KernelCopyPerByte, n))
		return int32(n)
	case iouring.OpWrite:
		f, ok := obj.(*File)
		if !ok {
			return errnoEBADF
		}
		var n int
		if sqe.Off == ^uint64(0) {
			f.mu.Lock()
			n = f.ino.WriteAt(buf, f.off)
			f.off += int64(n)
			f.mu.Unlock()
		} else {
			n = f.ino.WriteAt(buf, int64(sqe.Off))
		}
		clk.Advance(m.VfsOp + vtime.Bytes(m.KernelCopyPerByte, n))
		return int32(n)
	case iouring.OpSend:
		t, ok := obj.(*tcpObj)
		if !ok || t.sock == nil || t.listener {
			return errnoEBADF
		}
		n, err := t.sock.Send(buf, clk)
		if err != nil {
			return errnoEPIPE
		}
		return int32(n)
	case iouring.OpRecv:
		t, ok := obj.(*tcpObj)
		if !ok || t.sock == nil || t.listener {
			return errnoEBADF
		}
		n, err := t.sock.Recv(buf, clk, true)
		if err != nil {
			return errnoEPIPE
		}
		return int32(n)
	case iouring.OpPollAdd:
		return u.pollAdd(sqe, clk)
	case iouring.OpPollRemove:
		// Cancel the armed poll whose user data is in Off.
		u.pollMu.Lock()
		ch, ok := u.pollCancels[sqe.Off]
		if ok {
			delete(u.pollCancels, sqe.Off)
		}
		u.pollMu.Unlock()
		if !ok {
			return -2 // ENOENT: already completed or never armed
		}
		close(ch)
		return 0
	case iouring.OpFsync:
		if _, ok := obj.(*File); !ok {
			return errnoEBADF
		}
		clk.Advance(m.VfsOp)
		return 0
	default:
		return errnoEINVAL
	}
}

// pollAdd waits (in its own goroutine, like an armed io_uring poll)
// until the descriptor is ready, returning the revents mask; a
// poll_remove or the ring's shutdown ends the wait with -ECANCELED, and
// the kernel-side wait expires with 0 after ten seconds.
func (u *uringKernel) pollAdd(sqe iouring.SQE, clk *vtime.Clock) int32 {
	cancel := make(chan struct{})
	u.pollMu.Lock()
	u.pollCancels[sqe.UserData] = cancel
	u.pollMu.Unlock()
	defer func() {
		u.pollMu.Lock()
		delete(u.pollCancels, sqe.UserData)
		u.pollMu.Unlock()
	}()
	var res int32
	vtime.Until(10*time.Second, kernelPark, func(time.Duration) bool {
		select {
		case <-cancel:
		case <-u.done:
		default:
			switch re := u.kern.readiness(int(sqe.FD), sqe.OpFlags); re {
			case 0:
				return false
			case sys.PollErr:
				res = errnoEBADF
			default:
				clk.Advance(u.kern.Model.PollPerFD)
				res = int32(re)
			}
			return true
		}
		res = errnoECANCELED
		return true
	})
	return res
}
