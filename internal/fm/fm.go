// Package fm implements the FastPath Module orchestration (§4.1): the
// per-XSK receive pump threads and the per-user-thread io_uring FMs with
// their trusted bounce-buffer management.
//
// The XSK pump is the paper's "distinct SGX enclave thread assigned to
// each XSK": it certifies incoming frames in place (xsk.RecvViews) and
// hands each view to its shard of the in-enclave UDP/IP stack
// (netstack.InputViewShard) — the one RX path — keeping the fill ring
// stocked so the kernel never runs out of RX frames (§4.1 "Quality of
// service assurance").
//
// The io_uring FM owns a bounce buffer in untrusted shared memory: write
// payloads are copied out of the enclave before submission, read results
// are copied in only after the completion passes validation. RAKIS never
// places enclave pointers in SQEs — the inverse of the liburing flaw in
// Appendix A.
//
//rakis:role enclave
package fm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/netstack"
	"rakis/internal/telemetry"
	"rakis/internal/tuner"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

// Errno converts a negative CQE result into an error.
func Errno(res int32) error {
	if res >= 0 {
		return nil
	}
	switch res {
	case -9:
		return errors.New("fm: EBADF")
	case -14:
		return errors.New("fm: EFAULT")
	case -22:
		return errors.New("fm: EINVAL")
	case -32:
		return errors.New("fm: EPIPE")
	default:
		return fmt.Errorf("fm: errno %d", -res)
	}
}

// CursorOff is the Off value requesting cursor-relative file IO.
const CursorOff = ^uint64(0)

// XskPump is the dedicated enclave thread driving one XSK.
type XskPump struct {
	sock  *xsk.Socket
	stack *netstack.Stack
	model *vtime.Model

	// waker is the lost-wakeup recovery ladder for the TX direction
	// (xTX is edge-triggered: a swallowed sendto never re-fires on its
	// own; the Monitor Module sweeps as soon as a publish rings its bell,
	// so entries still pending at the ladder's first rung mean the wakeup
	// was swallowed). Optional; set before Start.
	waker iouring.Waker

	// tuning, when non-nil, couples the pump to the self-tuning runtime:
	// the advised vector width caps the per-pass drain, and busy-poll
	// mode parks the TX nudge ladder (the kernel worker drains xTX, so a
	// pending entry is not a lost wakeup). A nil state means static
	// full-width behaviour.
	tuning *tuner.State

	// depth, when non-nil, receives one sample per active pass: the
	// certified RX backlog found before draining. This is the trusted
	// queue-depth histogram the tuner steps on.
	depth *telemetry.Histogram

	// shard is the demux shard this pump feeds — its own XSK queue
	// index. RSS steered every frame on this queue with the shard hash,
	// so the stack takes only this shard's locks for the pump's frames.
	shard int

	// moved counts frames this pump has handed to the stack (the
	// per-shard RX throughput rollup).
	moved atomic.Uint64

	clk  vtime.Clock
	stop chan struct{}
	done chan struct{}
}

// NewXskPump wires an XSK to the in-enclave stack.
func NewXskPump(sock *xsk.Socket, stack *netstack.Stack, model *vtime.Model) *XskPump {
	if model == nil {
		model = vtime.Default()
	}
	return &XskPump{
		sock:  sock,
		stack: stack,
		model: model,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Clock returns the pump thread's virtual clock.
func (p *XskPump) Clock() *vtime.Clock { return &p.clk }

// Socket returns the underlying XSK.
func (p *XskPump) Socket() *xsk.Socket { return p.sock }

// SetWaker installs the TX lost-wakeup recovery ladder. Call before
// Start.
func (p *XskPump) SetWaker(w iouring.Waker) { p.waker = w }

// SetTuning couples the pump to the shared tuner state. Call before
// Start.
func (p *XskPump) SetTuning(st *tuner.State) { p.tuning = st }

// SetDepthHist installs the queue-depth histogram the pump samples on
// every active pass. Call before Start.
func (p *XskPump) SetDepthHist(h *telemetry.Histogram) { p.depth = h }

// SetShard binds the pump to its demux shard (its XSK queue index).
// Call before Start.
func (p *XskPump) SetShard(i int) { p.shard = i }

// Moved returns the number of frames the pump has fed into the stack.
func (p *XskPump) Moved() uint64 { return p.moved.Load() }

// Start stocks the fill ring and launches the pump thread. The first
// refill runs here, on the caller, so that once Start returns the kernel
// has RX frames: a peer's opening burst cannot race the pump goroutine's
// first scheduling and be dropped for want of a fill entry.
func (p *XskPump) Start() {
	p.sock.Refill(&p.clk)
	go p.run()
}

// pumpBatchMax caps how many RX descriptors the pump consumes per ring
// pass. Batching is opportunistic: the pump drains what is queued in one
// certified run and never waits for a batch to fill.
const pumpBatchMax = 32

// pumpPark is how the pump idles: 16 empty passes back to back, then a
// sleep per pass.
var pumpPark = vtime.Park{Spins: 16, Quantum: 20 * time.Microsecond}

func (p *XskPump) run() {
	defer close(p.done)
	for stopped := false; !stopped; {
		// One idle episode: passes until frames move (or Close), parking
		// between the empty ones. A busy pass is an episode of one.
		vtime.Until(-1, pumpPark, func(elapsed time.Duration) bool {
			select {
			case <-p.stop:
				stopped = true
				return true
			default:
			}
			moved := p.pumpOnce()
			// Service this shard's TCP retransmission wheel on the pump's
			// clock: due retransmits are charged here and leave on this
			// shard's flow-affine TX lane. A single atomic load when idle.
			p.stack.TickTCP(&p.clk, p.shard)
			if moved == 0 {
				p.sock.Reap(&p.clk)
			}
			p.sock.Refill(&p.clk)
			if moved > 0 {
				return true
			}
			// TX recovery ladder: entries stranded on xTX mean a lost
			// sendto wakeup (edge-triggered — nothing re-fires it). In
			// busy-poll mode the ladder parks: the kernel worker drains
			// xTX on its own, so pending entries are just in flight.
			if p.tuning.BusyPoll() || !p.sock.TxPending() {
				p.waker.Reset()
			} else if c := p.sock.Counters(); p.waker.Step(elapsed) && c != nil {
				c.WakeupRetries.Add(1)
			}
			return false
		})
	}
}

// pumpOnce drains one certified RX run into the stack, each frame as a
// certified in-place view, and returns the number of frames moved.
func (p *XskPump) pumpOnce() int {
	if q := p.sock.RxQueued(); q > 0 {
		p.depth.Observe(uint64(q))
	}
	width := pumpBatchMax
	if p.tuning != nil {
		if b := p.tuning.Batch(); b < width {
			width = b
		}
	}
	views := p.sock.RecvViews(&p.clk, width)
	for i := range views {
		p.clk.Advance(p.model.FMPerPacket)
		p.stack.InputViewShard(views[i], &p.clk, p.shard)
	}
	p.moved.Add(uint64(len(views)))
	return len(views)
}

// Close stops the pump and waits for it to exit.
func (p *XskPump) Close() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}

// UringFM is one user thread's io_uring FastPath Module. It is not safe
// for concurrent use: RAKIS gives every user thread its own instance to
// avoid contention (§4.1).
type UringFM struct {
	ring  *iouring.Ring
	space *mem.Space
	model *vtime.Model

	bounce    mem.Addr
	bounceLen int
	trace     *telemetry.Buf
}

// NewUringFM attaches the FM to a validated ring and allocates its
// untrusted bounce buffer.
func NewUringFM(ring *iouring.Ring, space *mem.Space, model *vtime.Model, bounceLen int) (*UringFM, error) {
	if model == nil {
		model = vtime.Default()
	}
	if bounceLen <= 0 {
		bounceLen = 256 * 1024
	}
	addr, err := space.Alloc(mem.Untrusted, uint64(bounceLen), 64)
	if err != nil {
		return nil, err
	}
	return &UringFM{
		ring:   ring,
		space:  space,
		model:  model,
		bounce: addr, bounceLen: bounceLen,
	}, nil
}

// Ring returns the underlying certified ring pair.
func (u *UringFM) Ring() *iouring.Ring { return u.ring }

// SetTrace routes this FM's boundary-copy events (and its ring's
// produce/refusal/completion events) to the given trace buffer.
func (u *UringFM) SetTrace(b *telemetry.Buf) {
	u.trace = b
	u.ring.SetTrace(b)
}

// copied charges one bounce-buffer crossing (dir 0 = out of the
// enclave, 1 = into it) and emits the copy event.
func (u *UringFM) copied(n int, dir uint64, clk *vtime.Clock) {
	clk.Charge(vtime.CompCopy, vtime.Bytes(u.model.BoundaryCopyPerByte, n))
	u.trace.Emit(telemetry.EvBoundaryCopy, clk.Now(), uint64(n), dir)
}

// submitRetryMax bounds how often submitWait retries a full submission
// ring before surfacing ErrFull: the kernel consuming slowly (or a lost
// wakeup stalling consumption entirely) is an availability problem the
// FM rides out with bounded backoff, not an error on the first try.
const submitRetryMax = 25

// step climbs one rung of the full-iSub recovery ladder — drain any
// parked completions (emptying the outstanding set is what re-enables the
// ring's cons==prod reconciliation), escalate through the waker so a lost
// consumption wakeup gets re-issued, count the retry, back off (doubling)
// — and reports false once submitRetryMax rungs are spent. A full ring is
// also how a scribbled consumer cell presents — the refused read pins
// Free at its last trusted value — so the rungs double as the window in
// which quarantine-and-resync heals the cell.
func (u *UringFM) step(ld *vtime.Backoff, clk *vtime.Clock) bool {
	if !ld.More() {
		return false
	}
	u.ring.Drain(clk)
	u.ring.Waker().Escalate()
	if c := u.ring.Counters(); c != nil {
		c.SubmitRetries.Add(1)
	}
	ld.Sleep()
	return true
}

// submitRun is the one submission loop: it offers es to iSub, re-offering
// the unsubmitted tail on the ladder when the ring is (or fills) full,
// with the tokens landing in the caller's storage. It returns how far
// the run got; the error is non-nil only when the ladder gave up
// (ErrFull) or a non-retryable error struck.
func (u *UringFM) submitRun(es []iouring.SQE, tokens []uint64, clk *vtime.Clock) (int, error) {
	ld := vtime.NewBackoff(20*time.Microsecond, 2*time.Millisecond, submitRetryMax)
	done := 0
	for done < len(es) {
		n, err := u.ring.SubmitN(es[done:], tokens[done:], clk)
		if done += n; done == len(es) {
			break
		}
		if err != nil && !errors.Is(err, iouring.ErrFull) {
			return done, err
		}
		if !u.step(&ld, clk) {
			return done, iouring.ErrFull
		}
	}
	return done, nil
}

// submitRetry submits one SQE: submitRun at width one, on stack arrays.
func (u *UringFM) submitRetry(e iouring.SQE, clk *vtime.Clock) (uint64, error) {
	es, tok := [1]iouring.SQE{e}, [1]uint64{}
	_, err := u.submitRun(es[:], tok[:], clk)
	return tok[0], err
}

// submitWait is the synchronous submit-then-wait core.
func (u *UringFM) submitWait(e iouring.SQE, clk *vtime.Clock) (int32, error) {
	tok, err := u.submitRetry(e, clk)
	if err != nil {
		return 0, err
	}
	return u.ring.Wait(tok, clk)
}

// bounceView returns the enclave's view of the first n bounce bytes.
// The bounce buffer lives in shared memory, so the view is a live alias
// the host can rewrite at any instant: callers must cross it exactly
// once (one copy in or one copy out) and never parse values from it.
//
//rakis:untrusted
func (u *UringFM) bounceView(n int) ([]byte, error) {
	return u.space.Bytes(mem.RoleEnclave, u.bounce, uint64(n))
}

// ErrNoProgress reports a completion that claims success for a
// non-empty send yet moved no byte: retrying it could spin forever.
var ErrNoProgress = errors.New("fm: send made no progress")

// transfer is the one loop behind ReadAt, WriteAt, Send and Recv: it moves
// trusted p through the bounce buffer a chunk at a time — for the
// outbound ops (write, send) the chunk is copied out before submission,
// for the inbound ones (read, recv) the validated result is copied in
// after completion — advancing a file offset unless it is CursorOff. A
// count short of the chunk ends the transfer (end of file, a full disk,
// the bytes a stream had ready), except that a stream send resumes with
// the rest for as long as each completion makes progress.
func (u *UringFM) transfer(op iouring.Op, fd int, p []byte, off uint64, clk *vtime.Clock) (int, error) {
	out := op == iouring.OpWrite || op == iouring.OpSend
	total := 0
	for len(p) > 0 {
		chunk := min(len(p), u.bounceLen)
		if out {
			dst, err := u.bounceView(chunk)
			if err != nil {
				return total, err
			}
			copy(dst, p[:chunk])
			u.copied(chunk, 0, clk)
		}
		res, err := u.submitWait(iouring.SQE{
			Op: op, FD: int32(fd), Off: off,
			Addr: u.bounce, Len: uint32(chunk),
		}, clk)
		if err != nil {
			return total, err
		}
		if res < 0 {
			return total, Errno(res)
		}
		n := int(res)
		if !out && n > 0 {
			src, err := u.bounceView(n)
			if err != nil {
				return total, err
			}
			copy(p, src[:n])
			u.copied(n, 1, clk)
		}
		total += n
		if op == iouring.OpSend && n == 0 {
			return total, ErrNoProgress
		}
		if op != iouring.OpSend && n < chunk {
			break
		}
		p = p[n:]
		if off != CursorOff {
			off += uint64(n)
		}
	}
	return total, nil
}

// ReadAt reads into trusted p through the bounce buffer. off == CursorOff
// reads at the file cursor.
func (u *UringFM) ReadAt(fd int, p []byte, off uint64, clk *vtime.Clock) (int, error) {
	return u.transfer(iouring.OpRead, fd, p, off, clk)
}

// WriteAt writes trusted p through the bounce buffer. off == CursorOff
// writes at the file cursor.
func (u *UringFM) WriteAt(fd int, p []byte, off uint64, clk *vtime.Clock) (int, error) {
	return u.transfer(iouring.OpWrite, fd, p, off, clk)
}

// Send transmits all of trusted p on a kernel TCP socket, or reports how
// much went out with the error that stopped it. A stream is always at
// its cursor.
func (u *UringFM) Send(fd int, p []byte, clk *vtime.Clock) (int, error) {
	return u.transfer(iouring.OpSend, fd, p, CursorOff, clk)
}

// Recv receives into trusted p from a kernel TCP socket: one pass, so a
// buffer wider than the bounce never waits for a second chunk.
func (u *UringFM) Recv(fd int, p []byte, clk *vtime.Clock) (int, error) {
	return u.transfer(iouring.OpRecv, fd, p[:min(len(p), u.bounceLen)], CursorOff, clk)
}

// Fsync flushes a file.
func (u *UringFM) Fsync(fd int, clk *vtime.Clock) error {
	res, err := u.submitWait(iouring.SQE{Op: iouring.OpFsync, FD: int32(fd)}, clk)
	if err != nil {
		return err
	}
	return Errno(res)
}

// SubmitPoll arms an asynchronous poll on a host descriptor and returns
// its token; the API submodule aggregates it with enclave-side sources.
func (u *UringFM) SubmitPoll(fd int, events uint32, clk *vtime.Clock) (uint64, error) {
	return u.submitRetry(iouring.SQE{
		Op: iouring.OpPollAdd, FD: int32(fd), OpFlags: events,
	}, clk)
}

// PollReq names one descriptor to arm in a batched SubmitPollN.
type PollReq struct {
	FD     int
	Events uint32
}

// SubmitPollN arms asynchronous polls for every request in one batched
// submission run (one producer publish, at most one MM wakeup) and
// returns their tokens in request order. Partial arming surfaces as a
// short token slice plus the error that stopped it. It is the FM's one
// vectored entry, so it is what counts a batch call.
func (u *UringFM) SubmitPollN(reqs []PollReq, clk *vtime.Clock) ([]uint64, error) {
	es := make([]iouring.SQE, len(reqs))
	for i, q := range reqs {
		es[i] = iouring.SQE{Op: iouring.OpPollAdd, FD: int32(q.FD), OpFlags: q.Events}
	}
	tokens := make([]uint64, len(es))
	n, err := u.submitRun(es, tokens, clk)
	if c := u.ring.Counters(); c != nil && n > 0 {
		c.BatchCalls.Add(1)
		c.BatchedMsgs.Add(uint64(n))
	}
	return tokens[:n], err
}

// TryPoll checks an armed poll without blocking.
func (u *UringFM) TryPoll(token uint64, clk *vtime.Clock) (int32, bool, error) {
	return u.ring.TryWait(token, clk)
}

// Escalate forces a consumption wakeup for completions the kernel may
// have produced while a scribbled index cell hides them. The blocking
// Wait path climbs the ring's ladder itself, but polls parked in the API
// submodule's aggregation loop only ever TryPoll — an idle kernel would
// never republish the cell and the loop would spin forever — so the
// aggregation steps the same ladder with the time it has waited. Nothing
// is provably stranded there, so the ladder restarts after each rung:
// every nudgeAfter of quiet asks once more, and only a dead Monitor
// Module is ever answered with the paid kick.
func (u *UringFM) Escalate(elapsed time.Duration) {
	if w := u.ring.Waker(); w.Step(elapsed) {
		w.Reset()
		if c := u.ring.Counters(); c != nil {
			c.WakeupRetries.Add(1)
		}
	}
}

// CancelPoll abandons an armed poll: a poll_remove operation cancels the
// kernel-side wait, and both completions are silently discarded.
func (u *UringFM) CancelPoll(token uint64, clk *vtime.Clock) {
	if rm, err := u.ring.Submit(iouring.SQE{Op: iouring.OpPollRemove, Off: token}, clk); err == nil {
		u.ring.Forget(rm)
	}
	u.ring.Forget(token)
}
