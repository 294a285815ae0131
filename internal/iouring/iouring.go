// Package iouring implements the FastPath Module side of an io_uring
// instance (§4.1, "Enabling the io_uring primitive") plus the SQE/CQE
// wire encoding shared with the simulated kernel.
//
// Two RAKIS-certified rings connect the enclave to the kernel (Table 1):
// iSub (FM produces submission entries) and iCompl (FM consumes
// completion entries). RAKIS uses io_uring for five syscalls — send and
// recv on TCP sockets, read, write, and poll — expressed through eight
// operations; it deliberately avoids liburing (§5: liburing trusts
// host-provided pointers, enabling enclave-memory exfiltration).
//
// Completion validation (Table 2, "IO operations status codes"): every
// CQE must carry the user-data token of an outstanding request, and its
// result must be plausible for the operation (e.g. a read may not claim
// more bytes than were requested). Implausible completions are refused
// and surfaced as -EPERM to the caller.
//
//rakis:role enclave
package iouring

import (
	"errors"
	"fmt"
	"time"

	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// Entry sizes.
const (
	SQEBytes = 64
	CQEBytes = 16
)

// Op is an io_uring operation code. RAKIS uses exactly these eight.
type Op uint8

const (
	OpNop Op = iota
	OpRead
	OpWrite
	OpSend
	OpRecv
	OpPollAdd
	OpPollRemove
	OpFsync
)

var opNames = [...]string{"nop", "read", "write", "send", "recv", "poll_add", "poll_remove", "fsync"}

// String returns the operation mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// SQE is a submission-queue entry.
type SQE struct {
	Op       Op
	Flags    uint8
	FD       int32
	Off      uint64
	Addr     mem.Addr // untrusted buffer address (bounce buffer)
	Len      uint32
	OpFlags  uint32 // OpPollAdd: the interest mask, in netstack's poll bits
	UserData uint64
}

// PutSQE encodes an SQE into a 64-byte slot. It is a pure encoder: the
// buffer address in e must have been validated by the caller (see
// Ring.Submit) before the entry is exposed to the host.
//
//rakis:boundary-ok pure encoder; Submit validates the buffer placement
func PutSQE(b []byte, e SQE) {
	_ = b[SQEBytes-1]
	for i := range b[:SQEBytes] {
		b[i] = 0
	}
	b[0] = byte(e.Op)
	b[1] = e.Flags
	le32(b[4:8], uint32(e.FD))
	le64(b[8:16], e.Off)
	le64(b[16:24], uint64(e.Addr))
	le32(b[24:28], e.Len)
	le32(b[28:32], e.OpFlags)
	le64(b[32:40], e.UserData)
}

// GetSQE decodes an SQE from a 64-byte slot. Slots live in shared
// memory, so every decoded field is host-controlled.
//
//rakis:untrusted
func GetSQE(b []byte) SQE {
	_ = b[SQEBytes-1]
	return SQE{
		Op:       Op(b[0]),
		Flags:    b[1],
		FD:       int32(ld32(b[4:8])),
		Off:      ld64(b[8:16]),
		Addr:     mem.Addr(ld64(b[16:24])),
		Len:      ld32(b[24:28]),
		OpFlags:  ld32(b[28:32]),
		UserData: ld64(b[32:40]),
	}
}

// CQE is a completion-queue entry.
type CQE struct {
	UserData uint64
	Res      int32
	Flags    uint32
}

// PutCQE encodes a CQE into a 16-byte slot.
func PutCQE(b []byte, e CQE) {
	_ = b[CQEBytes-1]
	le64(b[0:8], e.UserData)
	le32(b[8:12], uint32(e.Res))
	le32(b[12:16], e.Flags)
}

// GetCQE decodes a CQE from a 16-byte slot. Slots live in shared
// memory, so every decoded field is host-controlled until it passes the
// Table 2 completion validation in Drain.
//
//rakis:untrusted
func GetCQE(b []byte) CQE {
	_ = b[CQEBytes-1]
	return CQE{UserData: ld64(b[0:8]), Res: int32(ld32(b[8:12])), Flags: ld32(b[12:16])}
}

// SnapSQE decodes an SQE from a frozen 64-byte slot snapshot. The
// fields cannot change after decoding (single fetch), but every one of
// them is still producer-chosen and must be validated like any other
// cross-boundary input.
//
//rakis:untrusted
//rakis:snapshot
func SnapSQE(s mem.Snap) SQE { return GetSQE(s) }

// SnapCQE decodes a CQE from a frozen 16-byte slot snapshot: the
// UserData the outstanding-request lookup matches and the Res the
// plausibility check certifies are the same bytes the result map then
// stores, no matter what the host does to the live slot in between.
//
//rakis:untrusted
//rakis:snapshot
func SnapCQE(s mem.Snap) CQE { return GetCQE(s) }

func le32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func le64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
func ld32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func ld64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Setup is what the untrusted initialization hands the enclave.
type Setup struct {
	FD        int
	SubBase   mem.Addr
	ComplBase mem.Addr
}

// Config is the FM's trusted configuration for one io_uring.
type Config struct {
	Space    *mem.Space
	Setup    Setup
	Entries  uint32 // trusted ring size
	Counters *vtime.Counters
	Model    *vtime.Model
	// Waker is the escalation path for stalled completions; the zero
	// value disables escalation.
	Waker Waker
}

// Waker is the lost-wakeup recovery ladder: how an enclave thread
// escalates when work it published provably sits unconsumed (§4.3: the
// Monitor Module is availability-critical but untrusted; losing its
// wakeups must cost throughput, not correctness). It is the one
// nudge/kick state machine, behind Ring.Wait, the submit ladder
// (Escalate), the API submodule's poll aggregation and the XSK pump.
//
// The ladder has two rungs: Nudge rings a shared-memory doorbell asking
// the MM to re-issue wakeup syscalls — exit-free, so a spurious nudge is
// harmless. Kick issues the wakeup syscall directly from the enclave
// thread — a paid enclave exit, used only when nudging has not helped or
// the MM is known dead.
type Waker struct {
	// Nudge requests an immediate forced MM sweep. May be nil.
	Nudge func()
	// Kick issues the wakeup syscall directly (one enclave exit). May be
	// nil.
	Kick func()
	// Dead reports whether the MM has terminated, in which case the
	// nudge rung is skipped entirely. May be nil.
	Dead func() bool
	// Bell rings the MM's doorbell after every iSub publish, so the
	// monitor sweeps now rather than at its fallback period. Exit-free,
	// and not a rung: the ladder recovers a ring the host ignores. May be
	// nil.
	Bell func()

	ladder
}

// ladder is where one stall stands on the Waker's rungs. Times are wall
// time since the stall was first stepped, as the waiter measures it.
type ladder struct {
	armed                      bool
	seen, base                 time.Duration // last elapsed stepped; time banked from earlier waits
	nudgeDue, kickDue, backoff time.Duration
}

// Ladder timing. Nudges are exit-free, so the first fires early and they
// repeat with doubling backoff; Kick pays an enclave exit and waits far
// past the kernel worker's own periodic scan so clean runs never pay it.
const (
	nudgeAfter = 2 * time.Millisecond
	kickAfter  = 250 * time.Millisecond
)

// Step climbs the ladder for a stall the caller has now watched for
// elapsed: the first nudge once it is nudgeAfter old, then nudges with
// doubling backoff, a kick at kickAfter and every kickAfter after; with
// the MM dead every step kicks at once. It reports whether a rung fired
// (the caller counts the retry). The waiter's clock restarting — a new
// wait on the same stall — continues the ladder rather than rewinding it.
func (w *Waker) Step(elapsed time.Duration) bool {
	if elapsed < w.seen {
		w.base += w.seen
	}
	w.seen = elapsed
	t := w.base + elapsed
	if !w.armed {
		w.armed, w.backoff = true, nudgeAfter
		w.nudgeDue, w.kickDue = t+nudgeAfter, t+kickAfter
	}
	dead := w.Dead != nil && w.Dead()
	switch {
	case dead || t >= w.kickDue:
		w.kickDue = t + kickAfter
		return w.fire(true)
	case t >= w.nudgeDue:
		w.backoff *= 2
		w.nudgeDue = t + w.backoff
		return w.fire(false)
	}
	return false
}

// Reset takes the ladder back to the ground: nothing is pending any
// more, so the next stall starts from its first rung.
func (w *Waker) Reset() { w.ladder = ladder{} }

// Escalate fires one rung now, whatever the time: the free nudge while
// the Monitor Module lives, the paid kick once it is dead.
func (w *Waker) Escalate() bool { return w.fire(w.Dead != nil && w.Dead()) }

func (w *Waker) fire(kick bool) bool {
	f := w.Nudge
	if kick {
		f = w.Kick
	}
	if f != nil {
		f()
	}
	return f != nil
}

// Errors returned by the FM.
var (
	// ErrSetup reports failed initialization validation.
	ErrSetup = errors.New("iouring: untrusted setup rejected")
	// ErrFull reports a full submission ring.
	ErrFull = errors.New("iouring: submission ring full")
	// EPERM is surfaced when a completion fails validation (Table 2
	// fail action: return -EPERM).
	EPERM = errors.New("iouring: completion refused (-EPERM)")
	// ErrTimeout reports a completion that never arrived (availability
	// failure; the host controls liveness, never integrity).
	ErrTimeout = errors.New("iouring: completion wait timed out")
	// ErrBufferPlacement reports an SQE whose buffer range touches
	// enclave memory. Handing such a pointer to the host would let the
	// kernel-side copy exfiltrate or corrupt trusted memory — the
	// liburing flaw of §5 in the opposite direction.
	ErrBufferPlacement = errors.New("iouring: SQE buffer must not reference enclave memory")
)

// Ring is the FM's trusted handle on one io_uring instance. Each user
// thread owns its own Ring (§4.1: per-thread FMs avoid contention), so
// methods need no internal locking.
type Ring struct {
	Sub   *ring.Ring
	Compl *ring.Ring

	fd       int
	space    *mem.Space
	model    *vtime.Model
	counters *vtime.Counters
	trace    *telemetry.Buf
	waker    Waker

	// wedged is set after a Wait exhausts the full timeout: the kernel
	// side is presumed dead (a killed SQ worker never recovers), so
	// later Waits fail fast instead of paying the full timeout per
	// operation. A completion that does arrive clears it.
	wedged bool

	nextToken   uint64
	outstanding map[uint64]SQE // trusted copies of submitted requests
	results     map[uint64]result
	dropSet     map[uint64]bool // abandoned tokens awaiting disposal
}

// result is a validated completion parked until its requester asks.
type result struct {
	res   int32
	eperm bool
}

// Attach validates the untrusted setup and constructs the trusted handle.
func Attach(cfg Config) (*Ring, error) {
	if cfg.Model == nil {
		cfg.Model = vtime.Default()
	}
	if cfg.Setup.FD < 0 {
		return nil, fmt.Errorf("%w: fd %d", ErrSetup, cfg.Setup.FD)
	}
	subBytes := ring.TotalBytes(cfg.Entries, SQEBytes)
	complBytes := ring.TotalBytes(cfg.Entries, CQEBytes)
	if !cfg.Space.InUntrusted(cfg.Setup.SubBase, subBytes) {
		return nil, fmt.Errorf("%w: iSub not exclusively in untrusted memory", ErrSetup)
	}
	if !cfg.Space.InUntrusted(cfg.Setup.ComplBase, complBytes) {
		return nil, fmt.Errorf("%w: iCompl not exclusively in untrusted memory", ErrSetup)
	}
	if mem.Overlaps(cfg.Setup.SubBase, subBytes, cfg.Setup.ComplBase, complBytes) {
		return nil, fmt.Errorf("%w: iSub overlaps iCompl", ErrSetup)
	}
	r := &Ring{
		fd: cfg.Setup.FD, space: cfg.Space, model: cfg.Model,
		counters:    cfg.Counters,
		waker:       cfg.Waker,
		outstanding: make(map[uint64]SQE),
		results:     make(map[uint64]result),
	}
	var err error
	r.Sub, err = ring.New(ring.Config{
		Space: cfg.Space, Access: mem.RoleEnclave, Base: cfg.Setup.SubBase,
		Size: cfg.Entries, EntrySize: SQEBytes, Side: ring.Producer,
		Certified: true, Counters: cfg.Counters,
	})
	if err != nil {
		return nil, err
	}
	r.Compl, err = ring.New(ring.Config{
		Space: cfg.Space, Access: mem.RoleEnclave, Base: cfg.Setup.ComplBase,
		Size: cfg.Entries, EntrySize: CQEBytes, Side: ring.Consumer,
		Certified: true, Counters: cfg.Counters,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// FD returns the ring's file descriptor (used by the Monitor Module).
func (r *Ring) FD() int { return r.fd }

// SetTrace attaches the owning thread's trace ring; ring traffic,
// completions, and refusals are recorded on it. A nil buf disables.
func (r *Ring) SetTrace(b *telemetry.Buf) { r.trace = b }

// Counters returns the ring's counter sink (shared with the FM layer).
func (r *Ring) Counters() *vtime.Counters { return r.counters }

// Waker returns the ring's lost-wakeup ladder, for the callers that wait
// on the ring without Wait: the submit ladder escalates on every rung
// and the poll aggregation steps it while its polls stay quiet.
func (r *Ring) Waker() *Waker { return &r.waker }

// placed rejects a run in which any SQE's buffer range touches enclave
// memory. The host kernel is about to dereference those ranges, so RAKIS
// only ever points SQEs at bounce buffers in shared memory (§4.1).
//
//rakis:validator
func (r *Ring) placed(es []SQE) error {
	for _, e := range es {
		if e.Len > 0 && r.space.IntersectsTrusted(e.Addr, uint64(e.Len)) {
			return fmt.Errorf("%w: [%#x,+%d)", ErrBufferPlacement, uint64(e.Addr), e.Len)
		}
	}
	return nil
}

// Submit places one request on iSub: SubmitN at width one, on stack
// arrays. The returned token identifies the request's completion. The
// Monitor Module notices the producer advance and issues io_uring_enter
// on the FM's behalf.
func (r *Ring) Submit(e SQE, clk *vtime.Clock) (uint64, error) {
	es, tok := [1]SQE{e}, [1]uint64{}
	if err := r.placed(es[:]); err != nil {
		return 0, err
	}
	_, err := r.submit(es[:], tok[:], clk)
	return tok[0], err
}

// SubmitN places up to len(es) requests on iSub as one run: every buffer
// placement is validated first, then one certified read of the free
// count sizes the batch and a single producer-index publish exposes all
// entries at once — so the Monitor Module sees one producer advance and
// the whole batch costs at most one io_uring_enter wakeup. Tokens for
// the submitted prefix land in tokens (len(tokens) >= len(es)), which
// the caller owns.
//
// Partial success follows sendmmsg conventions: it returns how many
// leading requests fit; the error is non-nil only when none did. The
// BatchCalls/BatchedMsgs counters are the vectored caller's to bump
// (UringFM.SubmitPollN): a scalar submission is not a batch call.
func (r *Ring) SubmitN(es []SQE, tokens []uint64, clk *vtime.Clock) (int, error) {
	if err := r.placed(es); err != nil {
		return 0, err
	}
	return r.submit(es, tokens, clk)
}

// submit is the one submission body, behind both exported entries (each
// validates buffer placement first, where the boundarycopy analyzer can
// see it): it sizes the run against the certified free count, writes the
// SQEs, records them as outstanding and publishes the producer index
// once.
func (r *Ring) submit(es []SQE, tokens []uint64, clk *vtime.Clock) (int, error) {
	free, _ := r.Sub.Free()
	if free == 0 {
		free = r.reconcileSub()
	}
	if free == 0 {
		return 0, ErrFull
	}
	if n := uint32(len(es)); free < n {
		es = es[:free]
	}
	n := 0
	for _, e := range es {
		slot, err := r.Sub.SlotBytes(uint32(n))
		if err != nil {
			if n == 0 {
				return 0, err
			}
			break
		}
		r.nextToken++
		e.UserData = r.nextToken
		PutSQE(slot, e)
		r.outstanding[e.UserData] = e
		tokens[n] = e.UserData
		n++
		if r.counters != nil && e.Op == OpPollRemove {
			r.counters.PollCancels.Add(1)
		}
	}
	clk.Charge(vtime.CompRing, r.model.RingOp)
	r.Sub.Submit(uint32(n), clk.Now())
	if r.waker.Bell != nil {
		r.waker.Bell()
	}
	r.trace.Emit(telemetry.EvRingProduce, clk.Now(), telemetry.RingUringSub, uint64(n))
	if r.counters != nil {
		r.counters.IoUringOps.Add(uint64(n))
	}
	return n, nil
}

// reconcileSub recovers a submission ring stuck behind a scribbled
// consumer cell. When every request the FM ever submitted has either a
// validated completion already consumed or a completion still parked in
// results, the kernel provably consumed every SQE — certified CQEs only
// exist for consumed SQEs — so cons == prod can be re-derived from
// trusted state alone and published over the hostile cell. Returns the
// post-resync free count.
func (r *Ring) reconcileSub() uint32 {
	if len(r.outstanding) != 0 || len(r.dropSet) != 0 {
		return 0
	}
	if err := r.Sub.ResyncPeer(r.Sub.Local()); err != nil {
		return 0
	}
	free, _ := r.Sub.Free()
	return free
}

// resPlausible applies the per-op result validation of Table 2.
//
//rakis:validator
func resPlausible(req SQE, res int32) bool {
	if res < 0 {
		// Errors are always a plausible outcome.
		return res > -4096
	}
	switch req.Op {
	case OpRead, OpRecv, OpWrite, OpSend:
		return uint32(res) <= req.Len
	case OpPollAdd:
		// Result is a revents mask; only requested events may fire,
		// plus error/hangup which the kernel may always report.
		return uint32(res)&^(req.OpFlags|0x18) == 0
	case OpNop, OpFsync, OpPollRemove:
		return res == 0
	default:
		return false
	}
}

// Drain consumes every available completion, validating each against its
// outstanding request (Table 2). Foreign completions are refused and
// skipped; implausible results are parked as -EPERM for their requester.
//
// Reaping is coalesced: one certified read of the available count sizes
// a run, every entry in the run is validated in place, and a single
// consumer-index publish releases the whole run — per-entry validation
// with batched ring traffic. The outer loop re-reads availability in
// case the kernel produced more completions during the run.
func (r *Ring) Drain(clk *vtime.Clock) {
	for {
		avail, _ := r.Compl.Available()
		if avail == 0 {
			return
		}
		var frozen [CQEBytes]byte
		for i := uint32(0); i < avail; i++ {
			// Single fetch: the CQE is frozen into trusted storage before
			// the outstanding-request match and the plausibility check, so
			// a host rewriting the live slot mid-validation cannot swap a
			// certified result for a hostile one.
			snap, err := r.Compl.SnapSlotTo(frozen[:], i)
			if err != nil {
				continue
			}
			cqe := SnapCQE(snap)
			clk.Sync(r.Compl.SlotStamp(i))
			clk.Charge(vtime.CompValidate, r.model.RingOp)
			pending, known := r.outstanding[cqe.UserData]
			if !known {
				if r.dropSet[cqe.UserData] {
					// An abandoned request's completion: silently discard.
					delete(r.dropSet, cqe.UserData)
					continue
				}
				// A completion we never asked for: refuse and advance.
				if r.counters != nil {
					r.counters.CQEViolations.Add(1)
				}
				r.trace.Emit(telemetry.EvRingRefusal, clk.Now(), telemetry.RingUringCompl, cqe.UserData)
				continue
			}
			delete(r.outstanding, cqe.UserData)
			if !resPlausible(pending, cqe.Res) {
				// Status code impossible for the request: -EPERM.
				if r.counters != nil {
					r.counters.CQEViolations.Add(1)
				}
				r.trace.Emit(telemetry.EvRingRefusal, clk.Now(), telemetry.RingUringCompl, uint64(uint32(cqe.Res)))
				r.results[cqe.UserData] = result{eperm: true}
				continue
			}
			r.trace.Emit(telemetry.EvCQEComplete, clk.Now(), cqe.UserData, uint64(uint32(cqe.Res)))
			r.results[cqe.UserData] = result{res: cqe.Res}
		}
		r.Compl.Release(avail)
	}
}

// TryWait reports whether token's completion has arrived, without
// blocking. The boolean is false while the request is still in flight.
func (r *Ring) TryWait(token uint64, clk *vtime.Clock) (int32, bool, error) {
	r.Drain(clk)
	res, ok := r.results[token]
	if !ok {
		if _, inFlight := r.outstanding[token]; !inFlight {
			return 0, true, fmt.Errorf("iouring: unknown token %d", token)
		}
		return 0, false, nil
	}
	delete(r.results, token)
	if res.eperm {
		return 0, true, EPERM
	}
	return res.res, true, nil
}

// Forget abandons an in-flight request (e.g. a poll that lost the race
// in the API submodule's aggregation, §4.2); its eventual completion is
// silently discarded by a later Drain instead of counting as hostile.
func (r *Ring) Forget(token uint64) {
	if _, ok := r.outstanding[token]; ok {
		delete(r.outstanding, token)
		if r.dropSet == nil {
			r.dropSet = make(map[uint64]bool)
		}
		r.dropSet[token] = true
	}
	delete(r.results, token)
}

// ResPlausibleForTest exposes the Table 2 result validator to the
// Testing Module, which checks it exhaustively against an independent
// oracle (§5.1).
func ResPlausibleForTest(req SQE, res int32) bool { return resPlausible(req, res) }

// The completion-wait bounds: waitTimeout for one completion, after
// which the kernel side is presumed dead (availability failure; the host
// controls liveness, never integrity) and later Waits give up after
// wedgedTimeout. Wait yields for its first passes, then sleeps.
const (
	waitTimeout   = 10 * time.Second
	wedgedTimeout = 100 * time.Millisecond
)

var waitPark = vtime.Park{Spins: 64, Yield: true, Quantum: 20 * time.Microsecond}

// Wait blocks until the completion for token arrives, validates it, and
// returns its result (the SyncProxy path: the user expects synchronous
// semantics, §4.2).
//
// If the completion stalls while SQEs provably sit unconsumed in iSub —
// the signature of a lost wakeup — Wait climbs the Waker ladder: repeated
// exit-free nudges to the Monitor Module with doubling backoff, then a
// paid direct kick, immediately skipping to the kick rung when the MM is
// known dead. A completion that never arrives within the wait timeout
// surfaces as ErrTimeout: the host can always withhold service, but only
// at an availability cost (§4.3).
func (r *Ring) Wait(token uint64, clk *vtime.Clock) (res int32, err error) {
	limit := waitTimeout
	if r.wedged {
		limit = wedgedTimeout
	}
	r.waker.Reset()
	r.wedged = !vtime.Until(limit, waitPark, func(elapsed time.Duration) bool {
		var done bool
		if res, done, err = r.TryWait(token, clk); done {
			return true
		}
		if !r.unconsumedSub() {
			r.waker.Reset()
		} else if r.waker.Step(elapsed) && r.counters != nil {
			r.counters.WakeupRetries.Add(1)
		}
		return false
	})
	if r.wedged {
		delete(r.outstanding, token)
		return 0, ErrTimeout
	}
	return res, err
}

// unconsumedSub reports whether iSub entries the FM published are still
// unconsumed as far as trusted state can tell. A refused (scribbled)
// consumer cell keeps the last trusted value, which also reads as
// unconsumed — escalating is correct there too, since the sweep that
// follows costs nothing when no work is actually pending.
func (r *Ring) unconsumedSub() bool {
	free, _ := r.Sub.Free()
	return free < r.Sub.Size()
}

// Outstanding returns the number of in-flight requests (for tests).
func (r *Ring) Outstanding() int { return len(r.outstanding) }
