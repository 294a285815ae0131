// Package tuner is the self-tuning runtime's control loop: it closes the
// feedback path from the telemetry registry back onto the fast-path
// knobs the paper fixes at one operating point (§6.1: batch width b=32,
// need-wakeup MM signalling, 2K rings).
//
// Three knobs are tuned, each from trusted-side observations only:
//
//   - Vector width: the advised SendToN/RecvFromN batch ramps with the
//     RX queue depth the FM pumps observe through certified ring reads.
//     Deep backlogs double the width (amortizing API hooks and MM
//     wakeups); shallow ones halve it (a wide gather at trickle trades
//     latency for nothing).
//   - Wakeup mode: under load the Monitor Module's need-wakeup
//     signalling (one ~950-cycle syscall per TX edge, serialized on the
//     single MM thread) loses to a kernel busy-poll worker that drains
//     the rings continuously; at idle busy-poll burns the inter-arrival
//     gap as spin cycles. The classic interrupt-vs-poll trade switches
//     on queue depth with hysteresis and a dwell guard so it cannot
//     flap.
//   - Ring/UMem geometry: observed depth percentiles recommend the ring
//     size (headroom over p99) to apply at the next (re)configure.
//
// Trust argument: every input is a trusted-side counter — the depth
// histogram comes from certified ring reads inside the enclave, the
// occupancy counters from the API submodule, the drop and suppression
// gauges are advisory only. The host can starve or flood the data path
// (it always could) and thereby steer load-following, but the decision
// range is clamped to a fixed safe envelope, so the worst a hostile
// host achieves is wasted cycles — never an unsafe configuration. The
// tunerinput analyzer (internal/analysis) enforces the input discipline
// statically: this package may import only the telemetry registry and
// the standard library.
//
//rakis:role enclave
package tuner

import (
	"sync"
	"sync/atomic"

	"rakis/internal/telemetry"
)

// Mode is the wakeup strategy for the XSK data path.
type Mode int32

const (
	// ModeWakeup is need-wakeup signalling: the MM fires one syscall per
	// producer edge. Cheap at idle, serializing under load.
	ModeWakeup Mode = iota
	// ModeBusyPoll is the kernel busy-poll worker: rings drain
	// continuously with no per-edge syscall, burning spin cycles at
	// idle.
	ModeBusyPoll
)

// String names the mode as figures label it.
func (m Mode) String() string {
	if m == ModeBusyPoll {
		return "busypoll"
	}
	return "wakeup"
}

// Params bounds and paces the control loop. The bounds ARE the safety
// envelope: Step clamps every decision into them regardless of input.
type Params struct {
	// MinBatch and MaxBatch bound the advised vector width (powers of
	// two).
	MinBatch, MaxBatch int
	// DownGuard is how many consecutive shallow windows precede a
	// width halving (a single quiet tick inside a burst must not
	// collapse the batch).
	DownGuard int
	// PollOn and PollOff are the median queue-depth thresholds for
	// switching to and from busy-poll. PollOff < PollOn is the
	// hysteresis band.
	PollOn, PollOff uint64
	// Guard is the dwell: the minimum number of steps between two mode
	// switches. Within it the mode holds whatever the signal does.
	Guard int
	// IdleGuard is how many consecutive empty heartbeat windows make the
	// loop believe the system is idle and start decaying toward the
	// quiet operating point. It is deliberately longer than Guard: a
	// paced source's inter-chunk sleep can overshoot by several
	// heartbeat periods under a coarse timer, and a decay triggered by
	// that gap knocks the loop out of its settled point mid-burst.
	IdleGuard int
	// MinRing and MaxRing bound the recommended ring size.
	MinRing, MaxRing uint32
	// Headroom multiplies the observed p99 depth when recommending the
	// ring size: the ring must absorb the above-p99 tail plus the
	// refill latency between pump passes, so the margin is generous.
	Headroom uint32
	// FramesPerSlot sizes the UMem recommendation as a multiple of the
	// recommended ring.
	FramesPerSlot uint32
}

// DefaultParams returns the calibrated control-loop defaults.
func DefaultParams() Params {
	return Params{
		MinBatch: 1, MaxBatch: 32,
		DownGuard: 2,
		PollOn:    8, PollOff: 2,
		Guard:     4,
		IdleGuard: 8,
		MinRing:   256, MaxRing: 4096,
		Headroom:      8,
		FramesPerSlot: 4,
	}
}

func (p *Params) fill() {
	d := DefaultParams()
	if p.MinBatch <= 0 {
		p.MinBatch = d.MinBatch
	}
	if p.MaxBatch <= 0 {
		p.MaxBatch = d.MaxBatch
	}
	if p.DownGuard <= 0 {
		p.DownGuard = d.DownGuard
	}
	if p.PollOn == 0 {
		p.PollOn = d.PollOn
	}
	if p.PollOff == 0 || p.PollOff >= p.PollOn {
		p.PollOff = p.PollOn / 4
		if p.PollOff == 0 {
			p.PollOff = 1
		}
	}
	if p.Guard <= 0 {
		p.Guard = d.Guard
	}
	if p.IdleGuard <= 0 {
		p.IdleGuard = d.IdleGuard
	}
	if p.MinRing == 0 {
		p.MinRing = d.MinRing
	}
	if p.MaxRing < p.MinRing {
		p.MaxRing = d.MaxRing
	}
	if p.Headroom == 0 {
		p.Headroom = d.Headroom
	}
	if p.FramesPerSlot == 0 {
		p.FramesPerSlot = d.FramesPerSlot
	}
}

// Input is one observation window: counter deltas since the previous
// Step plus the queue-depth histogram the FM pumps filled over the
// window. Every field originates on the trusted side.
type Input struct {
	// Ops is the delta of datagrams the enclave stack moved (rx+tx).
	Ops uint64
	// BatchCalls and BatchedMsgs are the vectored-call deltas; their
	// ratio is the realized occupancy of the advised width.
	BatchCalls, BatchedMsgs uint64
	// Suppressed is the delta of MM wakeups avoided (per-shard
	// suppression counters summed) — advisory.
	Suppressed uint64
	// Drops is the delta of kernel-observed frame drops — advisory, it
	// feeds only the (clamped) geometry recommendation.
	Drops uint64
	// Depth is the window's RX queue-depth histogram: the backlog each
	// active pump pass found via a certified ring read.
	Depth telemetry.HistSnapshot
}

// Decision is one applied operating point.
type Decision struct {
	// Batch is the advised vector width.
	Batch int
	// Mode is the wakeup strategy.
	Mode Mode
	// Ring and Frames are the geometry recommendation current at this
	// step (applied at the next reconfigure, not live).
	Ring, Frames uint32
}

// Stats is the loop's own accounting, exported for the chaos harness
// and the registry.
type Stats struct {
	// Steps is the number of Step calls with a non-idle window.
	Steps uint64
	// BatchUps and BatchDowns count width ramps.
	BatchUps, BatchDowns uint64
	// ModeSwitches counts wakeup<->busy-poll transitions.
	ModeSwitches uint64
	// Clamps counts raw decisions the envelope had to pull back in —
	// benign by construction, but a spike means the inputs are being
	// steered.
	Clamps uint64
	// EnvelopeViolations counts applied decisions outside the safety
	// envelope. Always zero: the chaos suite asserts it.
	EnvelopeViolations uint64
	// MinSwitchGap is the smallest observed step distance between two
	// mode switches (^uint64(0) until a second switch happens). The
	// no-flap property is MinSwitchGap >= Guard.
	MinSwitchGap uint64
}

// State is the shared cell the data path reads: the API submodule asks
// it for the advised width, the FM pumps for their drain cap, the MM
// and the link for the wakeup mode. Writers go through the Tuner (or a
// static configuration at boot); readers are lock-free.
type State struct {
	batch    atomic.Int32
	busyPoll atomic.Bool
}

// NewState returns a state cell pinned at a static operating point
// (batch width, wakeup mode) until a Tuner takes it over.
func NewState(batch int, busyPoll bool) *State {
	s := &State{}
	if batch < 1 {
		batch = 1
	}
	s.batch.Store(int32(batch))
	s.busyPoll.Store(busyPoll)
	return s
}

// Batch returns the currently advised vector width (>= 1). Nil-safe.
func (s *State) Batch() int {
	if s == nil {
		return 1
	}
	if b := s.batch.Load(); b > 0 {
		return int(b)
	}
	return 1
}

// BusyPoll reports whether the busy-poll mode is in effect. Nil-safe.
func (s *State) BusyPoll() bool {
	return s != nil && s.busyPoll.Load()
}

// historyMax bounds the retained decision trail.
const historyMax = 1024

// Tuner runs the control loop. Step is called by a single goroutine;
// the published State is safe for concurrent readers.
type Tuner struct {
	p     Params
	state *State

	mu          sync.Mutex
	cur         Decision
	stats       Stats
	sinceSwitch uint64
	lowStreak   int
	idleStreak  int
	depthTotal  telemetry.HistSnapshot
	history     []Decision
}

// New builds a tuner publishing into the given state cell (a fresh one
// when nil) starting from the minimal operating point.
func New(p Params, state *State) *Tuner {
	p.fill()
	if state == nil {
		state = NewState(p.MinBatch, false)
	}
	t := &Tuner{p: p, state: state}
	t.cur = Decision{
		Batch:  p.MinBatch,
		Mode:   ModeWakeup,
		Ring:   p.MinRing,
		Frames: p.MinRing * p.FramesPerSlot,
	}
	t.cur = t.clamp(t.cur)
	t.state.batch.Store(int32(t.cur.Batch))
	t.state.busyPoll.Store(t.cur.Mode == ModeBusyPoll)
	t.sinceSwitch = uint64(p.Guard) // allow an immediate first switch
	return t
}

// State returns the published shared cell.
func (t *Tuner) State() *State { return t.state }

// Params returns the loop parameters (after defaulting).
func (t *Tuner) Params() Params { return t.p }

// ceilPow2 rounds up to a power of two (min 1).
func ceilPow2(v uint32) uint32 {
	if v == 0 {
		return 1
	}
	v--
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	v |= v >> 16
	return v + 1
}

// clamp pulls a raw decision into the safety envelope, counting every
// correction.
func (t *Tuner) clamp(d Decision) Decision {
	orig := d
	if d.Batch < t.p.MinBatch {
		d.Batch = t.p.MinBatch
	}
	if d.Batch > t.p.MaxBatch {
		d.Batch = t.p.MaxBatch
	}
	d.Batch = int(ceilPow2(uint32(d.Batch)))
	if d.Batch > t.p.MaxBatch {
		d.Batch = t.p.MaxBatch
	}
	if d.Mode != ModeWakeup && d.Mode != ModeBusyPoll {
		d.Mode = ModeWakeup
	}
	d.Ring = ceilPow2(d.Ring)
	if d.Ring < t.p.MinRing {
		d.Ring = t.p.MinRing
	}
	if d.Ring > t.p.MaxRing {
		d.Ring = t.p.MaxRing
	}
	d.Frames = d.Ring * t.p.FramesPerSlot
	if d != orig {
		t.stats.Clamps++
	}
	return d
}

// InEnvelope reports whether a decision lies inside the safety envelope
// of the tuner's parameters.
func (t *Tuner) InEnvelope(d Decision) bool {
	return d.Batch >= t.p.MinBatch && d.Batch <= t.p.MaxBatch &&
		d.Batch&(d.Batch-1) == 0 &&
		(d.Mode == ModeWakeup || d.Mode == ModeBusyPoll) &&
		d.Ring >= t.p.MinRing && d.Ring <= t.p.MaxRing &&
		d.Ring&(d.Ring-1) == 0 &&
		d.Frames == d.Ring*t.p.FramesPerSlot
}

// depthCap bounds the believed median depth: anything above it is
// treated as saturation, so absurd inputs cannot push internal state
// around faster than the envelope allows.
const depthCap = 1 << 20

// Step consumes one observation window and returns the (clamped)
// decision now in effect. An idle window (no ops, no depth samples)
// holds the knobs but decays toward the quiet operating point.
func (t *Tuner) Step(in Input) Decision {
	t.mu.Lock()
	defer t.mu.Unlock()

	idle := in.Ops == 0 && in.Depth.Count == 0
	if idle {
		// Decay: an idle system wants narrow batches and no spinning.
		// But a single quiet tick is not idleness — a paced source
		// sleeps between sub-bursts, and a heartbeat tick landing in
		// such a gap sees zero ops; under a coarse timer one intended
		// sub-millisecond sleep can swallow several consecutive
		// heartbeats. Decaying on such a run knocks the loop out of its
		// settled operating point mid-burst (narrow, fall behind, ramp
		// again: a limit cycle driven by the prober, not the load), so
		// decay waits for an idle run longer than any pacing gap.
		// Loaded quiet windows are unaffected: they carry their own
		// depth evidence and go through the banded path below.
		t.sinceSwitch++
		t.idleStreak++
		if t.idleStreak < t.p.IdleGuard {
			return t.cur
		}
		t.lowStreak++
		d := t.cur
		if t.lowStreak >= t.p.DownGuard && d.Batch > t.p.MinBatch {
			d.Batch /= 2
			t.stats.BatchDowns++
			t.lowStreak = 0
		}
		if d.Mode == ModeBusyPoll && t.sinceSwitch >= uint64(t.p.Guard) {
			d.Mode = ModeWakeup
			t.recordSwitch()
		}
		t.apply(d)
		return t.cur
	}
	t.stats.Steps++
	t.sinceSwitch++
	t.idleStreak = 0

	t.depthTotal = t.depthTotal.Merge(in.Depth)
	p50 := in.Depth.Quantile(0.5)
	if p50 > depthCap {
		p50 = depthCap
	}
	d := t.cur

	// Knob 1: vector width follows the backlog, holding inside the
	// hysteresis band (batch/2, 2*batch). Under a saturating burst the
	// standing backlog keeps the reading at or above the width and the
	// loop rides at the widest gather, which is right: with a queue to
	// drain, wide gathers fill instantly and only amortize. The signal
	// stays honest when the load thins because the data path's gather
	// flush budget caps how long a window coalesces — a trickle reads
	// as depth ~1 whatever the advised width, and the banded down path
	// pulls the width back in.
	//
	// Up-steps jump straight to the width the observed median justifies
	// (the smallest width whose band contains it) rather than doubling
	// once per window: at burst onset the queue the load builds while
	// the loop walks through intermediate widths would otherwise stand
	// for the rest of the phase — the service margin at full width
	// drains it only slowly — so the ramp transient, not the steady
	// state, is what decides the whole phase's latency. Down-steps stay
	// one notch behind DownGuard: a quiet window proves only one notch
	// of slack.
	switch {
	case p50 >= 2*uint64(d.Batch) && d.Batch < t.p.MaxBatch:
		for 2*uint64(d.Batch) <= p50 && d.Batch < t.p.MaxBatch {
			d.Batch *= 2
		}
		t.stats.BatchUps++
		t.lowStreak = 0
	case 2*p50 <= uint64(d.Batch):
		t.lowStreak++
		if t.lowStreak >= t.p.DownGuard && d.Batch > t.p.MinBatch {
			d.Batch /= 2
			t.stats.BatchDowns++
			t.lowStreak = 0
		}
	default:
		t.lowStreak = 0
	}

	// Knob 2: interrupt-vs-poll with hysteresis (PollOff < PollOn) and
	// a dwell guard so the mode cannot flap inside the guard window.
	// Leaving busy-poll additionally requires the window's gathers to
	// have run essentially scalar: busy-poll keeps the queue drained, so
	// under load the depth alone reads below PollOff exactly when the
	// mode is doing its job, and leaving on that reading parks the hot
	// path back on per-edge wakeups mid-burst. Gather occupancy
	// separates the two quiet regimes — a drained-but-hot window still
	// moves many datagrams per call, a genuine trickle moves one — and
	// unlike the width knob (where a filled gather is self-fulfilling at
	// any setting) occupancy is trustworthy here, because at trickle the
	// decayed width pins it to one.
	occScalar := in.BatchCalls == 0 || in.BatchedMsgs <= 3*in.BatchCalls
	if t.sinceSwitch >= uint64(t.p.Guard) {
		switch {
		case d.Mode == ModeWakeup && p50 >= t.p.PollOn:
			d.Mode = ModeBusyPoll
			t.recordSwitch()
		case d.Mode == ModeBusyPoll && p50 <= t.p.PollOff && occScalar:
			d.Mode = ModeWakeup
			t.recordSwitch()
		}
	}

	// Knob 3: geometry recommendation from the cumulative depth
	// percentiles (applied at reconfigure time, not live).
	p99 := t.depthTotal.Quantile(0.99)
	if p99 > depthCap {
		p99 = depthCap
	}
	want := uint64(t.p.Headroom) * p99
	if want > uint64(t.p.MaxRing) {
		want = uint64(t.p.MaxRing)
	}
	d.Ring = uint32(want)

	t.apply(d)
	return t.cur
}

// recordSwitch books one mode switch. Caller holds t.mu.
func (t *Tuner) recordSwitch() {
	t.stats.ModeSwitches++
	if t.stats.ModeSwitches > 1 && t.sinceSwitch < t.stats.MinSwitchGap {
		t.stats.MinSwitchGap = t.sinceSwitch
	}
	if t.stats.ModeSwitches == 1 {
		t.stats.MinSwitchGap = ^uint64(0)
	}
	t.sinceSwitch = 0
}

// apply clamps, publishes, and records a decision. Caller holds t.mu.
func (t *Tuner) apply(d Decision) {
	d = t.clamp(d)
	if !t.InEnvelope(d) {
		// Unreachable by construction; counted rather than trusted.
		t.stats.EnvelopeViolations++
		return
	}
	if d != t.cur {
		if len(t.history) < historyMax {
			t.history = append(t.history, d)
		}
	}
	t.cur = d
	t.state.batch.Store(int32(d.Batch))
	t.state.busyPoll.Store(d.Mode == ModeBusyPoll)
}

// Current returns the decision in effect.
func (t *Tuner) Current() Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// Stats returns a copy of the loop accounting.
func (t *Tuner) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// History returns the decision trail (bounded).
func (t *Tuner) History() []Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Decision(nil), t.history...)
}

// Recommend returns the geometry recommendation accumulated so far:
// ring size with headroom over the p99 observed depth, UMem frames as a
// fixed multiple. With no observations it returns the minimal envelope
// geometry.
func (t *Tuner) Recommend() Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}
