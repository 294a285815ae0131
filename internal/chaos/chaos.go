// Package chaos is the hostile-host fault-injection subsystem: a
// deterministic, seeded adversary that wraps the untrusted side of the
// simulation and exercises exactly the attack surface the paper's threat
// model grants the host (§3, Table 2).
//
// The injector is wired into the untrusted components via small hooks —
// the simulated kernel's io_uring and XSK workers (hostos), the Monitor
// Module loop (mm), and the NIC (netsim) — plus a scribbler goroutine
// that corrupts shared-memory ring control words and descriptors
// mid-run. Fault classes:
//
//   - ring control words: hostile index values drawn from the same
//     equivalence-class table the Testing Module verifies against
//     (tm.AdversaryClasses), bit-flips, and stale replays;
//   - ring flags words and unpublished descriptor slots;
//   - wakeup syscalls dropped, delayed, or duplicated; kernel-side CQE
//     postings forged, duplicated, or result-corrupted
//     (tm.ResultClasses);
//   - kernel workers and the MM thread stalled or killed outright;
//
// Every decision comes from a single seeded stream, so a failing run is
// reproducible by replaying its printed seed (statistically: goroutine
// interleaving still varies, but the fault pattern per site does not).
//
// The injector is host-role code: it may only ever touch untrusted
// memory, with the same mem.RoleHost access checks the kernel itself is
// subject to — the chaos suite asserts the trusted segment stayed
// untouched even while the injector was scribbling.
//
//rakis:role host
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/telemetry"
	"rakis/internal/tm"
	"rakis/internal/vtime"
)

// Site identifies one fault-injection point.
type Site int

// The fault sites, grouped by the hook layer that consults them.
const (
	// Scribbler sites (shared-memory corruption).
	SiteRingCtrl Site = iota
	SiteRingData
	SiteRingFlags
	// Wakeup-syscall sites (hostos XSK/io_uring entry points).
	SiteWakeDrop
	SiteWakeDelay
	SiteWakeDup
	// Completion sites (hostos io_uring worker).
	SiteCQEForge
	SiteCQEDup
	SiteCQERes
	// Kernel worker sites.
	SiteWorkerStall
	SiteWorkerKill
	SiteSoftirqStall
	// Monitor Module sites.
	SiteMMStall
	SiteMMKill
	// NIC sites (netsim).
	SiteNetDrop
	SiteNetCorrupt
	SiteNetDup
	siteMax
)

var siteNames = [...]string{
	"ring-ctrl", "ring-data", "ring-flags",
	"wake-drop", "wake-delay", "wake-dup",
	"cqe-forge", "cqe-dup", "cqe-res",
	"worker-stall", "worker-kill", "softirq-stall",
	"mm-stall", "mm-kill",
	"net-drop", "net-corrupt", "net-dup",
}

// String returns the site name.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", int(s))
}

// ForgedUserDataBase is the low end of the token range forged CQEs use.
// FM tokens count up from 1; keeping forgeries far above any reachable
// token means a forged completion can never collide with an in-flight
// request and "complete" it with attacker data — the forgery must be
// refused as unknown, which is the behaviour under test.
const ForgedUserDataBase = uint64(1) << 48

// RingRegion describes one shared ring the scribbler may attack.
type RingRegion struct {
	// Name labels the ring in diagnostics (e.g. "xsk0-rx", "uring5-compl").
	Name string
	// Base is the ring's base address (header at +0).
	Base mem.Addr
	// Size is the entry count (power of two).
	Size uint32
	// EntrySize is bytes per entry.
	EntrySize uint32
	// KernelSide is the index the kernel owns — the cell the enclave
	// reads through certification, and therefore the scribble target.
	// The enclave-owned cell is never scribbled: the kernel trusts it
	// raw, and a host corrupting its own input models nothing.
	KernelSide ring.Side
	// Flags marks rings whose flags word is kernel-written (the fill
	// ring's need-wakeup bit) and may be scribbled too.
	Flags bool
}

// Profile is one named fault mix. Probabilities are per hook
// consultation; zero (or absence) disables a site.
type Profile struct {
	// Name identifies the profile (rakis-chaos -profile).
	Name string
	// Prob holds the per-site fault probabilities.
	Prob map[Site]float64
	// ScribbleEvery is the scribbler period; zero disables the
	// scribbler goroutine.
	ScribbleEvery time.Duration
	// DelayMax bounds injected wakeup delays.
	DelayMax time.Duration
	// StallMax bounds injected worker/MM stalls.
	StallMax time.Duration
	// MMKillAfter kills the Monitor Module once, this long after
	// Start; zero keeps it alive.
	MMKillAfter time.Duration
	// DisableKernelScan turns off the io_uring worker's periodic
	// safety-net scan so lost wakeups actually stall (otherwise the
	// scan masks them within milliseconds).
	DisableKernelScan bool
	// TargetOneXSK restricts the scribbler to the rings of a single XSK:
	// the last-registered one, i.e. the highest queue. Queue 0 is never
	// the target because ARP and other unbound traffic ride it — killing
	// it would sever steering for every shard instead of exactly one.
	// Combined with ScribbleBeyondOwner this models a host that denies
	// service on one queue of a sharded runtime; the quarantine scenario
	// asserts the damage stays confined to that shard's flows.
	TargetOneXSK bool
	// ScribbleBeyondOwner lets the control-word scribbler forge index
	// values ahead of the owner's true position. Such values pass
	// certification — they are indistinguishable from genuine progress —
	// and permanently desync the ring: the consumer eats entries that
	// were never published and ends up ahead of the producer's truth,
	// which no trusted-side defence can repair. That is a pure
	// availability attack (Table 2 promises safety, not liveness), so
	// only termination-only profiles may enable it.
	ScribbleBeyondOwner bool
	// Adaptive arms the self-tuning runtime in this profile's worlds.
	// The property under test: a hostile host steering the tuner's
	// load-following inputs (scribbled rings, dropped wakeups) can waste
	// cycles but can never push an applied decision outside the safety
	// envelope or make the wakeup mode flap inside its dwell guard.
	Adaptive bool
	// RequireCompletion says whether the chaos suite must see every
	// workload complete successfully under this profile, or merely
	// terminate cleanly (no panic, no breach, no hang).
	RequireCompletion bool
	// ExpectCounters names vtime.Snapshot fields the suite asserts
	// nonzero across the profile's whole workload sweep.
	ExpectCounters []string
}

// Injector is the seeded fault source. A nil *Injector is a valid
// "chaos off" injector: every hook method is nil-receiver-safe and
// reports no fault, so the hooks cost one predictable branch when chaos
// is disabled.
type Injector struct {
	profile  Profile
	seed     uint64
	space    *mem.Space
	counters *vtime.Counters

	mu  sync.Mutex
	rng *rand.Rand

	// trace, when non-nil, records each injected fault. Fault hooks run
	// on host threads with no virtual clock in scope, so fault events
	// carry a zero stamp; the site is the payload.
	trace *telemetry.Buf

	counts [siteMax]atomic.Uint64

	start    time.Time
	mmKilled atomic.Bool

	regionMu sync.Mutex
	regions  []RingRegion

	stop chan struct{}
	done chan struct{}
}

// New builds an injector for the given profile and seed. space is the
// shared address space the scribbler attacks (host role only); counters
// receives FaultsInjected.
func New(p Profile, seed uint64, space *mem.Space, counters *vtime.Counters) *Injector {
	return &Injector{
		profile:  p,
		seed:     seed,
		space:    space,
		counters: counters,
		rng:      rand.New(rand.NewSource(int64(seed))),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Bind attaches the injector to an address space and counters sink after
// construction — the world that owns them is usually built later than
// the injector. Nil arguments leave the current binding in place.
func (in *Injector) Bind(space *mem.Space, counters *vtime.Counters) {
	if in == nil {
		return
	}
	if space != nil {
		in.space = space
	}
	if counters != nil {
		in.counters = counters
	}
}

// SetTrace routes fault events to the given trace buffer. Call before
// Start.
func (in *Injector) SetTrace(b *telemetry.Buf) {
	if in == nil {
		return
	}
	in.trace = b
}

// Seed returns the replay seed.
func (in *Injector) Seed() uint64 { return in.seed }

// KernelScanDisabled reports whether the kernel worker's periodic
// safety-net scan should be suppressed for this run.
func (in *Injector) KernelScanDisabled() bool {
	return in != nil && in.profile.DisableKernelScan
}

// RegisterRing makes a shared ring available to the scribbler. The
// untrusted setup paths in hostos call this as they allocate rings.
func (in *Injector) RegisterRing(rg RingRegion) {
	if in == nil {
		return
	}
	in.regionMu.Lock()
	in.regions = append(in.regions, rg)
	in.regionMu.Unlock()
}

// Start records the run origin and launches the scribbler goroutine if
// the profile asks for one.
func (in *Injector) Start() {
	if in == nil {
		return
	}
	// Hook goroutines (the MM loop) may already be consulting MMKillNow:
	// the start stamp is mutex-published, and a zero stamp means "not
	// armed yet".
	in.mu.Lock()
	in.start = time.Now()
	in.mu.Unlock()
	if in.profile.ScribbleEvery > 0 {
		go in.scribbler()
	} else {
		close(in.done)
	}
}

// Stop terminates the scribbler and waits for it.
func (in *Injector) Stop() {
	if in == nil {
		return
	}
	select {
	case <-in.stop:
	default:
		close(in.stop)
	}
	<-in.done
}

// Counts returns the per-site injection counts.
func (in *Injector) Counts() map[string]uint64 {
	out := make(map[string]uint64, int(siteMax))
	if in == nil {
		return out
	}
	for s := Site(0); s < siteMax; s++ {
		if n := in.counts[s].Load(); n > 0 {
			out[s.String()] = n
		}
	}
	return out
}

// hit records one injected fault at site.
func (in *Injector) hit(s Site) {
	in.counts[s].Add(1)
	if in.counters != nil {
		in.counters.FaultsInjected.Add(1)
	}
	in.trace.Emit(telemetry.EvChaosFault, 0, uint64(s), 0)
}

// roll decides whether site fires this consultation.
func (in *Injector) roll(s Site) bool {
	if in == nil {
		return false
	}
	p := in.profile.Prob[s]
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	ok := in.rng.Float64() < p
	in.mu.Unlock()
	if ok {
		in.hit(s)
	}
	return ok
}

// randN returns a deterministic value in [0, n).
func (in *Injector) randN(n int64) int64 {
	in.mu.Lock()
	v := in.rng.Int63n(n)
	in.mu.Unlock()
	return v
}

// --- wakeup-syscall hooks (hostos) ---

// WakeDrop reports whether this wakeup syscall should be swallowed.
func (in *Injector) WakeDrop() bool { return in.roll(SiteWakeDrop) }

// WakeDup reports whether this wakeup should be delivered twice.
func (in *Injector) WakeDup() bool { return in.roll(SiteWakeDup) }

// --- completion hooks (hostos io_uring worker) ---

// CQEForge returns a completion for a request the enclave never made.
func (in *Injector) CQEForge() (userData uint64, res int32, ok bool) {
	if !in.roll(SiteCQEForge) {
		return 0, 0, false
	}
	return ForgedUserDataBase | uint64(in.randN(1<<20)), int32(in.randN(1 << 16)), true
}

// CQEDup reports whether the CQE just posted should be posted again.
func (in *Injector) CQEDup() bool { return in.roll(SiteCQEDup) }

// CQERes replaces a genuine completion's result with a hostile value
// drawn from the shared tm.ResultClasses table (the host returning
// arbitrary errno/short-count results, Table 2 "IO operations status
// codes").
func (in *Injector) CQERes(reqLen uint32) (int32, bool) {
	if !in.roll(SiteCQERes) {
		return 0, false
	}
	classes := tm.ResultClasses(reqLen)
	return classes[in.randN(int64(len(classes)))], true
}

// --- stalls and delays ---

// Span is how long one injected stall or delay lasts; zero is none.
type Span time.Duration

// Stall consults a stall or delay site — SiteWakeDelay (bounded by the
// profile's DelayMax), SiteWorkerStall, SiteSoftirqStall or SiteMMStall
// (bounded by StallMax) — and returns the span it drew: zero when the
// site did not fire or its bound is zero.
func (in *Injector) Stall(s Site) Span {
	if !in.roll(s) {
		return 0
	}
	bound := in.profile.StallMax
	if s == SiteWakeDelay {
		bound = in.profile.DelayMax
	}
	if bound <= 0 {
		return 0
	}
	return Span(in.randN(int64(bound)))
}

// Sleep performs the span: the faulted thread is frozen for its length.
// A zero span, every call with chaos off, returns without a runtime call.
func (d Span) Sleep() {
	if d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// --- kernel worker hooks ---

// WorkerKill reports whether the io_uring worker should terminate.
func (in *Injector) WorkerKill() bool { return in.roll(SiteWorkerKill) }

// --- Monitor Module hooks ---

// MMKillNow reports, exactly once, that the MM should die (profile's
// MMKillAfter elapsed).
func (in *Injector) MMKillNow() bool {
	if in == nil || in.profile.MMKillAfter <= 0 {
		return false
	}
	in.mu.Lock()
	start := in.start
	in.mu.Unlock()
	if start.IsZero() || time.Since(start) < in.profile.MMKillAfter {
		return false
	}
	if !in.mmKilled.CompareAndSwap(false, true) {
		return false
	}
	in.hit(SiteMMKill)
	return true
}

// --- NIC hooks (netsim) ---

// NetDrop reports whether this frame should vanish on the wire.
func (in *Injector) NetDrop() bool { return in.roll(SiteNetDrop) }

// NetDup reports whether this frame should arrive twice.
func (in *Injector) NetDup() bool { return in.roll(SiteNetDup) }

// NetCorrupt flips one random bit of the frame in place, reporting
// whether it did.
func (in *Injector) NetCorrupt(frame []byte) bool {
	if len(frame) == 0 || !in.roll(SiteNetCorrupt) {
		return false
	}
	bit := in.randN(int64(len(frame)) * 8)
	frame[bit/8] ^= 1 << (bit % 8)
	return true
}

// --- the scribbler ---

// scribbler periodically corrupts registered shared rings: hostile
// control-word values from the shared adversary-class table, flags-word
// garbage, and descriptor bytes in unpublished slots. All writes go
// through host-role access checks — the scribbler is physically unable
// to reach trusted memory.
func (in *Injector) scribbler() {
	defer close(in.done)
	tick := time.NewTicker(in.profile.ScribbleEvery)
	defer tick.Stop()
	for {
		select {
		case <-in.stop:
			return
		case <-tick.C:
			in.scribbleOnce()
		}
	}
}

// scribbleOnce attacks one randomly chosen registered ring — or, with
// TargetOneXSK, one ring of the quarantine target's four.
func (in *Injector) scribbleOnce() {
	in.regionMu.Lock()
	cands := in.regions
	if in.profile.TargetOneXSK {
		cands = targetXSKRegions(in.regions)
	}
	n := len(cands)
	var rg RingRegion
	if n > 0 {
		rg = cands[in.randN(int64(n))]
	}
	in.regionMu.Unlock()
	if n == 0 {
		return
	}
	if in.roll(SiteRingCtrl) {
		in.scribbleCtrl(rg)
	}
	if rg.Flags && in.roll(SiteRingFlags) {
		in.scribbleFlags(rg)
	}
	if rg.KernelSide == ring.Producer && in.roll(SiteRingData) {
		in.scribbleData(rg)
	}
}

// targetXSKRegions selects the quarantine target's rings: the four
// regions sharing the name prefix ("xsk<fd>") of the last-registered
// XSK region. Setup registers XSKs in queue order, so this is the
// highest queue — never queue 0.
func targetXSKRegions(regions []RingRegion) []RingRegion {
	owner := ""
	for _, rg := range regions {
		if strings.HasPrefix(rg.Name, "xsk") {
			owner, _, _ = strings.Cut(rg.Name, "-")
		}
	}
	if owner == "" {
		return nil
	}
	var out []RingRegion
	for _, rg := range regions {
		if name, _, _ := strings.Cut(rg.Name, "-"); name == owner {
			out = append(out, rg)
		}
	}
	return out
}

// cells loads the raw producer and consumer words of a ring, host-role.
func (in *Injector) cells(rg RingRegion) (prod, cons *atomic.Uint32, ok bool) {
	p, err := in.space.Atomic32(mem.RoleHost, rg.Base)
	if err != nil {
		return nil, nil, false
	}
	c, err := in.space.Atomic32(mem.RoleHost, rg.Base+4)
	if err != nil {
		return nil, nil, false
	}
	return p, c, true
}

// scribbleCtrl overwrites the kernel-owned index cell with a hostile
// value. With ScribbleBeyondOwner the value comes from the full
// adversary table (the model checker's classes anchored at the
// enclave-owned index, a bit-flip, or a lap-old replay) — including
// forward forgeries that pass certification and desync the ring for
// good. Without it, the value is always at or behind the cell's current
// content, which the owner only ever moves forward, so every scribble is
// recoverable: in-window stale values heal on the owner's next publish
// or republish, and beyond-a-lap regressions are certification-refused,
// exercising the quarantine-and-resync path.
func (in *Injector) scribbleCtrl(rg RingRegion) {
	prod, cons, ok := in.cells(rg)
	if !ok {
		return
	}
	target, anchor := prod, cons
	if rg.KernelSide == ring.Consumer {
		target, anchor = cons, prod
	}
	cur := target.Load()
	var v uint32
	if in.profile.ScribbleBeyondOwner {
		classes := tm.AdversaryClasses(anchor.Load(), rg.Size)
		pick := in.randN(int64(len(classes)) + 2)
		switch {
		case pick < int64(len(classes)):
			v = classes[pick]
		case pick == int64(len(classes)):
			v = cur ^ 1<<uint(in.randN(32)) // bit-flip
		default:
			v = cur - (rg.Size + 1) // stale replay from more than a lap back
		}
	} else {
		// Regressions only, measured from the cell itself rather than the
		// anchor: the anchor cell moves concurrently, and a value computed
		// from a stale anchor read can land ahead of the owner — the
		// unrecoverable case this mode must exclude.
		back := [...]uint32{
			1,                                    // minimal stale step
			uint32(in.randN(int64(rg.Size))) + 1, // stale, within the window
			rg.Size + 1,                          // one past a lap: must be refused
			2*rg.Size + 1,                        // deep regression
			1 << 31,                              // half-space away
		}
		v = cur - back[in.randN(int64(len(back)))]
	}
	target.Store(v)
}

// scribbleFlags overwrites the flags word with garbage bit patterns.
func (in *Injector) scribbleFlags(rg RingRegion) {
	cell, err := in.space.Atomic32(mem.RoleHost, rg.Base+8)
	if err != nil {
		return
	}
	patterns := []uint32{0, ring.FlagNeedWakeup, ^uint32(0), 0xA5A5A5A5}
	cell.Store(patterns[in.randN(int64(len(patterns)))])
}

// scribbleData corrupts an unpublished descriptor slot of a
// kernel-produced ring: slots in (prod, cons+size) have been retired by
// the enclave consumer and not yet rewritten by the kernel producer, so
// the enclave must never read them — and the kernel rewrites a slot in
// full before publishing it. Slot prod itself is skipped because the
// kernel may be writing it concurrently (kernel producers in this
// simulation publish one slot at a time).
func (in *Injector) scribbleData(rg RingRegion) {
	prodCell, consCell, ok := in.cells(rg)
	if !ok {
		return
	}
	p, c := prodCell.Load(), consCell.Load()
	diff := p - c
	if diff > rg.Size { // mid-scribble nonsense state: nothing safe
		return
	}
	free := rg.Size - diff
	if free < 2 {
		return
	}
	k := uint32(in.randN(int64(free-1))) + 1 // [1, free): skip slot prod
	idx := (p + k) & (rg.Size - 1)
	addr := rg.Base + ring.HeaderBytes + mem.Addr(uint64(idx)*uint64(rg.EntrySize))
	b, err := in.space.Bytes(mem.RoleHost, addr, uint64(rg.EntrySize))
	if err != nil {
		return
	}
	for i := range b {
		b[i] = byte(in.randN(256))
	}
}
