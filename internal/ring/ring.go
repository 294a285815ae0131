// Package ring implements RAKIS-certified producer/consumer rings — the
// core mechanism of the paper's FastPath Module (§4.1).
//
// A FIOKP ring (the four XSK rings and the two io_uring rings of Table 1)
// lives entirely in shared untrusted memory so that the host kernel can
// operate its side without enclave exits. Its layout is:
//
//	+0   producer index (u32, free-running)
//	+4   consumer index (u32, free-running)
//	+8   flags          (u32, e.g. need-wakeup)
//	+12  reserved
//	+16  entries        (Size * EntrySize bytes; Size is a power of two)
//
// The enclave side keeps trusted shadows of every control value. The side
// that owns an index treats its shared copy as strictly write-only; the
// peer's index is read from untrusted memory and must pass the Table 2
// check before the trusted shadow is updated:
//
//	consumer side:  0 <= producer^u - consumer^t <= size^t
//	producer side:  0 <= producer^t - consumer^u <= size^t
//
// Indices are free-running u32 values that wrap; the checks are performed
// in modular arithmetic, so the single unsigned comparison (diff <= size)
// enforces both bounds even across wraparound — the edge case the paper's
// implementation section calls out. On a failed check the ring refuses the
// value: the trusted shadow is left unchanged, the violation counter is
// bumped, and the caller observes no progress — the "Do not update
// trusted producer/consumer" fail action of Table 2.
//
// The same type also serves as the kernel's (host's) handle when built
// with Certified=false, in which case peer values are trusted as the
// Linux kernel trusts its own memory.
package ring

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"rakis/internal/mem"
	"rakis/internal/vtime"
)

// Side says which index this handle owns.
type Side uint8

const (
	// Producer handles own the producer index (e.g. the FM on xFill,
	// xTX and iSub).
	Producer Side = iota
	// Consumer handles own the consumer index (e.g. the FM on xRX,
	// xCompl and iCompl).
	Consumer
)

// String returns the side name.
func (s Side) String() string {
	if s == Producer {
		return "producer"
	}
	return "consumer"
}

// HeaderBytes is the size of the ring control header.
const HeaderBytes = 16

// Errors reported by ring construction and operation.
var (
	// ErrConfig reports an invalid ring configuration.
	ErrConfig = errors.New("ring: invalid configuration")
	// ErrPlacement reports a certified ring whose memory is not
	// exclusively inside the untrusted segment (Table 2 init check).
	ErrPlacement = errors.New("ring: certified ring must live exclusively in untrusted memory")
	// ErrViolation reports an untrusted control value that failed its
	// certification check; the trusted state was not updated.
	ErrViolation = errors.New("ring: untrusted control value rejected")
)

// Config describes one side's view of a shared ring.
type Config struct {
	// Space is the address space holding the ring.
	Space *mem.Space
	// Access is the memory role used for all accesses (RoleEnclave for
	// FM handles, RoleHost for kernel handles).
	Access mem.Role
	// Base is the ring's base address in shared memory.
	Base mem.Addr
	// Size is the entry count; it must be a power of two. For certified
	// rings this is trusted user configuration: the mask is derived from
	// it in-enclave rather than accepted from the host.
	Size uint32
	// EntrySize is the bytes per entry (8 for xFill/xCompl, 16 for
	// xRX/xTX descriptors and CQEs, 64 for SQEs).
	EntrySize uint32
	// Side is which index this handle owns.
	Side Side
	// Certified enables the RAKIS validation of peer control values.
	Certified bool
	// Counters receives violation counts; it may be nil.
	Counters *vtime.Counters
}

// Ring is one side's handle on a shared ring.
type Ring struct {
	space     *mem.Space
	access    mem.Role
	base      mem.Addr
	size      uint32
	mask      uint32
	entrySize uint32
	side      Side
	certified bool
	counters  *vtime.Counters

	prodCell  *atomic.Uint32
	consCell  *atomic.Uint32
	flagsCell *atomic.Uint32
	stamp     *vtime.Stamp
	band      []vtime.Stamp

	// Trusted shadows: local is the index this side owns (authoritative);
	// peer is the last successfully validated value of the other index.
	local uint32
	peer  uint32

	// violStreak counts consecutive refused peer reads. Refusing is the
	// Table 2 fail action, but a scribbled cell whose legitimate writer
	// has gone idle would otherwise be refused forever; after
	// resyncThreshold consecutive refusals the last trusted value is
	// written back over the hostile one (quarantine-and-resync).
	violStreak uint32

	// viol is this ring's lifetime certification-failure count — the
	// per-ring slice of Counters.RingViolations, so a shard's refusals
	// can be told apart from its neighbours'.
	viol atomic.Uint64
}

// resyncThreshold is how many consecutive certification failures the ring
// tolerates before writing the last trusted peer value back over the
// shared cell. Low enough to recover promptly, high enough that a single
// transient scribble (healed by the legitimate writer's next store) does
// not trigger an unnecessary write.
const resyncThreshold = 4

// TotalBytes returns the shared-memory footprint of a ring with the given
// geometry.
func TotalBytes(size, entrySize uint32) uint64 {
	return HeaderBytes + uint64(size)*uint64(entrySize)
}

// New constructs a ring handle, validating the configuration and — for
// certified handles — the Table 2 initialization constraints.
func New(cfg Config) (*Ring, error) {
	if cfg.Space == nil {
		return nil, fmt.Errorf("%w: nil space", ErrConfig)
	}
	if cfg.Size == 0 || bits.OnesCount32(cfg.Size) != 1 {
		return nil, fmt.Errorf("%w: size %d is not a power of two", ErrConfig, cfg.Size)
	}
	if cfg.EntrySize == 0 {
		return nil, fmt.Errorf("%w: zero entry size", ErrConfig)
	}
	total := TotalBytes(cfg.Size, cfg.EntrySize)
	if cfg.Certified {
		// The mask is *derived* from the trusted size, never read from
		// the host (§4.1 "Validating the initialization data"), and the
		// whole ring must reside in shared untrusted memory.
		if !cfg.Space.InUntrusted(cfg.Base, total) {
			return nil, fmt.Errorf("%w: [%#x,+%d)", ErrPlacement, uint64(cfg.Base), total)
		}
	} else if err := cfg.Space.Check(cfg.Access, cfg.Base, total); err != nil {
		return nil, err
	}
	r := &Ring{
		space:     cfg.Space,
		access:    cfg.Access,
		base:      cfg.Base,
		size:      cfg.Size,
		mask:      cfg.Size - 1,
		entrySize: cfg.EntrySize,
		side:      cfg.Side,
		certified: cfg.Certified,
		counters:  cfg.Counters,
		stamp:     cfg.Space.StampCell(cfg.Base),
		band:      cfg.Space.StampBand(cfg.Base, cfg.Size),
	}
	var err error
	if r.prodCell, err = cfg.Space.Atomic32(cfg.Access, cfg.Base); err != nil {
		return nil, err
	}
	if r.consCell, err = cfg.Space.Atomic32(cfg.Access, cfg.Base+4); err != nil {
		return nil, err
	}
	if r.flagsCell, err = cfg.Space.Atomic32(cfg.Access, cfg.Base+8); err != nil {
		return nil, err
	}
	return r, nil
}

// Size returns the trusted entry count.
func (r *Ring) Size() uint32 { return r.size }

// Base returns the ring's base address.
func (r *Ring) Base() mem.Addr { return r.base }

// Stamp returns the ring's virtual-time stamp cell.
func (r *Ring) Stamp() *vtime.Stamp { return r.stamp }

// violation records a failed certification check.
func (r *Ring) violation() error {
	r.viol.Add(1)
	if r.counters != nil {
		r.counters.RingViolations.Add(1)
	}
	return ErrViolation
}

// Violations returns this ring's lifetime certification-failure count.
func (r *Ring) Violations() uint64 { return r.viol.Load() }

// refreshPeer loads the peer index from untrusted memory and, for
// certified rings, admits it only if the Table 2 constraint holds. It
// returns the number of entries between the two indices (produced but not
// yet consumed).
//
//rakis:validator
func (r *Ring) refreshPeer() (uint32, error) {
	var raw uint32
	if r.side == Producer {
		raw = r.consCell.Load()
	} else {
		raw = r.prodCell.Load()
	}
	var diff uint32
	if r.side == Producer {
		diff = r.local - raw // producer^t - consumer^u
	} else {
		diff = raw - r.local // producer^u - consumer^t
	}
	if r.certified && diff > r.size {
		// Constraint violated: keep the previous trusted value. Every
		// shared cell has exactly one legitimate writer that
		// unconditionally stores its private shadow, so a scribble heals
		// itself on that writer's next operation — but if the writer is
		// idle the refusal would repeat forever. After a streak of
		// refusals, quarantine the hostile value by writing the last
		// trusted one back (a pure recovery action: it restores state the
		// peer already published and the enclave already certified, so it
		// can never advance either index).
		r.violStreak++
		if r.violStreak >= resyncThreshold {
			r.writeBackPeer()
		}
		return r.pending(), r.violation()
	}
	r.violStreak = 0
	r.peer = raw
	return diff, nil
}

// writeBackPeer stores the trusted peer shadow over the peer-owned shared
// cell and counts the resync.
func (r *Ring) writeBackPeer() {
	if r.side == Producer {
		r.consCell.Store(r.peer)
	} else {
		r.prodCell.Store(r.peer)
	}
	r.violStreak = 0
	if r.counters != nil {
		r.counters.RingResyncs.Add(1)
	}
}

// ResyncPeer sets the trusted peer shadow to v and publishes it over the
// peer-owned shared cell. Callers must derive v from certified state only
// — e.g. the io_uring FM proves cons == prod when every submitted SQE has
// a validated completion — so the update is checked against the ring
// invariant and refused if it would not hold.
func (r *Ring) ResyncPeer(v uint32) error {
	var diff uint32
	if r.side == Producer {
		diff = r.local - v
	} else {
		diff = v - r.local
	}
	if diff > r.size {
		return r.violation()
	}
	r.peer = v
	r.writeBackPeer()
	return nil
}

// pending returns entries outstanding according to the trusted shadows.
func (r *Ring) pending() uint32 {
	if r.side == Producer {
		return r.local - r.peer
	}
	return r.peer - r.local
}

// Free returns the number of entries a producer may currently write. For
// certified rings a hostile consumer value is refused and the count from
// the last trusted state is returned alongside ErrViolation.
func (r *Ring) Free() (uint32, error) {
	if r.side != Producer {
		return 0, fmt.Errorf("%w: Free on consumer handle", ErrConfig)
	}
	used, err := r.refreshPeer()
	if err != nil {
		return r.size - used, err
	}
	return r.size - used, nil
}

// Available returns the number of entries a consumer may currently read.
// For certified rings a hostile producer value is refused and the count
// from the last trusted state is returned alongside ErrViolation.
func (r *Ring) Available() (uint32, error) {
	if r.side != Consumer {
		return 0, fmt.Errorf("%w: Available on producer handle", ErrConfig)
	}
	return r.refreshPeer()
}

// SlotAddr returns the address of the i-th entry from this side's trusted
// index: for producers, the i-th free slot about to be written; for
// consumers, the i-th pending entry about to be read.
func (r *Ring) SlotAddr(i uint32) mem.Addr {
	idx := (r.local + i) & r.mask
	return r.base + HeaderBytes + mem.Addr(uint64(idx)*uint64(r.entrySize))
}

// SlotBytes returns a view of the i-th slot's bytes. Slot contents live
// in shared memory: the host can rewrite them at any time, so enclave
// callers must validate anything they parse out of the slice.
//
//rakis:untrusted
func (r *Ring) SlotBytes(i uint32) ([]byte, error) {
	return r.space.Bytes(r.access, r.SlotAddr(i), uint64(r.entrySize))
}

// SnapSlot fetches the i-th slot into trusted storage in one pass and
// returns the frozen copy. Consumers parse descriptors and CQEs out of
// the Snap rather than the live slot, so validation and use see the
// same bytes no matter what the host scribbles in between — the
// single-read discipline the doublefetch analyzer enforces. Producers
// writing into a slot keep using SlotBytes: a snapshot of a slot about
// to be overwritten would be wasted work.
//
//rakis:untrusted
//rakis:snapshot
func (r *Ring) SnapSlot(i uint32) (mem.Snap, error) {
	return r.space.Snapshot(r.access, r.SlotAddr(i), uint64(r.entrySize))
}

// SnapSlotTo is SnapSlot into caller-owned trusted storage (buf must
// hold one entry): a consumer's per-entry loop freezes each slot into
// one stack array and allocates nothing.
//
//rakis:untrusted
//rakis:snapshot
func (r *Ring) SnapSlotTo(buf []byte, i uint32) (mem.Snap, error) {
	return r.space.SnapshotTo(buf, r.access, r.SlotAddr(i), uint64(r.entrySize))
}

// WriteU64 stores v into the i-th slot; the slot must be at least 8 bytes.
func (r *Ring) WriteU64(i uint32, v uint64) error {
	return r.space.PutU64(r.access, r.SlotAddr(i), v)
}

// ReadU64 loads the first 8 bytes of the i-th slot. The value comes
// straight from shared memory and is host-controlled.
//
//rakis:untrusted
func (r *Ring) ReadU64(i uint32) (uint64, error) {
	return r.space.U64(r.access, r.SlotAddr(i))
}

// Submit publishes n freshly written entries: the producer advances its
// trusted index, exposes it in shared memory, and raises the ring's
// virtual-time stamp to now.
func (r *Ring) Submit(n uint32, now uint64) error {
	if r.side != Producer {
		return fmt.Errorf("%w: Submit on consumer handle", ErrConfig)
	}
	for i := uint32(0); i < n; i++ {
		r.band[(r.local+i)&r.mask].Raise(now)
	}
	r.local += n
	r.prodCell.Store(r.local)
	r.stamp.Raise(now)
	return nil
}

// SlotStamp returns the virtual time at which the i-th pending entry was
// produced. Per-slot stamps preserve inter-arrival spacing, so consumers
// that fall behind in real time do not observe artificially compressed
// virtual gaps.
func (r *Ring) SlotStamp(i uint32) uint64 {
	return r.band[(r.local+i)&r.mask].Load()
}

// Release retires n consumed entries: the consumer advances its trusted
// index and exposes it in shared memory. Advancing past a hostile entry
// without processing it ("refuse and advance consumer", Table 2) is also
// done through Release.
func (r *Ring) Release(n uint32) error {
	if r.side != Consumer {
		return fmt.Errorf("%w: Release on producer handle", ErrConfig)
	}
	r.local += n
	r.consCell.Store(r.local)
	return nil
}

// Republish re-stores this side's trusted index over its owned shared
// cell without advancing it. The kernel side calls this on every wakeup:
// a scribble over a kernel-owned cell normally heals on the kernel's next
// Submit/Release, but an idle kernel makes no stores — republishing on
// wakeup lets the enclave's nudge ladder force the heal.
func (r *Ring) Republish() {
	if r.side == Producer {
		r.prodCell.Store(r.local)
	} else {
		r.consCell.Store(r.local)
	}
}

// Local returns this side's trusted index (for tests and the verifier).
func (r *Ring) Local() uint32 { return r.local }

// Peer returns the last validated peer index (for tests and the verifier).
func (r *Ring) Peer() uint32 { return r.peer }

// Seed initializes both trusted indices and the shared control words to
// base. It exists for the Testing Module, which explores ring behaviour
// from arbitrary starting indices — in particular near the u32
// wraparound boundary.
func (r *Ring) Seed(base uint32) {
	r.local, r.peer = base, base
	r.prodCell.Store(base)
	r.consCell.Store(base)
}

// InvariantHolds reports whether the §5.1 model constraint
// 0 <= Pt - Ct <= St currently holds on the trusted shadows. It is the
// assertion the Testing Module checks after every operation.
func (r *Ring) InvariantHolds() bool {
	var diff uint32
	if r.side == Producer {
		diff = r.local - r.peer
	} else {
		diff = r.peer - r.local
	}
	return diff <= r.size
}

// Flags returns the shared flags word (e.g. need-wakeup). The word is
// host-writable; only individual bits may be trusted, never derived
// sizes or offsets.
//
//rakis:untrusted
func (r *Ring) Flags() uint32 { return r.flagsCell.Load() }

// SetFlags stores the shared flags word.
func (r *Ring) SetFlags(v uint32) { r.flagsCell.Store(v) }

// ProducerValue returns the raw shared producer index. The Monitor Module
// watches this from outside the enclave (§4.3); it is also how tests
// inspect what the host sees. The raw value has not passed the Table 2
// check.
//
//rakis:untrusted
func (r *Ring) ProducerValue() uint32 { return r.prodCell.Load() }

// ConsumerValue returns the raw shared consumer index, unvalidated like
// ProducerValue.
//
//rakis:untrusted
func (r *Ring) ConsumerValue() uint32 { return r.consCell.Load() }

// Flag bits used by the simulated FIOKPs.
const (
	// FlagNeedWakeup is set by the kernel side when it has gone idle and
	// requires a syscall to resume processing (XDP_USE_NEED_WAKEUP /
	// IORING_SQ_NEED_WAKEUP).
	FlagNeedWakeup uint32 = 1 << 0
)
