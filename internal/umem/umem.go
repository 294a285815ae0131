// Package umem implements the XSK UMem packet-buffer area and the RAKIS
// frame allocator with ownership tracking (§4.1, "UMem frames allocator").
//
// The UMem is a contiguous area of shared untrusted memory divided into
// fixed-size frames; each frame holds one network packet. Ownership of
// frames is exchanged with the kernel through the xFill/xRX rings (receive
// routine) and the xTX/xCompl rings (send routine). The FM must only ever
// accept back frames it previously handed out *in the same routine*; a
// malicious host OS that returns an unexpected, overlapping, or foreign
// frame could otherwise corrupt the allocator's free pool and trick the
// enclave into reading or writing through hostile offsets.
//
// RAKIS therefore keeps a per-frame ownership map in trusted memory and
// validates every offset consumed from xRX or xCompl: the offset must lie
// inside the UMem, the referenced range must not cross a frame boundary,
// and the frame must currently be owned by the routine that is returning
// it. On violation the frame is refused and the ring consumer is advanced
// past it (Table 2, "Refuse and advance consumer").
//
//rakis:role enclave
package umem

import (
	"errors"
	"fmt"
	"sync/atomic"

	"rakis/internal/mem"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// Owner is the trusted ownership state of one UMem frame.
type Owner uint8

const (
	// OwnerUser means the frame is in the FM's free pool.
	OwnerUser Owner = iota
	// OwnerFill means the frame was produced into xFill and is with the
	// kernel awaiting an incoming packet.
	OwnerFill
	// OwnerTx means the frame was produced into xTX and is with the
	// kernel awaiting transmission.
	OwnerTx
	// OwnerView means the frame was validated off xRX and is held by a
	// live zero-copy view in the enclave; it returns to the user pool
	// when the view is released, or moves to OwnerTx when spliced.
	OwnerView
)

// String returns the owner name.
func (o Owner) String() string {
	switch o {
	case OwnerUser:
		return "user"
	case OwnerFill:
		return "fill"
	case OwnerTx:
		return "tx"
	case OwnerView:
		return "view"
	default:
		return fmt.Sprintf("owner(%d)", uint8(o))
	}
}

// Errors reported by the allocator.
var (
	// ErrConfig reports an invalid UMem geometry.
	ErrConfig = errors.New("umem: invalid configuration")
	// ErrPlacement reports a UMem area not exclusively in untrusted
	// memory (Table 2 init check).
	ErrPlacement = errors.New("umem: area must live exclusively in untrusted memory")
	// ErrExhausted reports an empty free pool.
	ErrExhausted = errors.New("umem: no free frames")
	// ErrViolation reports a hostile frame offset from xRX/xCompl; the
	// frame was refused.
	ErrViolation = errors.New("umem: untrusted frame offset rejected")
)

// UMem is the FM's trusted handle on the shared packet-buffer area.
type UMem struct {
	space      *mem.Space
	base       mem.Addr
	frameSize  uint32
	frameCount uint32
	counters   *vtime.Counters
	trace      *telemetry.Buf

	// Trusted state.
	owner []Owner
	free  []uint32 // stack of frame indices in the user pool
	// gens holds one validator generation per frame. A zero-copy view
	// minted off xRX records the generation it was certified under;
	// releasing or splicing the frame bumps the cell, so a stale view
	// can be detected without any shared-memory read. The cells live in
	// trusted memory and are atomic only so stale-view probes need no
	// allocator lock.
	gens []atomic.Uint32
}

// Config describes a UMem area.
type Config struct {
	// Space is the address space holding the area.
	Space *mem.Space
	// Base is the area's base address in shared untrusted memory.
	Base mem.Addr
	// FrameSize is bytes per frame (2048 in the evaluation setup).
	FrameSize uint32
	// FrameCount is the number of frames.
	FrameCount uint32
	// Counters receives violation counts; it may be nil.
	Counters *vtime.Counters
	// Trace, when non-nil, receives a refusal event per rejected offset.
	Trace *telemetry.Buf
}

// New validates the geometry and placement and returns a UMem handle with
// all frames initially owned by the user, as in §2.3.
func New(cfg Config) (*UMem, error) {
	if cfg.Space == nil {
		return nil, fmt.Errorf("%w: nil space", ErrConfig)
	}
	if cfg.FrameSize == 0 || cfg.FrameCount == 0 {
		return nil, fmt.Errorf("%w: %d frames of %d bytes", ErrConfig, cfg.FrameCount, cfg.FrameSize)
	}
	total := uint64(cfg.FrameSize) * uint64(cfg.FrameCount)
	if !cfg.Space.InUntrusted(cfg.Base, total) {
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrPlacement, uint64(cfg.Base), total)
	}
	u := &UMem{
		space:      cfg.Space,
		base:       cfg.Base,
		frameSize:  cfg.FrameSize,
		frameCount: cfg.FrameCount,
		counters:   cfg.Counters,
		trace:      cfg.Trace,
		owner:      make([]Owner, cfg.FrameCount),
		free:       make([]uint32, 0, cfg.FrameCount),
		gens:       make([]atomic.Uint32, cfg.FrameCount),
	}
	for i := cfg.FrameCount; i > 0; i-- {
		u.free = append(u.free, i-1)
	}
	return u, nil
}

// Base returns the area's base address.
func (u *UMem) Base() mem.Addr { return u.base }

// FrameSize returns the bytes per frame.
func (u *UMem) FrameSize() uint32 { return u.frameSize }

// FrameCount returns the number of frames.
func (u *UMem) FrameCount() uint32 { return u.frameCount }

// Size returns the total byte size of the area.
func (u *UMem) Size() uint64 { return uint64(u.frameSize) * uint64(u.frameCount) }

// FreeFrames returns the number of frames in the user pool.
func (u *UMem) FreeFrames() int { return len(u.free) }

// FrameOffset returns the UMem-relative offset of frame idx.
func (u *UMem) FrameOffset(idx uint32) uint64 { return uint64(idx) * uint64(u.frameSize) }

// FrameAddr returns the absolute address of frame idx.
func (u *UMem) FrameAddr(idx uint32) mem.Addr {
	return u.base + mem.Addr(u.FrameOffset(idx))
}

// Alloc takes a frame from the user pool for use in the given routine
// (OwnerFill for the receive path, OwnerTx for the send path) and returns
// its index.
func (u *UMem) Alloc(routine Owner) (uint32, error) {
	if routine != OwnerFill && routine != OwnerTx {
		return 0, fmt.Errorf("%w: cannot allocate into routine %v", ErrConfig, routine)
	}
	if len(u.free) == 0 {
		return 0, ErrExhausted
	}
	idx := u.free[len(u.free)-1]
	u.free = u.free[:len(u.free)-1]
	u.owner[idx] = routine
	return idx, nil
}

// violation records a refused offset. The trace event carries the
// hostile offset and length; its stamp is zero because the validator
// deliberately takes no clock (the caller charges validation cost).
func (u *UMem) violation(offset uint64, length uint32, format string, args ...any) error {
	if u.counters != nil {
		u.counters.UMemViolations.Add(1)
	}
	u.trace.Emit(telemetry.EvUMemRefusal, 0, offset, uint64(length))
	return fmt.Errorf("%w: "+format, append([]any{ErrViolation}, args...)...)
}

// ValidateConsumed checks an (offset, length) pair consumed from xRX or
// xCompl against the Table 2 constraints: the range must lie fully within
// the UMem, must not cross out of its frame, and the frame must currently
// be owned by the given routine. On success the frame's index is returned
// and ownership returns to the user pool; the caller must copy the
// payload out (receive) or simply reuse the frame (send completion)
// before the next Alloc hands it out again.
//
//rakis:validator
func (u *UMem) ValidateConsumed(routine Owner, offset uint64, length uint32) (uint32, error) {
	if routine != OwnerFill && routine != OwnerTx {
		return 0, fmt.Errorf("%w: routine %v", ErrConfig, routine)
	}
	if offset >= u.Size() {
		return 0, u.violation(offset, length, "offset %d beyond UMem size %d", offset, u.Size())
	}
	idx := uint32(offset / uint64(u.frameSize))
	within := offset - u.FrameOffset(idx)
	if uint64(length) > uint64(u.frameSize)-within {
		return 0, u.violation(offset, length, "range [+%d,%d) crosses frame %d boundary", offset, length, idx)
	}
	if u.owner[idx] != routine {
		return 0, u.violation(offset, length, "frame %d owned by %v, returned via %v routine",
			idx, u.owner[idx], routine)
	}
	u.owner[idx] = OwnerUser
	u.free = append(u.free, idx)
	return idx, nil
}

// AbortTx returns a frame allocated for the send routine but never
// produced into xTX — a lent buffer whose publish was refused — to the
// user pool. The offset never left trusted memory, so the frame can only
// have stopped being the send routine's if the host "completed" a frame
// it was never given: that is refused and counted like any other
// ownership violation, and the pool is left alone.
func (u *UMem) AbortTx(offset uint64) error {
	_, err := u.ValidateConsumed(OwnerTx, offset, 0)
	return err
}

// ValidateView checks an (offset, length) pair consumed from xRX against
// the same Table 2 constraints as ValidateConsumed, but instead of
// returning the frame to the user pool it transfers ownership to a
// zero-copy view (OwnerView) and returns the frame index together with
// the validator generation the view is certified under. The frame stays
// out of the free pool until ReleaseView or SpliceTX retires the view.
//
//rakis:validator
func (u *UMem) ValidateView(offset uint64, length uint32) (uint32, uint32, error) {
	if offset >= u.Size() {
		return 0, 0, u.violation(offset, length, "offset %d beyond UMem size %d", offset, u.Size())
	}
	idx := uint32(offset / uint64(u.frameSize))
	within := offset - u.FrameOffset(idx)
	if uint64(length) > uint64(u.frameSize)-within {
		return 0, 0, u.violation(offset, length, "range [+%d,%d) crosses frame %d boundary", offset, length, idx)
	}
	if u.owner[idx] != OwnerFill {
		return 0, 0, u.violation(offset, length, "frame %d owned by %v, returned via %v routine",
			idx, u.owner[idx], OwnerFill)
	}
	u.owner[idx] = OwnerView
	return idx, u.gens[idx].Load(), nil
}

// ReleaseView retires a view and returns its frame to the user pool. The
// generation check makes the call idempotent: a second release (or a
// release after SpliceTX consumed the frame) reports ErrViolation-free
// staleness and leaves the allocator untouched.
func (u *UMem) ReleaseView(idx, gen uint32) error {
	if idx >= u.frameCount {
		return fmt.Errorf("%w: frame %d out of range", ErrConfig, idx)
	}
	cur := u.gens[idx].Load()
	if u.owner[idx] != OwnerView || cur != gen {
		return fmt.Errorf("%w: frame %d gen %d", mem.ErrStaleView, idx, gen)
	}
	u.gens[idx].Add(1)
	u.owner[idx] = OwnerUser
	u.free = append(u.free, idx)
	return nil
}

// SpliceTX re-certifies a view-held frame for transmission: ownership
// moves OwnerView→OwnerTx without the frame ever visiting the free pool,
// and the generation bump invalidates the view so no further reads can
// race the kernel's TX consumption. The caller queues the frame's
// descriptor onto xTX; the completion path retires it exactly like a
// copied send.
func (u *UMem) SpliceTX(idx, gen uint32) error {
	if idx >= u.frameCount {
		return fmt.Errorf("%w: frame %d out of range", ErrConfig, idx)
	}
	cur := u.gens[idx].Load()
	if u.owner[idx] != OwnerView || cur != gen {
		return fmt.Errorf("%w: frame %d gen %d", mem.ErrStaleView, idx, gen)
	}
	u.gens[idx].Add(1)
	u.owner[idx] = OwnerTx
	return nil
}

// MakeView mints a certified view over the validated range. The (idx,
// gen) pair must come from ValidateView; owner is the object that routes
// the eventual release back to this allocator under its own lock
// (typically the owning xsk.Socket, not the UMem itself, because the
// allocator's trusted state is guarded by the socket's mutex).
//
//rakis:untrusted
func (u *UMem) MakeView(idx, gen uint32, offset uint64, length uint32, owner mem.ViewOwner) (mem.View, error) {
	b, err := u.space.Bytes(mem.RoleEnclave, u.base+mem.Addr(offset), uint64(length))
	if err != nil {
		return mem.View{}, err
	}
	return mem.NewView(b, offset, idx, gen, &u.gens[idx], owner), nil
}

// Owner returns frame idx's current trusted ownership state.
func (u *UMem) Owner(idx uint32) Owner { return u.owner[idx] }

// Gen returns frame idx's current validator generation.
func (u *UMem) Gen(idx uint32) uint32 { return u.gens[idx].Load() }

// FrameBytes returns an enclave-role view of length bytes at the given
// UMem offset, for copying payloads across the trust boundary. The range
// must already have been validated; the bytes themselves remain
// host-writable shared memory.
//
//rakis:untrusted
func (u *UMem) FrameBytes(offset uint64, length uint32) ([]byte, error) {
	return u.space.Bytes(mem.RoleEnclave, u.base+mem.Addr(offset), uint64(length))
}

// InvariantHolds verifies the allocator's trusted-state invariant: the
// free pool contains no duplicates, and exactly the frames whose owner is
// OwnerUser. The Testing Module asserts this after adversarial runs.
func (u *UMem) InvariantHolds() bool {
	seen := make(map[uint32]bool, len(u.free))
	for _, idx := range u.free {
		if idx >= u.frameCount || seen[idx] || u.owner[idx] != OwnerUser {
			return false
		}
		seen[idx] = true
	}
	for idx := uint32(0); idx < u.frameCount; idx++ {
		if u.owner[idx] == OwnerUser && !seen[idx] {
			return false
		}
	}
	return true
}
