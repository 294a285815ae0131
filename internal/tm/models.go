package tm

import (
	"fmt"

	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/umem"
)

// AdversaryClasses returns the u32 equivalence-class representatives for
// an untrusted index, relative to the trusted local index: in-window
// values, both window boundaries, off-by-one beyond them, wraparound
// boundary values, and extremes.
//
// This table is shared by the model checker and the chaos injector
// (internal/chaos), so the values the checker proves refused and the
// values chaos scribbles at runtime cannot drift apart.
func AdversaryClasses(local, size uint32) []uint32 {
	return []uint32{
		local,            // no progress
		local + 1,        // minimal progress
		local + size - 1, // just inside the window
		local + size,     // exactly the window
		local + size + 1, // one beyond: must be refused
		local - 1,        // regression: must be refused
		local - size,     // deep regression
		local + 1<<31,    // half-space away
		0,                // absolute zero
		^uint32(0),       // absolute max
	}
}

// maxModelBatch is the largest run width VerifyRingBatched enumerates.
// Widths beyond the ring size add no new slot-index states (the run is
// clamped to the certified count, itself bounded by the size), so 1..4
// over size-2 and size-4 rings covers every partition: partial runs,
// exact-fit runs, and clamped over-asks, on both sides of a wrap.
const maxModelBatch = 4

// ringModel is the one model of a certified ring side. Every FM operation
// has the shape of the production paths (§4.1 applied to whole descriptor
// runs; scalar I/O is a run of one): ONE certified count read sizes the
// run, up to k slots are written or read against that one certification,
// and ONE index publish exposes the entire run. A path could hold the
// invariants at its operation boundaries while violating them between slot
// accesses, so invariant (1) and slot placement are asserted after the
// count read, after every slot and after the publish, at every width.
type ringModel struct {
	kind   string // report name prefix
	side   ring.Side
	size   uint32
	base   uint32 // starting index value (to cover wraparound starts)
	depth  int
	widths []uint32 // run widths enumerated; 0 is a bare count refresh
	// uncertified disables the Table 2 checks: the negative control the
	// verifier must flag (the libxdp bug, §5).
	uncertified bool
}

// ringStep is one transition: an adversary write to the peer-owned shared
// cell, or an FM operation of width k.
type ringStep struct {
	adversary bool
	value     uint32 // adversary: the untrusted index value written
	k         uint32
}

// ringState is what a finished path is observed in: local index, last
// admitted peer index, and the count the next operation would be sized by.
type ringState [3]uint32

type ringMachine struct {
	r  *ring.Ring
	sp *mem.Space
}

// VerifyRing explores one certified ring side at the scalar widths:
// refresh, advance by one, advance by the whole window.
func VerifyRing(side ring.Side, size, startBase uint32, depth int) Report {
	rep, _ := ringModel{kind: "ring", side: side, size: size, base: startBase, depth: depth,
		widths: []uint32{0, 1, size}}.explore()
	return rep
}

// VerifyRingBatched explores the same model at every run width
// 0..maxModelBatch, the discipline SendBatch/RecvViews/SubmitN follow.
func VerifyRingBatched(side ring.Side, size, startBase uint32, depth int) Report {
	widths := make([]uint32, maxModelBatch+1)
	for k := range widths {
		widths[k] = uint32(k)
	}
	rep, _ := ringModel{kind: "ring-batched", side: side, size: size, base: startBase, depth: depth,
		widths: widths}.explore()
	return rep
}

func (x ringModel) explore() (Report, map[ringState]bool) {
	return explore(model[ringMachine, ringStep, ringState]{
		name:  fmt.Sprintf("%s/%v size=%d base=%#x", x.kind, x.side, x.size, x.base),
		depth: x.depth, fresh: x.fresh, steps: x.steps, apply: x.apply, observe: x.observe,
	})
}

// fresh builds a ring with both indices at x.base. The ring object is the
// whole untrusted segment, so an access that escapes it escapes the
// segment and sp.Check refuses it.
func (x ringModel) fresh() (ringMachine, error) {
	total := ring.TotalBytes(x.size, 8)
	sp := mem.NewSpace(0, int(total))
	base, err := sp.Alloc(mem.Untrusted, total, 64)
	if err != nil {
		return ringMachine{}, fmt.Errorf("alloc: %w", err)
	}
	r, err := ring.New(ring.Config{
		Space: sp, Access: mem.RoleEnclave, Base: base,
		Size: x.size, EntrySize: 8, Side: x.side, Certified: !x.uncertified,
	})
	if err != nil {
		return ringMachine{}, fmt.Errorf("new: %w", err)
	}
	r.Seed(x.base)
	return ringMachine{r, sp}, nil
}

// steps lists every adversary class around the current local index, then
// every width.
func (x ringModel) steps(m ringMachine) []ringStep {
	var nexts []ringStep
	for _, v := range AdversaryClasses(m.r.Local(), x.size) {
		nexts = append(nexts, ringStep{adversary: true, value: v})
	}
	for _, k := range x.widths {
		nexts = append(nexts, ringStep{k: k})
	}
	return nexts
}

// count is the certified read that sizes a run. A refused hostile value
// pins it at the last trusted state — the run must shrink, never trust.
func (x ringModel) count(r *ring.Ring) (n uint32) {
	if x.side == ring.Producer {
		n, _ = r.Free()
	} else {
		n, _ = r.Available()
	}
	return n
}

// invariant asserts constraint (1) on the trusted shadows.
func (x ringModel) invariant(r *ring.Ring, fail failf, stage string) {
	if !r.InvariantHolds() {
		fail("invariant broken %s: local=%d peer=%d", stage, r.Local(), r.Peer())
	}
}

// slotInside asserts the memory-access constraint for the i-th slot from
// the trusted index: it lies inside the untrusted ring object.
func (x ringModel) slotInside(m ringMachine, fail failf, i uint32) {
	if err := m.sp.Check(mem.RoleEnclave, m.r.SlotAddr(i), 8); err != nil {
		fail("slot %d escapes the ring object: %v", i, err)
	}
	if !m.sp.InUntrusted(m.r.SlotAddr(i), 8) {
		fail("slot %d not in untrusted memory", i)
	}
}

// apply performs one step against the real ring implementation.
func (x ringModel) apply(m ringMachine, s ringStep, fail failf) {
	r := m.r
	if s.adversary {
		// The shared word the adversary scribbles: the producer index
		// (+0) when the FM consumes, the consumer index (+4) when it
		// produces.
		peer := r.Base() + 4
		if x.side == ring.Consumer {
			peer = r.Base()
		}
		if cell, err := m.sp.Atomic32(mem.RoleHost, peer); err == nil {
			cell.Store(s.value)
		}
		return
	}
	count := x.count(r)
	if count > x.size {
		fail("certified count %d exceeds size %d", count, x.size)
	}
	x.invariant(r, fail, "after the count read")
	// Lap bound: an uncertified ring (the negative control) can report
	// counts in the billions; the slot addresses repeat after one lap, so
	// extra iterations cover no new state. The count breach is already
	// flagged above.
	n := min(s.k, count, x.size)
	for i := uint32(0); i < n; i++ {
		x.slotInside(m, fail, i)
		if x.side == ring.Producer {
			r.WriteU64(i, uint64(i))
		} else {
			r.ReadU64(i)
		}
		x.invariant(r, fail, "after a slot access")
	}
	if n > 0 {
		if x.side == ring.Producer {
			r.Submit(n, 0)
		} else {
			r.Release(n)
		}
	}
	x.invariant(r, fail, "after the publish")
}

// observe asserts what must hold wherever a path stops: constraint (1),
// a count within the trusted size, and every slot the FM could touch next
// inside the untrusted ring object.
func (x ringModel) observe(m ringMachine, fail failf) ringState {
	x.invariant(m.r, fail, "at the path's end")
	count := x.count(m.r)
	if count > x.size {
		fail("final count %d exceeds size %d", count, x.size)
	}
	for i := uint32(0); i < min(count, x.size); i++ {
		x.slotInside(m, fail, i)
	}
	return ringState{m.r.Local(), m.r.Peer(), count}
}

// umemStep is one transition of the frame allocator: hand a frame to a
// routine, or the host reporting one consumed at (off, length).
type umemStep struct {
	alloc   bool
	routine umem.Owner
	off     uint64
	length  uint32
}

// VerifyUMem explores the frame allocator against adversarial consumed
// offsets; the state observed is the size of the free pool.
func VerifyUMem(frames uint32, depth int) Report {
	const frameSize = 128
	rep, _ := explore(model[*umem.UMem, umemStep, int]{
		name:  fmt.Sprintf("umem frames=%d", frames),
		depth: depth,
		fresh: func() (*umem.UMem, error) {
			sp := mem.NewSpace(0, int(frames)*frameSize)
			base, err := sp.Alloc(mem.Untrusted, uint64(frames)*frameSize, frameSize)
			if err != nil {
				return nil, err
			}
			return umem.New(umem.Config{Space: sp, Base: base, FrameSize: frameSize, FrameCount: frames})
		},
		steps: func(u *umem.UMem) []umemStep {
			offs := []uint64{
				0,                       // frame 0 start
				frameSize + frameSize/2, // mid frame 1
				u.Size() - 1,            // last byte
				u.Size(),                // one past the end
				^uint64(0) - frameSize,  // extreme
			}
			var nexts []umemStep
			for _, rt := range []umem.Owner{umem.OwnerFill, umem.OwnerTx} {
				nexts = append(nexts, umemStep{alloc: true, routine: rt})
				for _, off := range offs {
					for _, l := range []uint32{0, frameSize / 2, frameSize + 1} {
						nexts = append(nexts, umemStep{routine: rt, off: off, length: l})
					}
				}
			}
			return nexts
		},
		apply: func(u *umem.UMem, s umemStep, _ failf) {
			if s.alloc {
				u.Alloc(s.routine)
			} else {
				u.ValidateConsumed(s.routine, s.off, s.length)
			}
		},
		observe: func(u *umem.UMem, fail failf) int {
			if !u.InvariantHolds() {
				fail("umem invariant broken")
			}
			if u.FreeFrames() > int(frames) {
				fail("free pool %d exceeds %d", u.FreeFrames(), frames)
			}
			return u.FreeFrames()
		},
	})
	return rep
}

// VerifyCQE exhaustively checks the FM's completion validator against an
// independent statement of the Table 2 rule for every operation class.
func VerifyCQE() Report {
	return VerifyCQEAgainst(iouring.ResPlausibleForTest)
}

// VerifyCQEAgainst runs the CQE exploration against an arbitrary
// validator implementation. Substituting a deliberately broken validator
// lets the Testing Module's own tests confirm the explorer detects a
// defective FM check rather than vacuously passing (§5.1's
// fault-injection sanity check). The validator is stateless, so this is
// the flat product op × request length × result class rather than a step
// sequence for explore to walk, and every case is its own state.
func VerifyCQEAgainst(validate func(iouring.SQE, int32) bool) Report {
	rep := Report{Name: "iouring CQE validation"}
	for _, op := range []iouring.Op{
		iouring.OpNop, iouring.OpRead, iouring.OpWrite, iouring.OpSend,
		iouring.OpRecv, iouring.OpPollAdd, iouring.OpPollRemove, iouring.OpFsync,
	} {
		for _, l := range []uint32{0, 1, 100, 65536} {
			for _, res := range ResultClasses(l) {
				rep.Paths++
				got := validate(iouring.SQE{Op: op, Len: l, OpFlags: pollIn}, res)
				if want := oracle(op, l, res); got != want {
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("op=%v len=%d res=%d: validator=%v oracle=%v", op, l, res, got, want))
				}
			}
		}
	}
	rep.States = rep.Paths
	return rep
}

// ResultClasses returns the int32 equivalence-class representatives for a
// hostile CQE result field, relative to the request length: implausible
// and plausible errnos, zero, around-the-length boundaries, and extremes.
// Shared with the chaos injector the same way as AdversaryClasses.
func ResultClasses(reqLen uint32) []int32 {
	return []int32{
		-200000, -4096, -4095, -32, -1,
		0, 1, int32(reqLen) - 1, int32(reqLen), int32(reqLen) + 1,
		1 << 20, 1<<31 - 1,
	}
}

// pollIn is POLLIN, spelled out like error/hangup below: the oracle shares
// no definition with the FM it checks.
const pollIn = 0x01

// oracle is the independent spec: errors must be sane errnos; transfer
// results must not exceed the request; poll may only report requested
// events plus error/hangup; control ops return zero.
func oracle(op iouring.Op, reqLen uint32, res int32) bool {
	if res < 0 {
		return res > -4096
	}
	switch op {
	case iouring.OpRead, iouring.OpWrite, iouring.OpSend, iouring.OpRecv:
		return uint32(res) <= reqLen
	case iouring.OpPollAdd:
		allowed := uint32(pollIn | 0x18)
		return uint32(res)&^allowed == 0
	default:
		return res == 0
	}
}
