package tm

import (
	"fmt"

	"rakis/internal/mem"
	"rakis/internal/ring"
)

// This file extends the Testing Module to the batched ring discipline the
// SendBatch/RecvViews/SubmitN fast paths follow (§4.1 applied to whole
// descriptor runs): ONE certified count read sizes the run, up to k slots
// are written or read against that one certification, and ONE index
// publish exposes the entire run. The scalar model's per-operation
// assertion points are not enough here — a batched path could hold the
// invariants at its operation boundaries while violating them between
// slot accesses — so this model asserts the certified-index invariant and
// the slot-placement constraint after every sub-step of every batched
// operation.

// maxModelBatch is the largest batch width the explorer enumerates.
// Widths beyond the ring size add no new slot-index states (the run is
// clamped to the certified count, itself bounded by the size), so 1..4
// over size-2 and size-4 rings covers every partition: partial runs,
// exact-fit runs, and clamped over-asks, on both sides of a wrap.
const maxModelBatch = 4

// batchStep is one transition: an adversary write to the peer-owned
// shared cell, or a batched FM operation of width k (k == 0 is a bare
// certified count refresh, the degenerate batch).
type batchStep struct {
	adversary bool
	value     uint32
	k         uint32
}

type batchModel struct {
	size uint32
	side ring.Side
	base uint32
	// depth bounds the explored step-sequence length.
	depth int
	// uncertified disables the Table 2 checks: the negative control the
	// batched verifier must flag, like the scalar model's.
	uncertified bool

	paths      int
	states     map[[3]uint32]bool
	violations []string
}

// VerifyRingBatched exhaustively explores batched produce/consume
// transitions for widths 1..4 over a small ring, interleaved with
// adversary writes from the shared AdversaryClasses partition, asserting
// the certified-index invariant at every intermediate state: after the
// certification read, between every pair of slot accesses, and after the
// single publish.
func VerifyRingBatched(side ring.Side, size, startBase uint32, depth int) Report {
	m := &batchModel{
		size: size, side: side, base: startBase, depth: depth,
		states: make(map[[3]uint32]bool),
	}
	m.explore(nil)
	name := fmt.Sprintf("ring-batched/%v size=%d base=%#x", side, size, startBase)
	return Report{Name: name, Paths: m.paths, States: len(m.states), Violations: m.violations}
}

// explore runs DFS over step sequences, mirroring ringModel.explore: the
// adversary classes depend on the current local index, so each prefix is
// replayed (without assertion recording) to learn it.
func (m *batchModel) explore(prefix []batchStep) {
	if len(prefix) == m.depth {
		return
	}
	r, _, ok := m.replay(prefix, false)
	if !ok {
		return
	}
	local := r.Local()
	var nexts []batchStep
	for _, v := range AdversaryClasses(local, m.size) {
		nexts = append(nexts, batchStep{adversary: true, value: v})
	}
	for k := uint32(0); k <= maxModelBatch; k++ {
		nexts = append(nexts, batchStep{k: k})
	}
	for _, s := range nexts {
		path := append(append([]batchStep(nil), prefix...), s)
		m.check(path)
		m.explore(path)
	}
}

// replay builds a fresh ring and applies the steps; with record set,
// every sub-step asserts the invariants into m.violations.
func (m *batchModel) replay(path []batchStep, record bool) (*ring.Ring, *mem.Space, bool) {
	sp := mem.NewSpace(256, 4096)
	base, err := sp.Alloc(mem.Untrusted, ring.TotalBytes(m.size, 8), 64)
	if err != nil {
		m.violations = append(m.violations, "alloc: "+err.Error())
		return nil, nil, false
	}
	r, err := ring.New(ring.Config{
		Space: sp, Access: mem.RoleEnclave, Base: base,
		Size: m.size, EntrySize: 8, Side: m.side, Certified: !m.uncertified,
	})
	if err != nil {
		m.violations = append(m.violations, "new: "+err.Error())
		return nil, nil, false
	}
	r.Seed(m.base)
	for i, s := range path {
		m.apply(r, sp, s, record, i)
	}
	return r, sp, true
}

// peerCell is the shared word the adversary scribbles: the producer index
// when the FM consumes, the consumer index when it produces.
func (m *batchModel) peerCell(r *ring.Ring) mem.Addr {
	if m.side == ring.Consumer {
		return r.Base()
	}
	return r.Base() + 4
}

// mid asserts the certified-index invariant at one intermediate state.
func (m *batchModel) mid(r *ring.Ring, record bool, idx int, stage string) {
	if !record {
		return
	}
	if !r.InvariantHolds() {
		m.violations = append(m.violations,
			fmt.Sprintf("step %d %s: invariant broken: local=%d peer=%d", idx, stage, r.Local(), r.Peer()))
	}
}

// apply performs one step against the real ring implementation, following
// the exact shape of the batched fast paths: one certification read, k
// slot accesses, one publish.
func (m *batchModel) apply(r *ring.Ring, sp *mem.Space, s batchStep, record bool, idx int) {
	if s.adversary {
		cell, err := sp.Atomic32(mem.RoleHost, m.peerCell(r))
		if err == nil {
			cell.Store(s.value)
		}
		return
	}
	// The one certified read that sizes the whole run. A refused hostile
	// value pins the count at the last trusted state — the batch must
	// shrink, never trust.
	var count uint32
	if m.side == ring.Producer {
		count, _ = r.Free()
	} else {
		count, _ = r.Available()
	}
	if record && count > m.size {
		m.violations = append(m.violations,
			fmt.Sprintf("step %d: certified count %d exceeds size %d", idx, count, m.size))
	}
	m.mid(r, record, idx, "after count read")
	n := s.k
	if n > count {
		n = count
	}
	if n > r.Size() {
		// Lap bound, as in the scalar model: an uncertified ring can
		// report counts in the billions; the slot addresses repeat after
		// one lap, so extra iterations cover no new state.
		n = r.Size()
	}
	for i := uint32(0); i < n; i++ {
		// Every slot in the run must lie inside the untrusted ring object
		// — the batch certifies the whole run in one pass, so a single
		// out-of-object slot poisons it.
		if record {
			if err := sp.Check(mem.RoleEnclave, r.SlotAddr(i), 8); err != nil {
				m.violations = append(m.violations,
					fmt.Sprintf("step %d slot %d escapes the ring object: %v", idx, i, err))
			}
			if !sp.InUntrusted(r.SlotAddr(i), 8) {
				m.violations = append(m.violations,
					fmt.Sprintf("step %d slot %d not in untrusted memory", idx, i))
			}
		}
		if m.side == ring.Producer {
			r.WriteU64(i, uint64(i))
		} else {
			r.ReadU64(i)
		}
		m.mid(r, record, idx, fmt.Sprintf("after slot %d", i))
	}
	if n > 0 {
		// One publish for the whole run — the single producer/consumer
		// index advance the batched paths perform.
		if m.side == ring.Producer {
			r.Submit(n, 0)
		} else {
			r.Release(n)
		}
	}
	m.mid(r, record, idx, "after publish")
}

// check replays one full path with assertions armed and records the
// resulting state.
func (m *batchModel) check(path []batchStep) {
	m.paths++
	r, _, ok := m.replay(path, true)
	if !ok {
		return
	}
	var count uint32
	if m.side == ring.Producer {
		count, _ = r.Free()
	} else {
		count, _ = r.Available()
	}
	if count > m.size {
		m.violations = append(m.violations,
			fmt.Sprintf("final count %d exceeds size %d after %v", count, m.size, path))
	}
	m.states[[3]uint32{r.Local(), r.Peer(), count}] = true
}
