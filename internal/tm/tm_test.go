package tm

import (
	"fmt"
	"strings"
	"testing"

	"rakis/internal/iouring"
	"rakis/internal/ring"
)

// The Table 2 ring check is a single modular comparison, 0 ≤ Pt−Ct ≤ St,
// so its outcome can only change at the window edges. The adversary
// partition must therefore include representatives with Pt−Ct exactly
// 0, St, and St+1 — and must keep including them when the indices sit
// at the u32 wraparound boundary, where a naive (non-modular) partition
// would miss them.
func TestAdversaryClassesCoverWindowEdges(t *testing.T) {
	const size = 4
	bases := []uint32{
		0,                 // fresh ring
		5,                 // mid-range
		^uint32(0) - 2,    // local+size wraps past zero
		^uint32(0) - size, // local+size lands exactly on max
		^uint32(0),        // local itself at max
	}
	for _, local := range bases {
		classes := AdversaryClasses(local, size)
		// diffs this partition reaches, in u32 modular arithmetic.
		diffs := make(map[uint32]bool, len(classes))
		for _, v := range classes {
			diffs[v-local] = true
		}
		for _, want := range []uint32{0, size, size + 1} {
			if !diffs[want] {
				t.Errorf("base %#x: partition misses Pt-Ct = %d", local, want)
			}
		}
		// The refusal edge must also be approached from below.
		if !diffs[size-1] {
			t.Errorf("base %#x: partition misses Pt-Ct = %d (last admissible)", local, size-1)
		}
	}
}

// A deliberately broken FM completion validator must FAIL verification:
// if the explorer cannot distinguish a validator that accepts everything
// from the real one, its CQE coverage is vacuous.
func TestVerifierCatchesBrokenCQEValidator(t *testing.T) {
	broken := []struct {
		name string
		fn   func(iouring.SQE, int32) bool
	}{
		{"accept-everything", func(iouring.SQE, int32) bool { return true }},
		{"missing-length-bound", func(req iouring.SQE, res int32) bool {
			if res < 0 {
				return res > -4096
			}
			// Forgets that a transfer may not claim more bytes than
			// requested — the exfiltration-length check of Table 2.
			return true
		}},
		{"reject-everything", func(iouring.SQE, int32) bool { return false }},
	}
	for _, b := range broken {
		rep := VerifyCQEAgainst(b.fn)
		if rep.OK() {
			t.Errorf("%s: explorer failed to flag the broken validator", b.name)
		}
	}
	// And the real validator still verifies, so the failures above are
	// attributable to the injected faults.
	if rep := VerifyCQEAgainst(iouring.ResPlausibleForTest); !rep.OK() {
		t.Errorf("real validator flagged: %v", rep.Violations[:min(3, len(rep.Violations))])
	}
}

func TestVerifyRingProducer(t *testing.T) {
	rep := VerifyRing(ring.Producer, 4, 0, 4)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations[:min(3, len(rep.Violations))])
	}
	if rep.Paths < 1000 {
		t.Fatalf("exploration too shallow: %d paths", rep.Paths)
	}
	if rep.States < 5 {
		t.Fatalf("exploration too narrow: %d states", rep.States)
	}
}

func TestVerifyRingConsumer(t *testing.T) {
	rep := VerifyRing(ring.Consumer, 4, 0, 4)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations[:min(3, len(rep.Violations))])
	}
}

func TestVerifyRingWraparoundBase(t *testing.T) {
	// Start two below the u32 maximum: every produced entry crosses the
	// wrap, the implementation edge case §4.1 discusses.
	for _, side := range []ring.Side{ring.Producer, ring.Consumer} {
		rep := VerifyRing(side, 4, ^uint32(0)-2, 4)
		if !rep.OK() {
			t.Fatalf("%v wraparound: %v", side, rep.Violations[:min(3, len(rep.Violations))])
		}
	}
}

func TestVerifyUMem(t *testing.T) {
	rep := VerifyUMem(3, 3)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations[:min(3, len(rep.Violations))])
	}
	if rep.Paths < 1000 {
		t.Fatalf("exploration too shallow: %d paths", rep.Paths)
	}
}

func TestVerifyCQE(t *testing.T) {
	rep := VerifyCQE()
	if !rep.OK() {
		t.Fatalf("validator disagrees with oracle: %v", rep.Violations)
	}
}

// TestVerifyAll runs the §5.1 suite and pins every row's path and state
// counts: the explorer and the models were rewritten once (three
// explorers into one) and these are the numbers that proved the rewrite
// explores exactly what its predecessors did. A change to a model or an
// adversary table moves them on purpose and updates the table.
func TestVerifyAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full verification sweep")
	}
	want := []struct {
		name          string
		paths, states int
	}{
		{"ring/producer size=4 base=0x0", 30940, 36},
		{"ring/consumer size=4 base=0x0", 30940, 30},
		{"ring/producer size=4 base=0xfffffffd", 30940, 38},
		{"ring/consumer size=4 base=0xfffffffd", 30940, 31},
		{"ring-batched/producer size=4 base=0x0", 3615, 32},
		{"ring-batched/consumer size=4 base=0x0", 3615, 22},
		{"ring-batched/producer size=4 base=0xfffffffd", 3615, 32},
		{"ring-batched/consumer size=4 base=0xfffffffd", 3615, 23},
		{"umem frames=3", 33824, 4},
		{"iouring CQE validation", 384, 384},
	}
	reps := VerifyAll(4)
	if len(reps) != len(want) {
		t.Fatalf("VerifyAll returned %d reports, want %d", len(reps), len(want))
	}
	for i, rep := range reps {
		t.Log(rep.String())
		if !rep.OK() {
			t.Errorf("%s: %v", rep.Name, rep.Violations[:min(3, len(rep.Violations))])
		}
		if w := want[i]; rep.Name != w.name || rep.Paths != w.paths || rep.States != w.states {
			t.Errorf("row %d = %q %d paths %d states, want %q %d paths %d states",
				i, rep.Name, rep.Paths, rep.States, w.name, w.paths, w.states)
		}
	}
}

// TestVerifyRingBatched exhaustively enumerates batched produce/consume
// transitions for widths 1..4 over size-2 and size-4 rings, from a zero
// base and from a base two below the u32 maximum (every published run
// crosses the wrap), interleaved with the shared adversary partition.
func TestVerifyRingBatched(t *testing.T) {
	for _, side := range []ring.Side{ring.Producer, ring.Consumer} {
		for _, size := range []uint32{2, 4} {
			for _, base := range []uint32{0, ^uint32(0) - 2} {
				rep := VerifyRingBatched(side, size, base, 3)
				t.Log(rep.String())
				if !rep.OK() {
					t.Errorf("%s: %v", rep.Name, rep.Violations[:min(3, len(rep.Violations))])
				}
				if rep.Paths < 1000 {
					t.Errorf("%s: exploration too shallow: %d paths", rep.Name, rep.Paths)
				}
				if rep.States < 5 {
					t.Errorf("%s: exploration too narrow: %d states", rep.Name, rep.States)
				}
			}
		}
	}
}

// The batched widths must reach wider runs than single-step advances: a
// width-4 run over a size-4 ring publishes the full window in one index
// advance, which the state set must witness as a local-index jump of the
// whole ring size.
func TestVerifyRingBatchedReachesFullWindowPublish(t *testing.T) {
	rep, states := ringModel{side: ring.Producer, size: 4, depth: 2,
		widths: []uint32{0, 1, 2, 3, 4}}.explore()
	full := false
	for s := range states {
		if s[0] == 4 { // local advanced by the whole window in ≤2 ops
			full = true
		}
	}
	if !full {
		t.Fatal("batched exploration never published a full-window run")
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations[:min(3, len(rep.Violations))])
	}
}

// flagsUncheckedRing reports whether the model, run against a ring with
// the Table 2 checks disabled, records a count or invariant breach.
func flagsUncheckedRing(widths []uint32) bool {
	rep, _ := ringModel{side: ring.Consumer, size: 4, depth: 2,
		widths: widths, uncertified: true}.explore()
	for _, v := range rep.Violations {
		if strings.Contains(v, "count") || strings.Contains(v, "invariant") {
			return true
		}
	}
	return false
}

// A deliberately broken ring (checks disabled) must FAIL verification:
// the model checker's job is to catch exactly the libxdp-style bug.
func TestVerifierCatchesUncertifiedRing(t *testing.T) {
	if !flagsUncheckedRing([]uint32{0, 1, 4}) {
		t.Fatal("verifier failed to flag the unchecked-ring vulnerability")
	}
}

// The same negative control at the batched widths, where whole runs are
// sized by the hostile count.
func TestBatchedVerifierCatchesUncertifiedRing(t *testing.T) {
	if !flagsUncheckedRing([]uint32{0, 1, 2, 3, 4}) {
		t.Fatal("batched verifier failed to flag the unchecked-ring vulnerability")
	}
}

// The scalar rows are the batched model at widths {0, 1, size}: they gain
// its assertions between slot accesses. A ring whose invariant is already
// broken when a width-1 operation starts must be flagged at the
// intermediate points, not only where the path ends.
func TestScalarWidthAssertsBetweenSlotAccesses(t *testing.T) {
	x := ringModel{side: ring.Producer, size: 4, widths: []uint32{0, 1, 4}}
	m, err := x.fresh()
	if err != nil {
		t.Fatal(err)
	}
	m.r.Submit(2*x.size, 0) // overrun the window behind the model's back
	var got []string
	x.apply(m, ringStep{k: 1}, func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	})
	for _, stage := range []string{"after the count read", "after a slot access", "after the publish"} {
		found := false
		for _, v := range got {
			found = found || strings.Contains(v, stage)
		}
		if !found {
			t.Errorf("width-1 operation made no assertion %s; got %q", stage, got)
		}
	}
}
