// Package tm is the Testing Module (§5): the verification side of RAKIS's
// security-by-design approach.
//
// The paper model-checks the FastPath Module with KLEE, marking all
// host-OS-provided memory symbolic and asserting that the trusted ring
// state satisfies
//
//	∀R : {Pt, Ct, St},  0 ≤ (Pt − Ct) ≤ St          (1)
//
// before and after every ring operation, and that every untrusted memory
// access lands inside a predeclared untrusted object. KLEE's contribution
// is exhaustively covering the adversary-controlled inputs; this package
// achieves the same coverage by explicit-state exploration: untrusted
// control words take every value in an equivalence-class partition of the
// u32 space (the classes are chosen so that within a class the FM's
// comparisons cannot change outcome — including the wraparound
// boundaries), interleaved with every FM operation, to a bounded depth.
//
// There is one explorer (explore, below) and every model in models.go is
// an instance of it: the certified ring at a set of run widths, the UMem
// allocator, and the CQE validator. `go test -v -run TestVerifyAll
// ./internal/tm` prints the §5.1 report table.
package tm

import (
	"fmt"

	"rakis/internal/ring"
)

// Report is one exploration's outcome.
type Report struct {
	// Name identifies the model.
	Name string
	// Paths is the number of operation sequences explored.
	Paths int
	// States is the number of distinct post-states observed.
	States int
	// Violations lists every invariant breach found (empty on success).
	Violations []string
}

// OK reports whether the exploration found no violations.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// String summarizes the report.
func (r Report) String() string {
	status := "verified"
	if !r.OK() {
		status = fmt.Sprintf("%d VIOLATIONS", len(r.Violations))
	}
	return fmt.Sprintf("%-28s %8d paths %8d states  %s", r.Name, r.Paths, r.States, status)
}

// failf records one invariant breach; the explorer prefixes the path that
// led to it.
type failf func(format string, args ...any)

// model describes one machine to the explorer: M is the real
// implementation under test (never a re-statement of it), S one
// transition, K the state a finished path is observed in.
type model[M, S any, K comparable] struct {
	name  string
	depth int // longest step sequence explored
	// fresh builds the implementation in its initial state.
	fresh func() (M, error)
	// steps enumerates the transitions out of m's current state (the
	// adversary's values are relative to it).
	steps func(m M) []S
	// apply performs one transition, asserting after every sub-step.
	apply func(m M, s S, fail failf)
	// observe asserts what must hold where a path ends and returns the
	// state reached.
	observe func(m M, fail failf) K
}

// explore is the Testing Module's one explorer: a depth-first walk over
// every step sequence up to x.depth. Each sequence is replayed from its
// first step on a fresh implementation — once: the same replay asserts the
// path, records its end state and enumerates its successors. It returns
// the report and the set of states observed.
func explore[M, S any, K comparable](x model[M, S, K]) (Report, map[K]bool) {
	rep := Report{Name: x.name}
	states := make(map[K]bool)
	var visit func(path []S)
	visit = func(path []S) {
		m, err := x.fresh()
		if err != nil {
			rep.Violations = append(rep.Violations, err.Error())
			return
		}
		fail := func(format string, args ...any) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("after %+v: ", path)+fmt.Sprintf(format, args...))
		}
		for _, s := range path {
			x.apply(m, s, fail)
		}
		if len(path) > 0 {
			rep.Paths++
			states[x.observe(m, fail)] = true
		}
		if len(path) == x.depth {
			return
		}
		for _, s := range x.steps(m) {
			// Siblings share path's backing array: a visit has formatted
			// every message it will ever write before it returns.
			visit(append(path, s))
		}
	}
	visit(make([]S, 0, x.depth))
	rep.States = len(states)
	return rep, states
}

// VerifyAll runs the full §5.1 suite: both ring sides from both a zero
// base and a near-wraparound base, at the scalar and the batched width
// sets, the UMem allocator, and the CQE validator.
func VerifyAll(depth int) []Report {
	if depth <= 0 {
		depth = 4
	}
	// The batched rows run one level shallower: each of their steps is a
	// whole run (up to maxModelBatch sub-steps, each asserted), so the
	// same interleaving coverage costs fewer explicit steps.
	bdepth := max(depth-1, 2)
	return []Report{
		VerifyRing(ring.Producer, 4, 0, depth),
		VerifyRing(ring.Consumer, 4, 0, depth),
		VerifyRing(ring.Producer, 4, ^uint32(0)-2, depth),
		VerifyRing(ring.Consumer, 4, ^uint32(0)-2, depth),
		VerifyRingBatched(ring.Producer, 4, 0, bdepth),
		VerifyRingBatched(ring.Consumer, 4, 0, bdepth),
		VerifyRingBatched(ring.Producer, 4, ^uint32(0)-2, bdepth),
		VerifyRingBatched(ring.Consumer, 4, ^uint32(0)-2, bdepth),
		VerifyUMem(3, 3),
		VerifyCQE(),
	}
}
