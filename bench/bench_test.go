package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"rakis/internal/experiments"
	"rakis/internal/netstack"
	"rakis/internal/sys"
	"rakis/internal/vtime"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpecMatchesBenchmarkJSON pins the program's tables to the file the
// driver reads: same workloads in the same order, same metrics with the
// same units, directions and bounds, same run length.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program measures %d", b.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at 1/200 length, both
// untraced and traced, and checks that each run is correct and reports
// exactly the metrics BENCHMARK.json lists for it, each with its unit.
// It asserts nothing about wall-clock values.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		cfg := runConfig{wl: wl, seed: 7, seconds: 0.1, setups: 1, warmScale: 1.0 / 200}
		for _, mode := range []struct {
			name  string
			run   func(runConfig) (*report, error)
			specs []metricSpec
		}{
			{"end_to_end", runEndToEnd, endToEnd},
			{"per_layer", runTraced, perLayer},
		} {
			rep, err := mode.run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", wl.name, mode.name, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s %s: correct=%v failed=%d attempted=%d notes=%v", wl.name, mode.name, rep.correct, rep.failed, rep.attempted, rep.notes)
			}
			res := toResult(rep, mode.specs)
			if len(res.Metrics) != len(mode.specs) {
				t.Errorf("%s %s: %d metrics, want %d", wl.name, mode.name, len(res.Metrics), len(mode.specs))
			}
			for _, spec := range mode.specs {
				m, ok := res.Metrics[spec.Name]
				if !ok {
					t.Errorf("%s %s: metric %s missing", wl.name, mode.name, spec.Name)
				} else if m.Unit != spec.Unit {
					t.Errorf("%s %s: metric %s has unit %q, want %q", wl.name, mode.name, spec.Name, m.Unit, spec.Unit)
				}
			}
			if mode.name == "per_layer" {
				for _, zero := range []string{"fail_ratio", "netsim.drops_per_op", "xsk.refusals_per_op", "ring.violations", "umem.violations"} {
					if v := rep.metrics[zero]; v != 0 {
						t.Errorf("%s: %s = %v, want 0", wl.name, zero, v)
					}
				}
			}
		}
	}
}

// loopSys is a stub thread whose datagram socket answers every SendTo
// with the same bytes, optionally damaging the stream of replies once.
// A receive on an empty queue fails: nothing would ever wake it.
type loopSys struct {
	sys.Sys // the flows under test call nothing else
	clk     vtime.Clock
	queue   [][]byte
	sent    [][]byte
	port    uint16
	replies int
	fault   string // "", "corrupt", "drop", "reorder", "duplicate"
	at      int    // the reply the fault hits
}

func (s *loopSys) Clock() *vtime.Clock              { return &s.clk }
func (s *loopSys) Socket(sys.SockType) (int, error) { return 3, nil }
func (s *loopSys) Bind(_ int, port uint16) error    { s.port = port; return nil }

func (s *loopSys) SendTo(_ int, p []byte, _ sys.Addr) (int, error) {
	s.sent = append(s.sent, bytes.Clone(p))
	reply := bytes.Clone(p)
	s.replies++
	if s.replies == s.at {
		switch s.fault {
		case "corrupt":
			reply[len(reply)-1] ^= 0x40
		case "drop":
			return len(p), nil
		case "reorder":
			if n := len(s.queue); n > 0 {
				s.queue = append(s.queue[:n-1], reply, s.queue[n-1])
				return len(p), nil
			}
		case "duplicate":
			s.queue = append(s.queue, bytes.Clone(reply))
		}
	}
	s.queue = append(s.queue, reply)
	return len(p), nil
}

func (s *loopSys) RecvFrom(_ int, p []byte, _ bool) (int, sys.Addr, error) {
	if len(s.queue) == 0 {
		return 0, sys.Addr{}, netstack.ErrWouldBlock
	}
	n := copy(p, s.queue[0])
	s.queue = s.queue[1:]
	return n, sys.Addr{}, nil
}

func driveStub(t *testing.T, s *loopSys, seed int64, ordered bool) *udpFlow {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	port, err := pinPort(rng, sys.Addr{IP: experiments.RakisIP, Port: udpPort}, 1, 2, map[uint16]bool{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := newUDPFlow(s, 0, port, sys.Addr{IP: experiments.RakisIP, Port: udpPort}, 64, 8, ordered, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.drive(until{ops: 200}); err != nil {
		t.Fatalf("fault %q: %v", s.fault, err)
	}
	return f
}

// TestVerifierCatchesFaults: a clean echo verifies completely; one
// corrupted, dropped, reordered or duplicated reply makes the flow report
// failed ops, so fail_ratio rises.
func TestVerifierCatchesFaults(t *testing.T) {
	clean := driveStub(t, &loopSys{}, 1, true)
	if clean.tal.failed != 0 || clean.tal.attempted != 200 || clean.tal.done.Load() != 200 {
		t.Fatalf("clean run: attempted %d done %d failed %d", clean.tal.attempted, clean.tal.done.Load(), clean.tal.failed)
	}
	for _, fault := range []string{"corrupt", "drop", "reorder", "duplicate"} {
		f := driveStub(t, &loopSys{fault: fault, at: 100}, 1, true)
		if f.tal.failed == 0 {
			t.Errorf("fault %q went unnoticed: %d of %d failed", fault, f.tal.failed, f.tal.attempted)
		}
		if got := f.tal.done.Load(); got != f.tal.attempted {
			t.Errorf("fault %q: %d ops completed of %d attempted", fault, got, f.tal.attempted)
		}
	}
	// Datagrams answered by several server threads may legally overtake
	// each other: an unordered flow accepts the swap but still catches
	// damage.
	if f := driveStub(t, &loopSys{fault: "reorder", at: 100}, 1, false); f.tal.failed != 0 {
		t.Errorf("unordered flow failed %d ops on a reordering", f.tal.failed)
	}
	if f := driveStub(t, &loopSys{fault: "corrupt", at: 100}, 1, false); f.tal.failed == 0 {
		t.Error("unordered flow missed a corrupted reply")
	}
}

// hungFlow is a flow whose reply never comes: drive parks for good, as a
// blocking receive does.
type hungFlow struct{ tal tally }

func (f *hungFlow) drive(until) error   { select {} }
func (f *hungFlow) clock() *vtime.Clock { return &vtime.Clock{} }
func (f *hungFlow) tally() *tally       { return &f.tal }

// TestHangAborts: a flow whose last reply is lost cannot drain, and a
// phase in which no op completes for opTimeout ends in an error instead
// of a number.
func TestHangAborts(t *testing.T) {
	s := &loopSys{fault: "drop", at: 200}
	f, err := newUDPFlow(s, 0, 30000, sys.Addr{}, 64, 8, true, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.drive(until{ops: 200}); err == nil {
		t.Error("flow drained although its last reply was dropped")
	}

	defer func(d time.Duration) { opTimeout = d }(opTimeout)
	opTimeout = 30 * time.Millisecond
	if _, err := runPhase([]flow{&hungFlow{}}, until{ops: 1}, 0); !errors.Is(err, errOpTimeout) {
		t.Errorf("a hung phase returned %v, want the op timeout", err)
	}
}

// TestSeedChangesInputsOnly: the seed picks the client port and the
// payload bytes, the same seed picks them again, and nothing about the
// shape of the run (request count, sizes, shard) depends on it.
func TestSeedChangesInputsOnly(t *testing.T) {
	a1, a2, b := &loopSys{}, &loopSys{}, &loopSys{}
	driveStub(t, a1, 1, true)
	driveStub(t, a2, 1, true)
	driveStub(t, b, 2, true)
	if a1.port != a2.port || !reflect.DeepEqual(a1.sent, a2.sent) {
		t.Error("the same seed generated different inputs")
	}
	if a1.port == b.port {
		t.Errorf("seeds 1 and 2 chose the same client port %d", a1.port)
	}
	dst := sys.Addr{IP: experiments.RakisIP, Port: udpPort}
	for _, s := range []*loopSys{a1, b} {
		if got := netstack.RXShard(experiments.ClientIP, dst.IP, s.port, dst.Port, 2); got != 1 {
			t.Errorf("port %d hashes to shard %d, want 1", s.port, got)
		}
	}
	if len(a1.sent) != len(b.sent) {
		t.Fatalf("seed changed the request count: %d vs %d", len(a1.sent), len(b.sent))
	}
	same := 0
	for i := range a1.sent {
		if len(a1.sent[i]) != len(b.sent[i]) {
			t.Fatalf("seed changed the size of request %d", i)
		}
		if !bytes.Equal(a1.sent[i][:hdrLen], b.sent[i][:hdrLen]) {
			t.Errorf("seed changed the header of request %d", i)
		}
		if bytes.Equal(a1.sent[i][hdrLen:], b.sent[i][hdrLen:]) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of %d payloads are identical under seeds 1 and 2", same, len(a1.sent))
	}
}

// TestCompareVerdicts pins the four verdicts of a comparison row.
func TestCompareVerdicts(t *testing.T) {
	up := metricSpec{Name: "host_ops_per_s", Better: higher, Bound: 0.10}
	down := metricSpec{Name: "allocs_per_op", Better: lower, Bound: 0.05}
	tight := []float64{100, 100, 100, 100}
	wide := []float64{80, 95, 105, 120}
	for _, c := range []struct {
		spec   metricSpec
		rel    float64
		va, vb []float64
		want   string
	}{
		{up, -0.11, tight, tight, "worse"},
		{up, +0.11, tight, tight, "better"},
		{up, -0.09, tight, tight, "same"},
		{up, -0.09, tight, wide, "unresolved"},
		{down, +0.06, tight, tight, "worse"},
		{down, -0.06, tight, tight, "better"},
		{down, +0.04, wide, tight, "unresolved"},
	} {
		if got := judge(c.spec, c.rel, c.va, c.vb); got != c.want {
			t.Errorf("%s rel %+.2f: verdict %q, want %q", c.spec.Name, c.rel, got, c.want)
		}
	}
}

// TestCPUSharesReadsAProfile: samples of this package spinning are
// billed to the bench bucket, and the shares are shares.
func TestCPUSharesReadsAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	rng := rand.New(rand.NewSource(1))
	x := uint64(0)
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		x += rng.Uint64()
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err, x)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if total == 0 {
		t.Skip("the profiler delivered no samples here")
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares add up to %v", total)
	}
	// Goroutines earlier tests left behind take samples too, so only the
	// attribution is asserted, not its size.
	if shares["bench"] == 0 {
		t.Errorf("a spinning bench function got none of the samples: %v", shares)
	}
}
