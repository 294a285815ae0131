package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rakis/internal/vtime"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1<<32 - 1, 32}, {1 << 32, 33}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		lo, hi := BucketBounds(BucketIndex(c.v))
		if c.v < lo || c.v > hi {
			t.Errorf("value %d outside its bucket bounds [%d, %d]", c.v, lo, hi)
		}
	}
	// Buckets tile the uint64 range with no gaps or overlaps.
	prevHi := uint64(0)
	for i := 1; i < HistBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi+1 {
			t.Errorf("bucket %d starts at %d, want %d", i, lo, prevHi+1)
		}
		if hi < lo {
			t.Errorf("bucket %d inverted: [%d, %d]", i, lo, hi)
		}
		prevHi = hi
	}
	if prevHi != ^uint64(0) {
		t.Errorf("buckets end at %d, want 2^64-1", prevHi)
	}
}

func TestHistogramObserveAndMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for v := uint64(0); v < 100; v++ {
		a.Observe(v)
	}
	for v := uint64(1000); v < 1010; v++ {
		b.Observe(v)
	}
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 110 {
		t.Fatalf("merged count = %d, want 110", s.Count)
	}
	wantSum := uint64(99*100/2) + (1000+1009)*10/2
	if s.Sum != wantSum {
		t.Fatalf("merged sum = %d, want %d", s.Sum, wantSum)
	}
	var bucketTotal uint64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", bucketTotal, s.Count)
	}
	if q := s.Quantile(0.5); q < 32 || q > 2048 {
		t.Fatalf("median upper bound %d implausible", q)
	}
	if q := s.Quantile(1.0); q < 1009 {
		t.Fatalf("p100 upper bound %d below max sample", q)
	}
}

func TestTraceRingWraparoundConcurrent(t *testing.T) {
	const (
		slots   = 64
		writers = 4
		perG    = 5000
	)
	tr := NewTracer(slots)
	tr.Enable()
	shared := tr.NewBuf("shared")
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				shared.Emit(EvBoundaryCopy, uint64(g)<<32|uint64(i), uint64(i), uint64(g))
			}
		}(g)
	}
	wg.Wait()
	if got := shared.Emitted(); got != writers*perG {
		t.Fatalf("Emitted = %d, want %d", got, writers*perG)
	}
	evs := tr.Events()
	if len(evs) == 0 || len(evs) > slots {
		t.Fatalf("retained %d events, want 1..%d", len(evs), slots)
	}
	for i, e := range evs {
		if e.Kind != EvBoundaryCopy {
			t.Fatalf("event %d has kind %v, want boundary_copy", i, e.Kind)
		}
		if i > 0 && e.Stamp < evs[i-1].Stamp {
			t.Fatalf("events out of stamp order at %d", i)
		}
	}
	// The ring wrapped many times: only recent sequence numbers survive.
	minSeq := evs[0].Seq
	for _, e := range evs {
		if e.Seq < minSeq {
			minSeq = e.Seq
		}
	}
	if minSeq < writers*perG-2*slots {
		t.Fatalf("retained sequence %d is older than two ring generations", minSeq)
	}
}

func TestDisabledPathAllocatesZero(t *testing.T) {
	// Fully disabled: nil sink-derived handles, as benchmarks see them.
	var (
		nilSink *Sink
		buf     = nilSink.NewBuf("x")
		probe   = nilSink.NewProbe("x", nil)
		ctr     *Counter
	)
	clk := &vtime.Clock{}
	if n := testing.AllocsPerRun(1000, func() {
		buf.Emit(EvEnclaveExit, 1, 2, 3)
		probe.Begin(SpanRead)
		probe.Emit(EvBoundaryCopy, 4, 5, 6)
		probe.End()
		ctr.Add(1)
		clk.Charge(vtime.CompCopy, 10)
		clk.Sync(5)
	}); n != 0 {
		t.Fatalf("disabled telemetry path allocates %.1f per op, want 0", n)
	}

	// Present but disabled tracer: the ≤1-atomic-load path.
	tr := NewTracer(64)
	live := tr.NewBuf("live")
	if n := testing.AllocsPerRun(1000, func() {
		live.Emit(EvEnclaveExit, 1, 2, 3)
	}); n != 0 {
		t.Fatalf("disabled-tracer Emit allocates %.1f per op, want 0", n)
	}
	if got := live.Emitted(); got != 0 {
		t.Fatalf("disabled tracer recorded %d events", got)
	}
}

func TestProbeSpansAndConservation(t *testing.T) {
	s := NewSink()
	s.Trace.Enable()
	clk := &vtime.Clock{}
	p := s.NewProbe("app.0", clk)

	p.Begin(SpanRead)
	clk.Charge(vtime.CompExit, 100)
	clk.Charge(vtime.CompCopy, 40)
	p.Begin(SpanFstat) // nested: folds into the outer read span
	clk.Advance(10)
	p.End()
	clk.Sync(200) // 50 cycles of wait
	p.End()

	p.Begin(SpanWrite)
	clk.SyncAs(260, vtime.CompRing)
	p.End()

	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got := p.Attribution().Total(); got != clk.Now() {
		t.Fatalf("attributed %d, clock %d", got, clk.Now())
	}
	bd := s.Breakdown()
	if len(bd.Spans) != 2 {
		t.Fatalf("got %d span rows, want 2 (read, write)", len(bd.Spans))
	}
	var read SpanRow
	for _, r := range bd.Spans {
		if r.Syscall == "read" {
			read = r
		}
	}
	if read.Count != 1 || read.Cycles != 200 {
		t.Fatalf("read span = %+v, want count 1 cycles 200", read)
	}
	if read.Comp["exit"] != 100 || read.Comp["copy"] != 40 || read.Comp["other"] != 10 || read.Comp["wait"] != 50 {
		t.Fatalf("read decomposition wrong: %v", read.Comp)
	}

	// Exporters run on the recorded events.
	evs := s.Trace.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 span ends", len(evs))
	}
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, evs, vtime.Default()); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(csv.Bytes(), []byte("span_end")) {
		t.Fatalf("csv missing span_end rows:\n%s", csv.String())
	}
	var bdJSON bytes.Buffer
	if err := bd.WriteJSON(&bdJSON); err != nil {
		t.Fatal(err)
	}
	var back Breakdown
	if err := json.Unmarshal(bdJSON.Bytes(), &back); err != nil {
		t.Fatalf("breakdown JSON round-trip: %v", err)
	}
	if back.Schema != BreakdownSchema {
		t.Fatalf("schema = %q", back.Schema)
	}
}

func TestRegistryBindCountersAndValue(t *testing.T) {
	r := NewRegistry()
	var c vtime.Counters
	BindCounters(r, &c)
	c.EnclaveExits.Add(42)
	if v, ok := r.Value("vtime.enclave_exits"); !ok || v != 42 {
		t.Fatalf("vtime.enclave_exits = %d,%v want 42,true", v, ok)
	}
	r.Counter("custom").Add(7)
	if v, ok := r.Value("custom"); !ok || v != 7 {
		t.Fatalf("custom = %d,%v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("missing metric reported present")
	}
	snap := r.Snapshot()
	found := 0
	for _, m := range snap {
		if m.Name == "vtime.enclave_exits" && m.Value == 42 {
			found++
		}
		if m.Name == "custom" && m.Value == 7 {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("snapshot missing bound metrics: %v", snap)
	}
}

// TestEveryCounterIsCarriedEverywhere holds the six hand-written lists of
// vtime.Counters fields to the struct itself: each field is given a value
// no other has and must come back from Snapshot under its own name, be
// subtracted by Sub, be printed by String, and be readable through the
// gauges BindCounters registers.
func TestEveryCounterIsCarriedEverywhere(t *testing.T) {
	var c vtime.Counters
	cv := reflect.ValueOf(&c).Elem()
	want := make(map[string]uint64)
	for i := 0; i < cv.NumField(); i++ {
		v := uint64(1_000_003 + 7*i)
		cv.Field(i).Addr().Interface().(*atomic.Uint64).Store(v)
		want[cv.Type().Field(i).Name] = v
	}
	snap := c.Snapshot()
	if n := reflect.TypeOf(snap).NumField(); n != len(want) {
		t.Errorf("Snapshot has %d fields, Counters %d", n, len(want))
	}
	diff := snap.Sub(vtime.Snapshot{}) // a field Sub forgets comes back zero
	text := snap.String()
	r := NewRegistry()
	BindCounters(r, &c)
	bound := make(map[uint64]string)
	for name, v := range r.Values() {
		bound[v] = name
	}
	for name, v := range want {
		f := reflect.ValueOf(snap).FieldByName(name)
		if !f.IsValid() {
			t.Errorf("Snapshot has no field %s", name)
			continue
		}
		if got := f.Uint(); got != v {
			t.Errorf("Snapshot().%s = %d, want %d", name, got, v)
		}
		if got := reflect.ValueOf(diff).FieldByName(name).Uint(); got != v {
			t.Errorf("Sub drops %s: s - 0 = %d, want %d", name, got, v)
		}
		if !strings.Contains(text, fmt.Sprintf("=%d", v)) {
			t.Errorf("String() does not print %s: %s", name, text)
		}
		if bound[v] == "" {
			t.Errorf("BindCounters registers no gauge reading %s", name)
		}
	}
}
