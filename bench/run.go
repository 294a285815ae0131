package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rakis"
	"rakis/internal/experiments"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// segments is how many equal-time slices the timed window is cut into;
// host_ops_per_s is the median of their rates, which a single stall
// (a GC cycle, a descheduled pump) cannot move.
const segments = 10

// runConfig is one benchmark run of one workload.
type runConfig struct {
	wl      workload
	seed    int64
	seconds float64
	// setups is how many times the world is booted and warmed; setup_s
	// is their median, the last one is measured.
	setups int
	// warmScale shrinks the warm-up (tests run at 1/200 length).
	warmScale float64
}

// session is one booted, warmed world.
type session struct {
	w      *experiments.World
	sink   *telemetry.Sink
	inst   *instance
	setupS float64
}

// setUp boots the world, starts the workload and runs the warm-up. The
// seed alone determines the inputs, so every setUp of a run generates
// the same ports, payloads and offsets.
func setUp(cfg runConfig, traced bool) (*session, error) {
	t0 := time.Now()
	opt := cfg.wl.opt
	s := &session{}
	if traced {
		s.sink = telemetry.NewSink()
		s.sink.Trace.Enable()
		opt.Telemetry = s.sink
	}
	w, err := experiments.NewWorld(opt)
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", cfg.wl.name, err)
	}
	s.w = w
	rng := rand.New(rand.NewSource(cfg.seed))
	s.inst, err = cfg.wl.start(w, rng, traced)
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("start %s: %w", cfg.wl.name, err)
	}
	warm := uint64(float64(cfg.wl.warmOps)*cfg.warmScale) / uint64(len(s.inst.flows))
	if warm < 64 {
		warm = 64
	}
	if _, err := runPhase(s.inst.flows, until{ops: warm}, 0); err != nil {
		w.Close()
		return nil, fmt.Errorf("warm-up %s: %w", cfg.wl.name, err)
	}
	for _, f := range s.inst.flows { // round trips of the warm-up are not samples
		t := f.tally()
		t.rttNS, t.rttCyc = t.rttNS[:0], t.rttCyc[:0]
	}
	s.setupS = time.Since(t0).Seconds()
	return s, nil
}

// tearDown retires the servers, checks the outputs that can only be
// checked at the end, and closes the world.
func (s *session) tearDown() error {
	err := s.inst.stop()
	if err == nil && s.inst.verify != nil {
		err = s.inst.verify()
	}
	s.w.Close()
	return err
}

// sample is the completed-op count at one instant of the timed window.
type sample struct {
	at  time.Time
	ops uint64
}

func totalDone(flows []flow) uint64 {
	var n uint64
	for _, f := range flows {
		n += f.tally().done.Load()
	}
	return n
}

// runPhase drives every flow to the limit on its own goroutine and
// waits for them. A monitor samples progress at the edges of the
// window's segments (when segment > 0) and aborts the phase when no
// flow completes an op for opTimeout: a hung call parks its goroutine
// for good, so the caller must treat the error as fatal.
func runPhase(flows []flow, u until, segment time.Duration) ([]sample, error) {
	errs := make(chan error, len(flows))
	var wg sync.WaitGroup
	for _, f := range flows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.drive(u); err != nil {
				errs <- err
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	start := time.Now()
	samples := []sample{{start, totalDone(flows)}}
	last, lastMove := samples[0].ops, start
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-finished:
			select {
			case err := <-errs:
				return samples, err
			default:
				return samples, nil
			}
		case err := <-errs:
			return samples, err
		case now := <-tick.C:
			n := totalDone(flows)
			if n != last {
				last, lastMove = n, now
			} else if now.Sub(lastMove) > opTimeout {
				return samples, fmt.Errorf("no op completed for %v: %w", opTimeout, errOpTimeout)
			}
			if segment > 0 && len(samples) <= segments && now.Sub(start) >= time.Duration(len(samples))*segment {
				samples = append(samples, sample{time.Now(), n})
			}
		}
	}
}

// edge is everything read at one edge of the timed window.
type edge struct {
	at       time.Time
	mem      runtime.MemStats
	counters vtime.Snapshot
	clocks   []uint64
	shards   []rakis.ShardStat
	drops    uint64
	cpu      time.Duration
	bd       telemetry.Breakdown
	depth    map[string]telemetry.HistSnapshot
}

func readEdge(s *session) edge {
	e := edge{counters: s.w.Counters.Snapshot(), drops: s.w.TotalDrops(), cpu: processCPU()}
	for _, f := range s.inst.flows {
		e.clocks = append(e.clocks, f.clock().Now())
	}
	if rt := s.w.Rakis(); rt != nil {
		e.shards = rt.ShardStats()
	}
	if s.sink != nil {
		e.bd = s.sink.Breakdown()
		e.depth = make(map[string]telemetry.HistSnapshot)
		for _, m := range e.bd.Metrics {
			if m.Hist != nil && strings.HasSuffix(m.Name, "qdepth") {
				e.depth[m.Name] = *m.Hist
			}
		}
	}
	runtime.ReadMemStats(&e.mem)
	e.at = time.Now()
	return e
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowResult is one timed window.
type windowResult struct {
	ops, attempted, failed uint64
	before, after          edge
	segRates               []float64
	hostOpsPerS            float64
	virtCycles             uint64 // virtual makespan: the largest flow-clock advance
	profile                []byte // CPU profile of the window (traced runs)
	goroutines             int
}

// measure runs the timed window on a warmed session.
func measure(s *session, seconds float64, profile bool) (*windowResult, error) {
	flows := s.inst.flows
	var att0, fail0 uint64
	for _, f := range flows {
		att0 += f.tally().attempted
		fail0 += f.tally().failed
	}
	r := &windowResult{}
	runtime.GC()
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	r.before = readEdge(s)
	ops0 := totalDone(flows)
	window := time.Duration(seconds * float64(time.Second))
	samples, err := runPhase(flows, until{deadline: time.Now().Add(window)}, window/segments)
	r.goroutines = runtime.NumGoroutine()
	if profile {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	if err != nil {
		return nil, err
	}
	r.after = readEdge(s)
	r.ops = totalDone(flows) - ops0
	for _, f := range flows {
		r.attempted += f.tally().attempted
		r.failed += f.tally().failed
	}
	r.attempted -= att0
	r.failed -= fail0
	if r.ops == 0 || len(samples) < 3 {
		return nil, errors.New("the timed window completed too few ops to measure")
	}
	for i := 1; i < len(samples); i++ {
		dt := samples[i].at.Sub(samples[i-1].at).Seconds()
		r.segRates = append(r.segRates, float64(samples[i].ops-samples[i-1].ops)/dt)
	}
	r.hostOpsPerS = median(r.segRates)
	for i := range flows {
		if d := r.after.clocks[i] - r.before.clocks[i]; d > r.virtCycles {
			r.virtCycles = d
		}
	}
	return r, nil
}

func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile is the q-quantile of v by linear interpolation between the
// two nearest ranks; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// report is what one run prints: the outcome plus every metric measured,
// keyed by its BENCHMARK.json name.
type report struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   map[string]float64
	notes     []string
}

// fault records an output check that failed: the run still reports its
// numbers, but not as correct.
func (r *report) fault(err error) {
	if err != nil {
		r.correct = false
		r.notes = append(r.notes, err.Error())
	}
}

// maxFailRatio is the share of failed ops above which a run aborts
// instead of reporting.
const maxFailRatio = 0.01

func checkFailRatio(r *windowResult) error {
	if float64(r.failed) > maxFailRatio*float64(r.attempted) {
		return fmt.Errorf("%d of %d ops failed: above the %.0f %% abort threshold", r.failed, r.attempted, maxFailRatio*100)
	}
	return nil
}

// runEndToEnd is the untraced run: the world is set up cfg.setups times
// and the last one is measured for the whole window.
func runEndToEnd(cfg runConfig) (*report, error) {
	var setupS []float64
	var s *session
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			if err := s.tearDown(); err != nil {
				return nil, err
			}
			// Collect what the closed world left now, outside setup_s,
			// so the next boot does not pay for it at a moment of the
			// collector's choosing.
			runtime.GC()
		}
		var err error
		if s, err = setUp(cfg, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, s.setupS)
	}
	r, err := measure(s, cfg.seconds, false)
	if err != nil {
		return nil, err
	}
	if err := checkFailRatio(r); err != nil {
		return nil, err
	}
	rep := &report{attempted: r.attempted, failed: r.failed, correct: r.failed == 0}
	// What the run still holds once the window's garbage is gone.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	rep.fault(s.tearDown())
	fmt.Fprintf(os.Stderr, "segment rates (1/s): %.0f\n", r.segRates)
	ops := float64(r.ops)
	rep.metrics = map[string]float64{
		"setup_s":        median(setupS),
		"host_ops_per_s": r.hostOpsPerS,
		"virt_ops_per_s": ops / s.w.Model.Seconds(r.virtCycles),
		"allocs_per_op":  float64(r.after.mem.Mallocs-r.before.mem.Mallocs) / ops,
		"bytes_per_op":   float64(r.after.mem.TotalAlloc-r.before.mem.TotalAlloc) / ops,
		"heap_live_mb":   float64(live.HeapAlloc) / (1 << 20),
	}
	return rep, nil
}
