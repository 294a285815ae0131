package harness_test

import (
	"os"
	"strconv"
	"testing"

	"rakis/internal/chaos"
	"rakis/internal/chaos/harness"
)

// baseSeed is the matrix's default seed. Override with RAKIS_CHAOS_SEED
// to replay a failure whose seed the suite printed.
func baseSeed(t *testing.T) uint64 {
	if s := os.Getenv("RAKIS_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("RAKIS_CHAOS_SEED: %v", err)
		}
		return v
	}
	return 0x7261_6b69_73 // deterministic default
}

// scribbles reports whether the profile runs the shared-memory scribbler
// (an intentional data race — skipped under -race, see race_on_test.go).
func scribbles(p chaos.Profile) bool { return p.ScribbleEvery > 0 }

// raceWorkloads is the reduced per-profile workload set for the -race
// pass: one XSK-path, one io_uring-path, and the baseline. The race
// detector's ~10x slowdown makes the full matrix disproportionate; the
// uninstrumented pass covers it.
var raceWorkloads = map[string]bool{"helloworld": true, "iperf": true, "fstime": true}

// TestChaosMatrix runs every workload under every fault profile and
// asserts the three suite invariants per cell — no panic, no
// trusted-memory breach, completion where the profile requires it — plus
// each profile's expected-counter set on the aggregate across its sweep.
func TestChaosMatrix(t *testing.T) {
	seed := baseSeed(t)
	for _, p := range chaos.ProfileList() {
		p := p
		if raceDetectorEnabled && scribbles(p) {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			var agg map[string]uint64
			var tunerSteps uint64
			ran := 0
			for _, wl := range harness.Workloads() {
				if skip, why := harness.Excluded(p, wl); skip {
					t.Logf("skip %s: %s", wl, why)
					continue
				}
				if raceDetectorEnabled && !raceWorkloads[wl] {
					continue
				}
				cellSeed := harness.CellSeed(seed, p.Name, wl)
				res := harness.RunCell(p, wl, cellSeed)
				if res.Failed(p.RequireCompletion) {
					t.Errorf("cell failed (replay with RAKIS_CHAOS_SEED=%#x):\n  %s",
						seed, res)
				}
				if res.Granted != 0 {
					t.Errorf("%s/%s: host role breached trusted memory %d times",
						p.Name, wl, res.Granted)
				}
				tunerSteps += res.Tuner.Steps
				ran++
				if agg == nil {
					agg = make(map[string]uint64)
				}
				for _, name := range p.ExpectCounters {
					v, ok := harness.CounterValue(res.Counters, name)
					if !ok {
						t.Fatalf("profile %s expects unknown counter %q", p.Name, name)
					}
					agg[name] += v
				}
			}
			if ran == 0 {
				t.Skip("no cells in this build mode")
			}
			// Counter expectations hold on the profile's aggregate, not
			// per cell: a single fast workload may legitimately see none
			// of a given fault, but a whole sweep that never trips the
			// expected defence means the profile isn't reaching it.
			for _, name := range p.ExpectCounters {
				if agg[name] == 0 {
					t.Errorf("profile %s: expected counter %s stayed zero across %d cells (seed %#x)",
						p.Name, name, ran, seed)
				}
			}
			// An adaptive profile whose tuner never took a loaded step
			// proves nothing about envelope safety under attack.
			if p.Adaptive && tunerSteps == 0 {
				t.Errorf("profile %s: tuner took no loaded steps across %d cells", p.Name, ran)
			}
		})
	}
}

// TestChaosSeedReplay asserts determinism of the fault stream: two
// injectors with the same profile and seed make identical decisions.
func TestChaosSeedReplay(t *testing.T) {
	p := chaos.Profiles()["wakeups"]
	a := chaos.New(p, 42, nil, nil)
	b := chaos.New(p, 42, nil, nil)
	for i := 0; i < 10000; i++ {
		if a.WakeDrop() != b.WakeDrop() || a.Stall(chaos.SiteWakeDelay) != b.Stall(chaos.SiteWakeDelay) || a.WakeDup() != b.WakeDup() {
			t.Fatalf("fault streams diverged at consultation %d", i)
		}
	}
	c := chaos.New(p, 43, nil, nil)
	diverged := false
	for i := 0; i < 1000; i++ {
		if a.WakeDrop() != c.WakeDrop() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical fault streams")
	}
}

// TestChaosOffIsFree asserts the nil injector reports no faults — the
// production configuration must be byte-identical to a chaos-free build.
func TestChaosOffIsFree(t *testing.T) {
	var in *chaos.Injector
	if in.WakeDrop() || in.WakeDup() || in.NetDrop() || in.NetDup() || in.WorkerKill() {
		t.Fatal("nil injector injected a fault")
	}
	if d := in.Stall(chaos.SiteWakeDelay); d != 0 {
		t.Fatalf("nil injector delayed %v", d)
	}
	if _, _, ok := in.CQEForge(); ok {
		t.Fatal("nil injector forged a CQE")
	}
	if in.KernelScanDisabled() {
		t.Fatal("nil injector disabled the kernel scan")
	}
	in.RegisterRing(chaos.RingRegion{})
	in.Start()
	in.Stop()
}
