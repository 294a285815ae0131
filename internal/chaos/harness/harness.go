// Package harness runs the chaos matrix: every workload of the paper's
// evaluation (§6) against a RAKIS world whose host side is armed with a
// fault-injection profile. It is shared by the go-test chaos suite and
// the cmd/rakis-chaos driver.
//
// One cell = one profile × one workload × one seed. The harness builds a
// fresh Rakis-SGX world per cell, arms the injector, runs the workload
// with small fixed parameters, and reports: the workload outcome, any
// panic, the counter deltas, the injector's per-site fault counts, and
// the trusted-memory tripwire (host-role accesses that the access check
// let through — always zero, or the simulation's trust boundary is
// broken).
package harness

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"rakis"
	"rakis/internal/chaos"
	"rakis/internal/experiments"
	"rakis/internal/netstack"
	"rakis/internal/telemetry"
	"rakis/internal/tuner"
	"rakis/internal/vtime"
	"rakis/internal/workloads"
)

// Workloads lists the matrix workloads in run order.
func Workloads() []string {
	return []string{"helloworld", "iperf", "memcached", "curl", "redis", "fstime", "mcrypt"}
}

// Excluded reports whether a workload must be skipped under a profile,
// with the reason. The only exclusion: curl's established-stream client
// stalls out on a lost data packet (its QUIC-style reliability layer is
// out of scope, §6.1 runs it on a lossless wire), so profiles that drop
// or corrupt frames on the wire cannot run it to completion.
func Excluded(p chaos.Profile, workload string) (bool, string) {
	if workload == "curl" && (p.Prob[chaos.SiteNetDrop] > 0 || p.Prob[chaos.SiteNetCorrupt] > 0) {
		return true, "curl assumes a lossless wire in its established stream"
	}
	// The matrix runs single-queue worlds, where a one-XSK quarantine is
	// total UDP denial; memcached's multi-thread teardown then waits out
	// its full idle window — minutes of wall clock for no coverage iperf
	// doesn't already provide. The sharded quarantine scenario covers
	// memcached-style traffic on multi-queue worlds instead.
	if workload == "memcached" && p.TargetOneXSK && p.ScribbleBeyondOwner {
		return true, "one-XSK quarantine on a single-queue world denies all UDP; teardown waits out the idle window"
	}
	return false, ""
}

// Result is one cell's outcome.
type Result struct {
	Profile  string
	Workload string
	Seed     uint64

	// Err is the workload outcome (nil: completed correctly).
	Err error
	// PanicVal is a recovered panic (always a failure).
	PanicVal any
	// Counters is the world's counter state at teardown.
	Counters vtime.Snapshot
	// Injected is the injector's per-site fault count.
	Injected map[string]uint64
	// Granted is the trusted-memory tripwire: host-role accesses to the
	// trusted segment that were allowed through. Must be zero.
	Granted uint64
	// Adaptive records whether the cell ran with the self-tuning runtime
	// armed (Profile.Adaptive).
	Adaptive bool
	// Tuner is the control loop's own accounting for adaptive cells: the
	// suite asserts EnvelopeViolations stayed zero and the mode never
	// flapped inside the dwell guard, whatever the injector did.
	Tuner tuner.Stats
	// TunerGuard is the dwell guard the cell's tuner ran with, for the
	// flap check.
	TunerGuard uint64
	// TraceTail is the final trace window of a failed cell — the last
	// events before the panic or error, in virtual-time order — so a
	// failure report carries the reproducing seed AND what the run was
	// doing when it died. Empty for passing cells.
	TraceTail []string
}

// Failed reports whether the cell violated its profile's requirements.
func (r Result) Failed(requireCompletion bool) bool {
	if r.PanicVal != nil || r.Granted != 0 {
		return true
	}
	if r.Adaptive {
		if r.Tuner.EnvelopeViolations != 0 {
			return true
		}
		if r.Tuner.ModeSwitches > 1 && r.Tuner.MinSwitchGap < r.TunerGuard {
			return true
		}
	}
	return requireCompletion && r.Err != nil
}

// String renders one result line.
func (r Result) String() string {
	status := "ok"
	switch {
	case r.PanicVal != nil:
		status = fmt.Sprintf("PANIC: %v", r.PanicVal)
	case r.Granted != 0:
		status = fmt.Sprintf("BREACH: %d trusted accesses granted to host role", r.Granted)
	case r.Adaptive && r.Tuner.EnvelopeViolations != 0:
		status = fmt.Sprintf("STEERED: %d tuner decisions left the safety envelope", r.Tuner.EnvelopeViolations)
	case r.Adaptive && r.Tuner.ModeSwitches > 1 && r.Tuner.MinSwitchGap < r.TunerGuard:
		status = fmt.Sprintf("FLAP: mode switches %d steps apart, dwell guard %d", r.Tuner.MinSwitchGap, r.TunerGuard)
	case r.Err != nil:
		status = fmt.Sprintf("error: %v", r.Err)
	}
	return fmt.Sprintf("%-8s %-10s seed=%-#x faults=%d %s",
		r.Profile, r.Workload, r.Seed, r.Counters.FaultsInjected, status)
}

// TraceTailEvents is how many final trace events a failed cell keeps.
const TraceTailEvents = 40

// RunCell executes one matrix cell. Every cell runs with the tracer
// armed: if the cell fails, the result carries the final trace window
// next to the reproducing seed.
func RunCell(p chaos.Profile, workload string, seed uint64) (res Result) {
	res = Result{Profile: p.Name, Workload: workload, Seed: seed}
	inj := chaos.New(p, seed, nil, nil)
	sink := telemetry.NewSink()
	sink.Trace.Enable()
	tail := func() {
		if res.PanicVal != nil || res.Granted != 0 || res.Err != nil {
			for _, e := range sink.Trace.Tail(TraceTailEvents) {
				res.TraceTail = append(res.TraceTail, e.String())
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			res.PanicVal = r
			tail()
		}
	}()
	w, err := experiments.NewWorld(experiments.Options{
		Env:       experiments.RakisSGX,
		Chaos:     inj,
		Telemetry: sink,
		Adaptive:  p.Adaptive,
	})
	if err != nil {
		res.Err = fmt.Errorf("world boot: %w", err)
		tail()
		return res
	}
	res.Adaptive = p.Adaptive
	res.Err = func() error {
		defer func() {
			// Tuner accounting is read before teardown stops the loop.
			res.Tuner = w.Rakis().TunerStats()
			res.TunerGuard = uint64(tuner.DefaultParams().Guard)
			w.Close()
		}()
		return RunWorkload(w, workload)
	}()
	res.Counters = w.Counters.Snapshot()
	res.Injected = inj.Counts()
	res.Granted = w.Space.HostTrustedGranted()
	tail()
	return res
}

// QuarantineResult is the sharded-quarantine scenario's outcome: a
// four-shard world whose host denies service on exactly one XSK queue
// (the shardq profile scribbles only the last-registered XSK's rings)
// while pinned flows load every shard.
type QuarantineResult struct {
	// Shards is the world's shard count; Target is the quarantined shard
	// (always the highest — queue 0 carries ARP and is never targeted).
	Shards, Target int
	// FlowEchoed[i] is flow i's completed round trips; FlowShard[i] is
	// the shard it was pinned to.
	FlowEchoed []int
	FlowShard  []int
	// PerFlow is the round trips a completed flow must show.
	PerFlow int
	// Stats is the runtime's per-shard counter rollup at teardown — the
	// per-shard refusal counters the suite asserts confinement on.
	Stats []rakis.ShardStat
	// Granted is the trusted-memory tripwire (must be zero).
	Granted uint64
	// Injected is the injector's per-site fault count.
	Injected map[string]uint64
}

// RunShardQuarantine runs the sharded-quarantine scenario: boot a
// four-shard RAKIS-SGX world, arm the shardq profile, pin two flows to
// every shard with best-effort completion, and report per-flow outcomes
// next to the per-shard refusal counters. The suite asserts the blast
// radius: flows on healthy shards complete in full (node liveness),
// refusals stay confined to the target shard, and the trust boundary
// holds throughout.
func RunShardQuarantine(seed uint64) (QuarantineResult, error) {
	const (
		shards  = 4
		flows   = 8
		perFlow = 24
	)
	res := QuarantineResult{Shards: shards, Target: shards - 1, PerFlow: perFlow}
	p := chaos.Profiles()["shardq"]
	inj := chaos.New(p, seed, nil, nil)
	sink := telemetry.NewSink()
	w, err := experiments.NewWorld(experiments.Options{
		Env:          experiments.RakisSGX,
		NumXSKs:      shards,
		ServerQueues: shards,
		Chaos:        inj,
		Telemetry:    sink,
	})
	if err != nil {
		return res, fmt.Errorf("world boot: %w", err)
	}
	echo, err := workloads.ShardedEcho(w.WorkloadEnv(), workloads.ShardedEchoParams{
		Flows: flows, PerFlow: perFlow, PacketSize: 128,
		Shards: shards, ServerThreads: shards,
		BestEffort: true,
	})
	res.Stats = w.Rakis().ShardStats()
	res.Granted = w.Space.HostTrustedGranted()
	res.Injected = inj.Counts()
	w.Close()
	if err != nil {
		return res, err
	}
	for _, f := range echo.Flows {
		res.FlowEchoed = append(res.FlowEchoed, f.Echoed)
		res.FlowShard = append(res.FlowShard, f.Shard)
	}
	return res, nil
}

// SynFloodResult is the SYN-flood scenario's outcome: a world running
// the in-enclave XSK TCP environment whose wire carries 10^5 spoofed
// handshakes per second at a listener, on top of the synflood profile's
// light loss and duplication, while healthy Redis-style flows and
// connection churn share the stack.
type SynFloodResult struct {
	// FloodSYNs is the spoofed SYN count injected; FloodRate the
	// achieved injection rate in SYNs per second of real time.
	FloodSYNs int
	FloodRate float64
	// Cookie and refusal accounting over the whole run (deltas from
	// post-boot). CookiesSent is the stateless answer bill — it tracks
	// the flood. CookiesAccepted tracks only genuine handshakes.
	CookiesSent, CookiesAccepted, Refused uint64
	// ConnsAfter and ListenersAfter are the connection-table sizes at
	// the end — the bounded-memory claim: a stateless listen path holds
	// no per-SYN state, so the table never scales with the flood.
	ConnsAfter, ListenersAfter int
	// HealthyOps is the op count the concurrent Redis run completed
	// (HealthyWant is the target: the gate requires 100% delivery);
	// HealthyErr its outcome.
	HealthyOps, HealthyWant int
	HealthyErr              error
	// ChurnRounds is how many connect-use-close churn rounds completed;
	// ChurnErr the first churn failure, if any.
	ChurnRounds int
	ChurnErr    error
	// Granted is the trusted-memory tripwire (must be zero).
	Granted uint64
	// Injected is the injector's per-site fault count.
	Injected map[string]uint64
}

// RunSynFlood runs the SYN-flood scenario: boot the in-enclave XSK TCP
// world with the synflood profile armed, open a sacrificial enclave
// listener, and spray it with spoofed-source SYNs from the load
// generator's NIC at well over 10^5 handshakes per second — while a
// Redis-style workload serves healthy flows and a churn loop opens and
// closes connections through the same sharded stack. The suite asserts
// the statelessness bargain: the flood moves only the cookie-sent
// counter, never the connection table; healthy flows keep 100% delivery;
// refusals stay confined to stray teardown segments.
func RunSynFlood(seed uint64) (SynFloodResult, error) {
	const (
		floodSYNs  = 25000
		floodBurst = 500
		floodPort  = 7777
		healthyOps = 120
		churnGoal  = 3
	)
	res := SynFloodResult{FloodSYNs: floodSYNs, HealthyWant: healthyOps}
	p := chaos.Profiles()["synflood"]
	inj := chaos.New(p, seed, nil, nil)
	sink := telemetry.NewSink()
	w, err := experiments.NewWorld(experiments.Options{
		Env:       experiments.RakisSGXXskTCP,
		NumXSKs:   2,
		Chaos:     inj,
		Telemetry: sink,
	})
	if err != nil {
		return res, fmt.Errorf("world boot: %w", err)
	}
	defer w.Close()
	stack := w.Rakis().Stack
	stats0 := stack.TCPStats()

	// The sacrificial listener the flood aims at. Nothing ever accepts
	// from it during the flood — with stateless cookies that is free;
	// with a stateful listen path it would be a memory bomb.
	floodL, err := stack.TCPListen(floodPort, 8)
	if err != nil {
		return res, fmt.Errorf("flood listener: %w", err)
	}

	env := w.WorkloadEnv()
	var wg sync.WaitGroup

	// Healthy flows: a Redis-style TCP echo that must deliver in full.
	var healthy workloads.RedisResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		healthy, res.HealthyErr = workloads.Redis(env, workloads.RedisParams{
			Command: "SET", Ops: healthyOps, Connections: 4, UseEpoll: true,
		})
	}()

	// Connection churn: repeated short-lived Redis rounds on their own
	// port — every round opens, uses, and closes fresh connections
	// through the flooded stack.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < churnGoal; r++ {
			if _, err := workloads.Redis(env, workloads.RedisParams{
				Command: "SET", Ops: 24, Connections: 2, Port: 6380,
			}); err != nil {
				res.ChurnErr = fmt.Errorf("churn round %d: %w", r, err)
				return
			}
			res.ChurnRounds++
		}
	}()

	// The flood: spoofed sources across 10.1.0.0/16, spread over the RSS
	// shards by their own 4-tuples, fired from the load generator's NIC
	// in bursts. Frames are prebuilt so the timed loop measures offered
	// load at the XSK path, not the generator's marshalling speed.
	cli := w.ClientDev()
	dstMAC := [6]byte{2, 0, 0, 0, 0, 2}
	srcMAC := cli.MAC()
	frames := make([][]byte, floodSYNs)
	for i := range frames {
		src := netstack.IP4{10, 1, byte(i >> 8), byte(i)}
		seg := netstack.MarshalTCP(src, experiments.RakisIP,
			uint16(20000+i%30000), floodPort, uint32(i)*2654435761, 0,
			netstack.TCPFlagSYN, 65535, nil)
		pkt := netstack.MarshalIPv4(netstack.IPv4Header{
			TTL: 64, Proto: netstack.ProtoTCP, Src: src, Dst: experiments.RakisIP,
		}, seg)
		frames[i] = netstack.MarshalEth(netstack.EthHeader{
			Dst: dstMAC, Src: srcMAC, Type: netstack.EtherTypeIPv4,
		}, pkt)
	}
	// Pacing is closed-loop, not a fixed sleep: after each burst, wait
	// until the stack has answered most of it before offering the next,
	// so the flood runs at the stack's genuine stateless answer rate
	// instead of open-loop tail-dropping at the RX ring. The wait is on
	// per-burst *progress* with a bounded deadline — injected loss and
	// ring overflow eat absolute counts, so an absolute outstanding
	// window would never drain.
	const floodBurstWait = 50 * time.Millisecond
	start := time.Now()
	last := stats0.CookiesSent
	for i := 0; i < floodSYNs; i++ {
		cli.Transmit(frames[i], 0)
		if (i+1)%floodBurst == 0 {
			deadline := time.Now().Add(floodBurstWait)
			for stack.TCPStats().CookiesSent-last < floodBurst*9/10 &&
				time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			last = stack.TCPStats().CookiesSent
		}
	}
	res.FloodRate = float64(floodSYNs) / time.Since(start).Seconds()

	wg.Wait()
	res.HealthyOps = healthy.Ops

	// Let in-flight teardowns settle before reading the table: healthy
	// connections close asynchronously after the workloads return.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := stack.TCPStats(); st.Conns == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	floodL.Close(nil)

	stats1 := stack.TCPStats()
	res.CookiesSent = stats1.CookiesSent - stats0.CookiesSent
	res.CookiesAccepted = stats1.CookiesAccepted - stats0.CookiesAccepted
	res.Refused = stats1.Refused - stats0.Refused
	res.ConnsAfter = stats1.Conns
	res.ListenersAfter = stats1.Listeners
	res.Granted = w.Space.HostTrustedGranted()
	res.Injected = inj.Counts()
	return res, nil
}

// CellSeed derives a cell's default seed deterministically from the base
// seed and the cell's coordinates, so every cell sees a distinct but
// replayable fault stream.
func CellSeed(base uint64, profile, workload string) uint64 {
	h := base ^ 0xcbf29ce484222325
	for _, s := range []string{profile, "\x00", workload} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 0x100000001b3
		}
	}
	return h
}

// CounterValue looks up a Snapshot field named in a profile's
// ExpectCounters list.
func CounterValue(s vtime.Snapshot, name string) (uint64, bool) {
	f := reflect.ValueOf(s).FieldByName(name)
	if !f.IsValid() {
		return 0, false
	}
	return f.Uint(), true
}

// RunWorkload runs one named workload with small fixed parameters: large
// enough to exercise every data path (XSK RX/TX, io_uring file and TCP,
// poll and epoll), small enough that a full matrix stays test-sized.
// Shared with cmd/rakis-trace, which drives the same cells under any
// environment with telemetry armed.
func RunWorkload(w *experiments.World, name string) error {
	env := w.WorkloadEnv()
	switch name {
	case "helloworld":
		return workloads.HelloWorld(env)
	case "iperf":
		res, err := workloads.IperfUDP(env, workloads.IperfParams{PacketSize: 1024, Count: 300})
		if err != nil {
			return err
		}
		if res.Received < 2 {
			return fmt.Errorf("iperf: only %d datagrams survived", res.Received)
		}
		return nil
	case "memcached":
		_, err := workloads.Memcached(env, workloads.MemcachedParams{
			ServerThreads: 2, ClientThreads: 2, Connections: 4,
			Ops: 120, ValueBytes: 256,
		})
		return err
	case "curl":
		data := workloads.PrepareMcryptInput(64 << 10)
		res, err := workloads.Curl(env, workloads.CurlParams{Path: "/f"},
			func(string) ([]byte, error) { return data, nil })
		if err != nil {
			return err
		}
		if res.Bytes != uint64(len(data)) {
			return fmt.Errorf("curl: downloaded %d of %d bytes", res.Bytes, len(data))
		}
		return nil
	case "redis":
		_, err := workloads.Redis(env, workloads.RedisParams{
			Command: "SET", Ops: 100, Connections: 4, UseEpoll: true,
		})
		return err
	case "fstime":
		_, err := workloads.Fstime(env, workloads.FstimeParams{
			BlockSize: 4096, TotalBytes: 256 << 10,
		})
		return err
	case "mcrypt":
		w.VFS().WriteFile("/data/mcrypt.in", workloads.PrepareMcryptInput(128<<10))
		_, err := workloads.Mcrypt(env, workloads.McryptParams{BlockSize: 16384})
		return err
	}
	return fmt.Errorf("harness: unknown workload %q", name)
}
