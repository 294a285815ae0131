package main

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// apiSpans times the calls one server thread makes into the system,
// from the benchmark's side of the API. It is off (and free) on an
// untraced run. One thread writes it; the harness reads it at the edges
// of the timed window.
type apiSpans struct {
	on bool
	ns [numSpans]atomic.Int64
}

// The three span classes: taking requests in (RecvFrom, RecvFromN, Recv,
// Accept, Pread), pushing replies out (SendTo, SendToN, Send, Pwrite),
// and calls that had nothing to do and blocked (a blocking receive,
// EpollWait, Fsync).
const (
	spanRecv = iota
	spanSend
	spanWait
	numSpans
)

var spanNames = [numSpans]string{"recv", "send", "wait"}

func (a *apiSpans) begin() int64 {
	if a == nil || !a.on {
		return 0
	}
	return time.Now().UnixNano()
}

// end closes a span opened by begin.
func (a *apiSpans) end(kind int, t0 int64) {
	if a == nil || !a.on {
		return
	}
	a.ns[kind].Add(time.Now().UnixNano() - t0)
}

func spanTotals(spans []*apiSpans) (ns [numSpans]int64) {
	for _, a := range spans {
		for k := range ns {
			ns[k] += a.ns[k].Load()
		}
	}
	return ns
}

// runTraced is the per-layer run. It runs the layer drivers, then an
// untraced reference window (a quarter of the time), then the traced
// window (half of the time) on a world booted with telemetry, the event
// tracer on, benchmark-side spans around every server and client call,
// and a CPU profile. Every per-layer metric comes out of it, for every
// workload; a metric whose layer the workload does not use reads 0.
func runTraced(cfg runConfig) (*report, error) {
	m, err := runLayers(cfg.warmScale)
	if err != nil {
		return nil, err
	}

	ref, err := setUp(cfg, false)
	if err != nil {
		return nil, err
	}
	r0, err := measure(ref, cfg.seconds/4, false)
	if err != nil {
		return nil, err
	}
	if err := ref.tearDown(); err != nil {
		return nil, err
	}

	s, err := setUp(cfg, true)
	if err != nil {
		return nil, err
	}
	spans0 := spanTotals(s.inst.spans)
	r, err := measure(s, cfg.seconds/2, true)
	if err != nil {
		return nil, err
	}
	spans1 := spanTotals(s.inst.spans)
	if err := checkFailRatio(r); err != nil {
		return nil, err
	}
	rep := &report{attempted: r.attempted, failed: r.failed, correct: r.failed == 0, metrics: m}
	rep.fault(s.tearDown())
	// With the world closed every clock is quiet: the components must
	// add up to the thread ledgers exactly.
	rep.fault(s.sink.CheckConservation())

	ops := float64(r.ops)
	model := s.w.Model
	b, a := &r.before, &r.after

	// Virtual cycles by component and by thread family, from the
	// breakdown's per-thread ledgers.
	var comp [vtime.NumComp]float64
	family := map[string]float64{"app": 0, "fm": 0, "mm": 0, "txdrv": 0}
	before := make(map[string]telemetry.ThreadRow)
	for _, t := range b.bd.Threads {
		before[t.Thread] = t
	}
	for _, t := range a.bd.Threads {
		fam, _, _ := strings.Cut(t.Thread, ".")
		for c := 0; c < vtime.NumComp; c++ {
			name := vtime.Comp(c).String()
			d := float64(t.Comp[name] - before[t.Thread].Comp[name])
			comp[c] += d
			if _, ok := family[fam]; ok {
				family[fam] += d
			}
		}
	}
	for c := 0; c < vtime.NumComp; c++ {
		m["virt."+vtime.Comp(c).String()+"_cyc_per_op"] = comp[c] / ops
	}
	m["virt.app_cyc_per_op"] = family["app"] / ops
	m["virt.pump_cyc_per_op"] = family["fm"] / ops
	m["virt.mm_cyc_per_op"] = family["mm"] / ops
	m["virt.txdrv_cyc_per_op"] = family["txdrv"] / ops

	shares, err := cpuShares(r.profile)
	if err != nil {
		return nil, err
	}
	for name, share := range shares {
		m["cpu."+name] = share
	}

	for k, name := range spanNames {
		m["api."+name+".ns_per_op"] = float64(spans1[k]-spans0[k]) / ops
	}
	var rttNS, rttCyc []float64
	for _, f := range s.inst.flows {
		for _, v := range f.tally().rttNS {
			rttNS = append(rttNS, float64(v)/1e3)
		}
		for _, v := range f.tally().rttCyc {
			rttCyc = append(rttCyc, model.Seconds(uint64(v))*1e6)
		}
	}
	sort.Float64s(rttNS)
	sort.Float64s(rttCyc)
	m["client.rtt_p50_us"] = quantile(rttNS, 0.50)
	m["client.rtt_p99_us"] = quantile(rttNS, 0.99)
	m["client.rtt_samples"] = float64(len(rttNS))
	m["client.virt_rtt_p50_us"] = quantile(rttCyc, 0.50)
	m["client.virt_rtt_p99_us"] = quantile(rttCyc, 0.99)

	c := a.counters.Sub(b.counters)
	perOp := func(v uint64) float64 { return float64(v) / ops }
	m["exits_per_op"] = perOp(c.EnclaveExits)
	m["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	m["libos.syscalls_per_op"] = perOp(c.LibOSCalls)
	m["mm.wakeups_per_op"] = perOp(c.Wakeups)
	m["mm.wakeups_coalesced_per_op"] = perOp(c.WakeupsCoalesced)
	m["sm.batched_msgs_per_call"] = 0
	if c.BatchCalls > 0 {
		m["sm.batched_msgs_per_call"] = float64(c.BatchedMsgs) / float64(c.BatchCalls)
	}
	m["netstack.copy_bytes_saved_per_op"] = perOp(c.CopyBytesSaved)
	m["iouring.ops_per_op"] = perOp(c.IoUringOps)
	m["fm.submit_retries_per_op"] = perOp(c.SubmitRetries)
	m["fm.wakeup_retries_per_op"] = perOp(c.WakeupRetries)
	m["ring.violations"] = float64(c.RingViolations)
	m["umem.violations"] = float64(c.UMemViolations)
	m["netsim.drops_per_op"] = perOp(a.drops - b.drops + c.PacketsDropped)
	m["netstack.tcp_cookies_sent"] = float64(c.TCPCookiesSent)
	m["netstack.tcp_refused"] = float64(c.TCPRefused)

	var rx, tx, suppressed, refusals, rxMax uint64
	for i := range a.shards {
		d := a.shards[i].RxPkts - b.shards[i].RxPkts
		rx += d
		if d > rxMax {
			rxMax = d
		}
		tx += a.shards[i].TxPkts - b.shards[i].TxPkts
		suppressed += a.shards[i].Suppressed - b.shards[i].Suppressed
		refusals += a.shards[i].Refusals - b.shards[i].Refusals
	}
	m["fm.rx_pkts_per_op"] = perOp(rx)
	m["sm.tx_pkts_per_op"] = perOp(tx)
	m["mm.wakeups_suppressed_per_op"] = perOp(suppressed)
	m["xsk.refusals_per_op"] = perOp(refusals)
	m["fm.rx_shard_imbalance"] = 0
	if rx > 0 {
		m["fm.rx_shard_imbalance"] = float64(rxMax) * float64(len(a.shards)) / float64(rx)
	}

	var fmDepth telemetry.HistSnapshot
	for name, h := range a.depth {
		if strings.HasPrefix(name, "fm.") {
			fmDepth = fmDepth.Merge(h.Sub(b.depth[name]))
		}
	}
	appDepth := a.depth["app.qdepth"].Sub(b.depth["app.qdepth"])
	m["fm.qdepth_p50"] = float64(fmDepth.Quantile(0.50))
	m["fm.qdepth_p99"] = float64(fmDepth.Quantile(0.99))
	m["app.qdepth_p99"] = float64(appDepth.Quantile(0.99))

	cpu := float64(a.cpu - b.cpu)
	m["proc.cpu_ns_per_op"] = cpu / ops
	m["proc.cpu_util"] = cpu / float64(a.at.Sub(b.at))
	m["proc.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	m["proc.gc_pause_ms"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	m["proc.goroutines"] = float64(r.goroutines)
	m["proc.mem_peak_mb"] = peakRSSMB()
	m["trace.overhead_ratio"] = r.hostOpsPerS / r0.hostOpsPerS
	if len(m) != len(perLayer) {
		return nil, fmt.Errorf("traced run produced %d metrics, BENCHMARK.json lists %d", len(m), len(perLayer))
	}
	return rep, nil
}
