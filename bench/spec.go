package main

// metricSpec is one metric as BENCHMARK.json declares it. The table
// below and the file must agree; the package test compares them.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the parent's median it may worsen by
}

const (
	higher = "higher"
	lower  = "lower"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 12

// endToEnd are the metrics of an untraced run, the same on every
// workload. None of them can read 0, and each repeats run to run within
// a third of its bound on the box the benchmark was sized on.
// exits_per_op and fail_ratio read 0 on a healthy RAKIS run, so they are
// per-layer metrics and the run's failed/attempted/correct fields carry
// the failures; the resident-set peak moves by a quarter from run to run
// with the collector's timing, so it is the per-layer proc.mem_peak_mb.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"host_ops_per_s", "1/s", higher, 0.25},
	{"virt_ops_per_s", "1/s", higher, 0.02},
	{"allocs_per_op", "count", lower, 0.05},
	{"bytes_per_op", "B", lower, 0.02},
	{"heap_live_mb", "MB", lower, 0.05},
}

// perLayer are the metrics of a traced run, in README order.
var perLayer = []metricSpec{
	{Name: "exits_per_op", Unit: "count", Better: lower},
	{Name: "fail_ratio", Unit: "ratio", Better: lower},

	{Name: "virt.exit_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.copy_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.validate_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.ring_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.stack_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.api_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.wait_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.other_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.app_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.pump_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.mm_cyc_per_op", Unit: "cyc", Better: lower},
	{Name: "virt.txdrv_cyc_per_op", Unit: "cyc", Better: lower},

	{Name: "cpu.ring", Unit: "share", Better: lower},
	{Name: "cpu.umem", Unit: "share", Better: lower},
	{Name: "cpu.xsk", Unit: "share", Better: lower},
	{Name: "cpu.netstack", Unit: "share", Better: lower},
	{Name: "cpu.fm", Unit: "share", Better: lower},
	{Name: "cpu.sm", Unit: "share", Better: lower},
	{Name: "cpu.mm", Unit: "share", Better: lower},
	{Name: "cpu.iouring", Unit: "share", Better: lower},
	{Name: "cpu.libos", Unit: "share", Better: lower},
	{Name: "cpu.rakis", Unit: "share", Better: lower},
	{Name: "cpu.mem", Unit: "share", Better: lower},
	{Name: "cpu.vtime", Unit: "share", Better: lower},
	{Name: "cpu.telemetry", Unit: "share", Better: lower},
	{Name: "cpu.hostos", Unit: "share", Better: lower},
	{Name: "cpu.netsim", Unit: "share", Better: lower},
	{Name: "cpu.bench", Unit: "share", Better: lower},
	{Name: "cpu.runtime", Unit: "share", Better: lower},

	{Name: "api.recv.ns_per_op", Unit: "ns", Better: lower},
	{Name: "api.send.ns_per_op", Unit: "ns", Better: lower},
	{Name: "api.wait.ns_per_op", Unit: "ns", Better: lower},
	{Name: "client.rtt_p50_us", Unit: "us", Better: lower},
	{Name: "client.rtt_p99_us", Unit: "us", Better: lower},
	{Name: "client.rtt_samples", Unit: "count", Better: higher},
	{Name: "client.virt_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "client.virt_rtt_p99_us", Unit: "us", Better: lower},

	{Name: "libos.syscalls_per_op", Unit: "count", Better: lower},
	{Name: "mm.wakeups_per_op", Unit: "count", Better: lower},
	{Name: "mm.wakeups_suppressed_per_op", Unit: "count", Better: higher},
	{Name: "mm.wakeups_coalesced_per_op", Unit: "count", Better: higher},
	{Name: "fm.rx_pkts_per_op", Unit: "count", Better: lower},
	{Name: "sm.tx_pkts_per_op", Unit: "count", Better: lower},
	{Name: "fm.rx_shard_imbalance", Unit: "ratio", Better: lower},
	{Name: "sm.batched_msgs_per_call", Unit: "count", Better: higher},
	{Name: "netstack.copy_bytes_saved_per_op", Unit: "B", Better: higher},
	{Name: "iouring.ops_per_op", Unit: "count", Better: lower},
	{Name: "fm.submit_retries_per_op", Unit: "count", Better: lower},
	{Name: "fm.wakeup_retries_per_op", Unit: "count", Better: lower},
	{Name: "xsk.refusals_per_op", Unit: "count", Better: lower},
	{Name: "ring.violations", Unit: "count", Better: lower},
	{Name: "umem.violations", Unit: "count", Better: lower},
	{Name: "netsim.drops_per_op", Unit: "count", Better: lower},
	{Name: "netstack.tcp_cookies_sent", Unit: "count", Better: lower},
	{Name: "netstack.tcp_refused", Unit: "count", Better: lower},
	{Name: "fm.qdepth_p50", Unit: "count", Better: lower},
	{Name: "fm.qdepth_p99", Unit: "count", Better: lower},
	{Name: "app.qdepth_p99", Unit: "count", Better: lower},

	{Name: "proc.cpu_ns_per_op", Unit: "ns", Better: lower},
	{Name: "proc.cpu_util", Unit: "ratio", Better: higher},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "proc.goroutines", Unit: "count", Better: lower},
	{Name: "proc.mem_peak_mb", Unit: "MB", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher},

	{Name: "ring.submit_release.ns_per_op", Unit: "ns", Better: lower},
	{Name: "ring.submit_release.allocs_per_op", Unit: "count", Better: lower},
	{Name: "umem.validate_release.ns_per_op", Unit: "ns", Better: lower},
	{Name: "umem.validate_release.allocs_per_op", Unit: "count", Better: lower},
	{Name: "xsk.recv_views.ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "xsk.recv_views.allocs_per_op", Unit: "count", Better: lower},
	{Name: "xsk.send_batch.ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "xsk.send_batch.allocs_per_op", Unit: "count", Better: lower},
	{Name: "netstack.input_view_udp.ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "netstack.input_view_udp.allocs_per_op", Unit: "count", Better: lower},
	{Name: "netstack.udp_sendto.ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "netstack.udp_sendto.allocs_per_op", Unit: "count", Better: lower},
	{Name: "netstack.input_view_tcp.ns_per_seg", Unit: "ns", Better: lower},
	{Name: "netstack.input_view_tcp.allocs_per_op", Unit: "count", Better: lower},
	{Name: "iouring.submit_wait.ns_per_op", Unit: "ns", Better: lower},
	{Name: "iouring.submit_wait.allocs_per_op", Unit: "count", Better: lower},
	{Name: "mem.snapshot.ns_per_op", Unit: "ns", Better: lower},
	{Name: "mem.snapshot.allocs_per_op", Unit: "count", Better: lower},
	{Name: "mem.view_copyout.ns_per_kb", Unit: "ns", Better: lower},
	{Name: "mem.view_copyout.allocs_per_op", Unit: "count", Better: lower},
	{Name: "telemetry.hook_disabled.ns_per_op", Unit: "ns", Better: lower},
	{Name: "telemetry.hook_disabled.allocs_per_op", Unit: "count", Better: lower},
	{Name: "telemetry.hook_enabled.ns_per_op", Unit: "ns", Better: lower},
	{Name: "telemetry.hook_enabled.allocs_per_op", Unit: "count", Better: lower},
}

func specOf(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
