package rakis_test

// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (§6), plus ablation benches for the design choices DESIGN.md
// calls out. The simulation measures *virtual* time; each benchmark
// reports the figure's metric via b.ReportMetric (virt-Gbps, virt-MB/s,
// virt-kops, virt-ms), so `go test -bench` regenerates the series. Real
// ns/op matters only for the ring microbenchmarks, where the checked
// hot-path cost itself is the quantity of interest.

import (
	"fmt"
	"testing"

	"rakis/internal/experiments"
	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/telemetry"
	"rakis/internal/workloads"
)

func benchWorld(b *testing.B, opt experiments.Options) *experiments.World {
	b.Helper()
	w, err := experiments.NewWorld(opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	return w
}

// BenchmarkFig4aIperf3 regenerates Figure 4(a): UDP throughput per
// environment and packet size.
func BenchmarkFig4aIperf3(b *testing.B) {
	for _, env := range experiments.Environments {
		for _, size := range []int{256, 1460} {
			b.Run(fmt.Sprintf("%s/%dB", env, size), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					w := benchWorld(b, experiments.Options{Env: env})
					res, err := workloads.IperfUDP(w.WorkloadEnv(), workloads.IperfParams{
						PacketSize: size, Count: 800,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res.Gbps
					w.Close()
				}
				b.ReportMetric(last, "virt-Gbps")
			})
		}
	}
}

// BenchmarkFig4bCurl regenerates Figure 4(b): QUIC download duration.
func BenchmarkFig4bCurl(b *testing.B) {
	data := workloads.PrepareMcryptInput(2 << 20)
	for _, env := range experiments.Environments {
		b.Run(env.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				w := benchWorld(b, experiments.Options{Env: env})
				res, err := workloads.Curl(w.WorkloadEnv(), workloads.CurlParams{Path: "/f"},
					func(string) ([]byte, error) { return data, nil })
				if err != nil {
					b.Fatal(err)
				}
				last = res.Seconds * 1e3
				w.Close()
			}
			b.ReportMetric(last, "virt-ms")
		})
	}
}

// BenchmarkFig4cMemcached regenerates Figure 4(c): throughput across
// server thread counts with four XSKs.
func BenchmarkFig4cMemcached(b *testing.B) {
	for _, env := range experiments.Environments {
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/%dthr", env, threads), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					w := benchWorld(b, experiments.Options{Env: env, NumXSKs: 4, ServerQueues: 8})
					res, err := workloads.Memcached(w.WorkloadEnv(), workloads.MemcachedParams{
						ServerThreads: threads, Ops: 1200,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res.OpsPerSec / 1e3
					w.Close()
				}
				b.ReportMetric(last, "virt-kops")
			})
		}
	}
}

// BenchmarkFig5aFstime regenerates Figure 5(a): write throughput across
// block sizes.
func BenchmarkFig5aFstime(b *testing.B) {
	for _, env := range experiments.Environments {
		for _, block := range []int{1024, 65536} {
			b.Run(fmt.Sprintf("%s/%dB", env, block), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					w := benchWorld(b, experiments.Options{Env: env})
					res, err := workloads.Fstime(w.WorkloadEnv(), workloads.FstimeParams{
						BlockSize: block, TotalBytes: 2 << 20,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res.KBps / 1024
					w.Close()
				}
				b.ReportMetric(last, "virt-MB/s")
			})
		}
	}
}

// BenchmarkFig5bRedis regenerates Figure 5(b): request throughput per
// command.
func BenchmarkFig5bRedis(b *testing.B) {
	for _, env := range experiments.Environments {
		for _, cmd := range []string{"PING", "GET"} {
			b.Run(fmt.Sprintf("%s/%s", env, cmd), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					w := benchWorld(b, experiments.Options{Env: env})
					res, err := workloads.Redis(w.WorkloadEnv(), workloads.RedisParams{
						Command: cmd, Ops: 600, Connections: 20,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res.OpsPerSec / 1e3
					w.Close()
				}
				b.ReportMetric(last, "virt-kops")
			})
		}
	}
}

// BenchmarkFig5cMcrypt regenerates Figure 5(c): encryption duration per
// read block size.
func BenchmarkFig5cMcrypt(b *testing.B) {
	input := workloads.PrepareMcryptInput(4 << 20)
	for _, env := range experiments.Environments {
		for _, block := range []int{16384, 262144} {
			b.Run(fmt.Sprintf("%s/%dKB", env, block>>10), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					w := benchWorld(b, experiments.Options{Env: env})
					w.VFS().WriteFile("/data/mcrypt.in", input)
					res, err := workloads.Mcrypt(w.WorkloadEnv(), workloads.McryptParams{BlockSize: block})
					if err != nil {
						b.Fatal(err)
					}
					last = res.Seconds * 1e3
					w.Close()
				}
				b.ReportMetric(last, "virt-ms")
			})
		}
	}
}

// BenchmarkFig2EnclaveExits regenerates Figure 2: exit counts, read from
// the telemetry registry's exit gauge — the same source of truth as the
// cmd/rakis-trace breakdown.
func BenchmarkFig2EnclaveExits(b *testing.B) {
	for _, env := range []experiments.Environment{experiments.GramineSGX, experiments.RakisSGX} {
		b.Run(env.String(), func(b *testing.B) {
			var exits float64
			for i := 0; i < b.N; i++ {
				sink := telemetry.NewSink()
				w := benchWorld(b, experiments.Options{Env: env, Telemetry: sink})
				if _, err := workloads.IperfUDP(w.WorkloadEnv(), workloads.IperfParams{
					PacketSize: 1460, Count: 800,
				}); err != nil {
					b.Fatal(err)
				}
				v, ok := sink.Reg.Value("vtime.enclave_exits")
				if !ok {
					b.Fatal("exit gauge missing from registry")
				}
				exits = float64(v)
				w.Close()
			}
			b.ReportMetric(exits, "exits")
		})
	}
}

// --- ablations (DESIGN.md) --------------------------------------------------

// BenchmarkAblationRingChecks measures the real hot-path cost of the
// Table 2 certification: certified vs uncertified ring produce+consume.
func BenchmarkAblationRingChecks(b *testing.B) {
	for _, certified := range []bool{true, false} {
		name := "certified"
		if !certified {
			name = "unchecked"
		}
		b.Run(name, func(b *testing.B) {
			sp := mem.NewSpace(1<<12, 1<<16)
			base, _ := sp.Alloc(mem.Untrusted, ring.TotalBytes(2048, 8), 64)
			prod, err := ring.New(ring.Config{
				Space: sp, Access: mem.RoleEnclave, Base: base,
				Size: 2048, EntrySize: 8, Side: ring.Producer, Certified: certified,
			})
			if err != nil {
				b.Fatal(err)
			}
			cons, err := ring.New(ring.Config{
				Space: sp, Access: mem.RoleHost, Base: base,
				Size: 2048, EntrySize: 8, Side: ring.Consumer, Certified: certified,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if free, _ := prod.Free(); free > 0 {
					prod.WriteU64(0, uint64(i))
					prod.Submit(1, 0)
				}
				if avail, _ := cons.Available(); avail > 0 {
					cons.ReadU64(0)
					cons.Release(1)
				}
			}
		})
	}
}

// BenchmarkAblationXSKCount shows the multi-queue scaling the Memcached
// experiment depends on: one XSK versus four.
func BenchmarkAblationXSKCount(b *testing.B) {
	for _, xsks := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dxsk", xsks), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				w := benchWorld(b, experiments.Options{
					Env: experiments.RakisSGX, NumXSKs: xsks, ServerQueues: 8,
				})
				res, err := workloads.Memcached(w.WorkloadEnv(), workloads.MemcachedParams{
					ServerThreads: 4, Ops: 1200,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.OpsPerSec / 1e3
				w.Close()
			}
			b.ReportMetric(last, "virt-kops")
		})
	}
}

// BenchmarkAblationIoUringDepth varies the fstime block size to expose
// the io_uring wake-latency amortization the paper's §6.2 discusses.
func BenchmarkAblationIoUringDepth(b *testing.B) {
	for _, block := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("%dB", block), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				w := benchWorld(b, experiments.Options{Env: experiments.RakisSGX})
				res, err := workloads.Fstime(w.WorkloadEnv(), workloads.FstimeParams{
					BlockSize: block, TotalBytes: 1 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.KBps / 1024
				w.Close()
			}
			b.ReportMetric(last, "virt-MB/s")
		})
	}
}

// BenchmarkAblationSelectVsEpoll compares the paper's select-based Redis
// event loop (forced by the prototype's missing epoll, §6.2) against the
// epoll extension this reproduction adds, under RAKIS-SGX.
func BenchmarkAblationSelectVsEpoll(b *testing.B) {
	for _, epoll := range []bool{false, true} {
		name := "select"
		if epoll {
			name = "epoll"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				w := benchWorld(b, experiments.Options{Env: experiments.RakisSGX})
				res, err := workloads.Redis(w.WorkloadEnv(), workloads.RedisParams{
					Command: "GET", Ops: 600, Connections: 20, UseEpoll: epoll,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.OpsPerSec / 1e3
				w.Close()
			}
			b.ReportMetric(last, "virt-kops")
		})
	}
}
