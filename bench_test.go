package rakis_test

// Ablation benches for the design choices DESIGN.md calls out; the
// paper's figures are rakis-bench's (`go run ./cmd/rakis-bench -fig ...`).
// The simulation measures *virtual* time; each benchmark reports its
// metric via b.ReportMetric (virt-MB/s, virt-kops). Real ns/op matters
// only for the ring microbenchmark, where the checked hot-path cost
// itself is the quantity of interest.

import (
	"fmt"
	"testing"

	"rakis/internal/experiments"
	"rakis/internal/mem"
	"rakis/internal/ring"
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
