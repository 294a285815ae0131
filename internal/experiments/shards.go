package experiments

import (
	"fmt"
	"time"

	"rakis"
	"rakis/internal/telemetry"
	"rakis/internal/workloads"
)

// This file is the shard-scaling figure: the sharded data path on
// RAKIS-SGX across XSK shard counts 1..16. Each cell runs a fixed total
// volume of flow-pinned echo (or memcached) traffic, so more shards
// means the same work spread over more pumps — the client-clock
// makespan shrinks and throughput scales near-linearly, while the
// zero-exit UDP fast path keeps exits per op at the single-shard floor.

// ShardCell is one shard-count configuration's measurement.
type ShardCell struct {
	// Name identifies the cell ("echo/4", "memcached/8").
	Name string
	// Shards is the XSK/shard count the world booted with.
	Shards int

	// Ops is the delivered operation count (echo round trips or
	// memcached ops).
	Ops int
	// OpsPerSec is throughput over the client-clock makespan.
	OpsPerSec float64
	// ExitsPerOp is enclave exits per delivered op, measured as a delta
	// around the workload so per-shard boot-time setup exits (which grow
	// with the shard count) don't pollute the steady-state ratio.
	ExitsPerOp float64
	// PerShardRx is each shard pump's delivered-frame count — the
	// balance evidence that the flows actually spread across shards.
	PerShardRx []uint64
	// PerShardTx is each shard TX lane's frame count.
	PerShardTx []uint64
	// Drops is the NIC-queue drop count for the run.
	Drops uint64
}

// shardWorldOptions sizes a world so the NICs are never the bottleneck
// being measured: server queues and client queues both track the shard
// count.
func shardWorldOptions(shards int, sink *telemetry.Sink) Options {
	sq, cq := shards, shards
	if sq < 4 {
		sq = 4
	}
	if cq < 2 {
		cq = 2
	}
	// Each XSK shard owns a 16 MB UMEM plus rings inside the untrusted
	// segment; the default 256 MB segment fits 8 shards with room to
	// spare but not 16, so the segment grows with the shard count.
	untrusted := (64 + 24*shards) << 20
	if untrusted < 1<<28 {
		untrusted = 1 << 28
	}
	return Options{
		Env:            RakisSGX,
		NumXSKs:        shards,
		ServerQueues:   sq,
		ClientQueues:   cq,
		UntrustedBytes: untrusted,
		// The sweep pins kernel busy-poll: at saturation each queue's
		// poll worker drains its rings on its own clock, so the one MM
		// thread multiplexing every shard issues no per-op wakeup
		// syscall — without that, the MM clock is a serial ~1.2 kcyc/op
		// ceiling no shard count clears (the adaptive runtime reaches
		// the same state by flipping hot shards to busy-poll; the figure
		// pins it so the sweep measures sharding, not tuner ramp).
		BusyPoll:  true,
		Telemetry: sink,
	}
}

// shardRollup reads the per-shard counters: from Runtime.ShardStats for
// the struct rollup, and cross-checked against the registry readers so
// the figure consumes the same numbers operators see. A mismatch means
// the telemetry wiring lies — that is a run failure, not a figure row.
func shardRollup(w *World, sink *telemetry.Sink, cell *ShardCell) error {
	// The pumps may still be moving the run's last frames (the servers'
	// poison datagrams): sample until the packet counters hold still
	// across the registry read, so that a mismatch means the wiring
	// lies, not that a frame landed between two reads.
	still := func(a, b []rakis.ShardStat) bool {
		for i := range a {
			if a[i].RxPkts != b[i].RxPkts || a[i].TxPkts != b[i].TxPkts {
				return false
			}
		}
		return true
	}
	stats, vals := w.Rakis().ShardStats(), sink.Reg.Values()
	for try := 0; try < 100 && !still(stats, w.Rakis().ShardStats()); try++ {
		time.Sleep(time.Millisecond)
		stats, vals = w.Rakis().ShardStats(), sink.Reg.Values()
	}
	for _, s := range stats {
		rx, ok := vals[fmt.Sprintf("fm.xsk%d.rx_pkts", s.Shard)]
		if !ok || rx != s.RxPkts {
			return fmt.Errorf("shard %d: registry rx %d (present=%v) != rollup %d",
				s.Shard, rx, ok, s.RxPkts)
		}
		tx, ok := vals[fmt.Sprintf("sm.xsk%d.tx_pkts", s.Shard)]
		if !ok || tx != s.TxPkts {
			return fmt.Errorf("shard %d: registry tx %d (present=%v) != rollup %d",
				s.Shard, tx, ok, s.TxPkts)
		}
		cell.PerShardRx = append(cell.PerShardRx, s.RxPkts)
		cell.PerShardTx = append(cell.PerShardTx, s.TxPkts)
	}
	return nil
}

// RunShardEchoCell measures one sharded-echo cell: fixed total ops
// (Flows x PerFlow is the same at every shard count) on a world with
// the given shard count.
func RunShardEchoCell(scale Scale, shards int) (ShardCell, error) {
	cell := ShardCell{Name: fmt.Sprintf("echo/%d", shards), Shards: shards}
	perFlow := int(128 * float64(scale))
	if perFlow < 16 {
		perFlow = 16
	}
	sink := telemetry.NewSink()
	w, err := NewWorld(shardWorldOptions(shards, sink))
	if err != nil {
		return cell, err
	}
	exits0, _ := sink.Reg.Value("vtime.enclave_exits")
	res, runErr := workloads.ShardedEcho(w.WorkloadEnv(), workloads.ShardedEchoParams{
		Flows:      32,
		PerFlow:    perFlow,
		PacketSize: 256,
		// Deep enough pipelining that the shared data path — not each
		// flow's round-trip latency — bounds the makespan at every
		// shard count in the sweep.
		Window:        8,
		Shards:        shards,
		ServerThreads: shards,
	})
	exits1, _ := sink.Reg.Value("vtime.enclave_exits")
	cell.Drops = w.TotalDrops()
	rollupErr := shardRollup(w, sink, &cell)
	w.Close()
	if runErr != nil {
		return cell, fmt.Errorf("%s: %w", cell.Name, runErr)
	}
	if rollupErr != nil {
		return cell, fmt.Errorf("%s: %w", cell.Name, rollupErr)
	}
	if res.Echoed == 0 || res.Cycles == 0 {
		return cell, fmt.Errorf("%s: nothing echoed", cell.Name)
	}
	cell.Ops = res.Echoed
	cell.OpsPerSec = float64(res.Echoed) / w.Model.Seconds(res.Cycles)
	cell.ExitsPerOp = float64(exits1-exits0) / float64(res.Echoed)
	return cell, nil
}

// RunShardMemcachedCell measures one memcached cell: fixed total ops,
// server threads tracking the shard count.
func RunShardMemcachedCell(scale Scale, shards int) (ShardCell, error) {
	cell := ShardCell{Name: fmt.Sprintf("memcached/%d", shards), Shards: shards}
	ops := int(2000 * float64(scale))
	if ops < 200 {
		ops = 200
	}
	sink := telemetry.NewSink()
	w, err := NewWorld(shardWorldOptions(shards, sink))
	if err != nil {
		return cell, err
	}
	exits0, _ := sink.Reg.Value("vtime.enclave_exits")
	res, runErr := workloads.Memcached(w.WorkloadEnv(), workloads.MemcachedParams{
		ServerThreads: shards,
		// Enough concurrent stop-and-wait connections that the server
		// side stays saturated at the top of the sweep — fewer would
		// let per-connection latency cap the speedup.
		ClientThreads: 8,
		Connections:   64,
		Ops:           ops,
	})
	exits1, _ := sink.Reg.Value("vtime.enclave_exits")
	cell.Drops = w.TotalDrops()
	rollupErr := shardRollup(w, sink, &cell)
	w.Close()
	if runErr != nil {
		return cell, fmt.Errorf("%s: %w", cell.Name, runErr)
	}
	if rollupErr != nil {
		return cell, fmt.Errorf("%s: %w", cell.Name, rollupErr)
	}
	if res.Ops == 0 {
		return cell, fmt.Errorf("%s: no ops completed", cell.Name)
	}
	cell.Ops = res.Ops
	cell.OpsPerSec = res.OpsPerSec
	cell.ExitsPerOp = float64(exits1-exits0) / float64(res.Ops)
	return cell, nil
}

// RunShardScaling measures the full sweep. counts nil means the
// figure's default 1..16 sweep; the gate test passes {1, 8}.
func RunShardScaling(scale Scale, counts []int) ([]ShardCell, error) {
	if counts == nil {
		counts = []int{1, 2, 4, 8, 16}
	}
	var cells []ShardCell
	for _, s := range counts {
		c, err := RunShardEchoCell(scale, s)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	for _, s := range counts {
		c, err := RunShardMemcachedCell(scale, s)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// FigShards renders the shard-scaling figure: throughput and exits/op
// per shard count for both workloads.
func FigShards(scale Scale) ([]Row, error) {
	cells, err := RunShardScaling(scale, nil)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, c := range cells {
		rows = append(rows,
			Row{Env: RakisSGX, Param: c.Name, Value: c.OpsPerSec / 1e3, Unit: "kops/s", Drops: c.Drops},
			Row{Env: RakisSGX, Param: c.Name + "/exits", Value: c.ExitsPerOp, Unit: "exits/op", Drops: c.Drops},
		)
	}
	return rows, nil
}
