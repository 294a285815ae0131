package experiments

import (
	"bytes"
	"testing"

	"rakis/internal/workloads"
)

// TestShardAffinityDifferential pins flow-affine TX directly: on a
// flow-pinned stop-and-wait echo run every flow's echoed stream must be
// exactly the workload's deterministic send schedule, and every shard's
// TX lane must have carried exactly the datagrams its own pump received
// for the flows pinned to it. Shard 0 additionally answers ARP, and the
// only frames any pump receives without answering are the workload's
// stop pills (4 per server thread, spread over the shards by their
// ephemeral ports; the run ends once each thread has eaten one, so some
// may still be on the wire). A reply leaving on any other lane breaks the
// per-shard equality, which is stronger than the retired comparison
// against the round-robin twin (EXPERIMENTS.md, "Retired ablations").
func TestShardAffinityDifferential(t *testing.T) {
	const (
		flows   = 8
		perFlow = 32
		size    = 64
		shards  = 4
	)
	w, err := NewWorld(Options{
		Env: RakisSGX, NumXSKs: shards,
		ServerQueues: shards, ClientQueues: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res, err := workloads.ShardedEcho(w.WorkloadEnv(), workloads.ShardedEchoParams{
		Flows: flows, PerFlow: perFlow, PacketSize: size,
		Shards: shards, ServerThreads: shards, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	want := make([]byte, size)
	pinned := make([]uint64, shards)
	for f, flow := range res.Flows {
		if len(flow.Stream) != perFlow {
			t.Fatalf("flow %d: stream length %d, want %d", f, len(flow.Stream), perFlow)
		}
		pinned[flow.Shard] += perFlow
		putU32t(want, uint32(f))
		for k := 0; k < perFlow; k++ {
			putU32t(want[4:], uint32(k))
			if !bytes.Equal(flow.Stream[k], want) {
				t.Fatalf("flow %d echo %d: stream does not match the send schedule", f, k)
			}
		}
	}
	var unanswered uint64
	for _, s := range w.Rakis().ShardStats() {
		own := pinned[s.Shard]
		switch {
		case s.Shard == 0 && s.TxPkts <= own:
			t.Errorf("shard 0: tx %d frames, want its flows' %d datagrams plus ARP replies", s.TxPkts, own)
		case s.Shard != 0 && s.TxPkts != own:
			t.Errorf("shard %d: tx %d frames, want exactly its flows' %d datagrams", s.Shard, s.TxPkts, own)
		case s.RxPkts < s.TxPkts:
			t.Errorf("shard %d: tx %d frames but rx only %d", s.Shard, s.TxPkts, s.RxPkts)
		}
		unanswered += s.RxPkts - s.TxPkts
	}
	if pills := uint64(shards * 4); unanswered > pills {
		t.Errorf("%d frames received without a reply on their own shard, more than the %d stop pills", unanswered, pills)
	}
}

func putU32t(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
