package experiments

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"rakis/internal/chaos"
	"rakis/internal/mem"
	"rakis/internal/workloads"
)

// Differential tests for the batched fast path: the batched and scalar
// paths must yield byte-identical datagram streams, identical final ring
// states, and identical certification refusals — batching may change the
// cost of a run, never its observable behavior.

// diffParams derives one random echo workload from a seed: both worlds
// of a differential pair replay the same derived parameters, so any
// divergence is the batched path's fault, not the workload's.
func diffParams(seed int64) workloads.EchoParams {
	rng := rand.New(rand.NewSource(seed))
	return workloads.EchoParams{
		PacketSize: 64 + rng.Intn(900),
		Count:      96 + rng.Intn(96),
		Port:       7,
	}
}

// diffRun is one world's observable outcome: the client's received
// payload stream, the enclave packet counters, the refusal counters, and
// the final trusted ring indices of every XSK.
type diffRun struct {
	res        workloads.EchoResult
	pktRx      uint64
	pktTx      uint64
	bytesRx    uint64
	bytesTx    uint64
	violations uint64
	resyncs    uint64
	rings      [][3]uint32 // per XSK: RX, TX, Fill local indices
}

// runEchoWorld runs the echo workload at the given vector width in one
// RakisSGX world and captures the outcome (see runZCEchoWorld).
func runEchoWorld(t *testing.T, p workloads.EchoParams, batch int, inj *chaos.Injector) diffRun {
	t.Helper()
	return runZCEchoWorld(t, RakisSGX, p, batch, inj)
}

// assertSameStream fails unless the two runs produced byte-identical
// payload streams in identical order.
func assertSameStream(t *testing.T, scalar, batched diffRun, batch int) {
	t.Helper()
	if scalar.res.Echoed != batched.res.Echoed {
		t.Fatalf("b=%d echoed %d datagrams, scalar echoed %d", batch, batched.res.Echoed, scalar.res.Echoed)
	}
	if len(scalar.res.Payloads) != len(batched.res.Payloads) {
		t.Fatalf("b=%d stream length %d, scalar %d", batch, len(batched.res.Payloads), len(scalar.res.Payloads))
	}
	for i := range scalar.res.Payloads {
		if !bytes.Equal(scalar.res.Payloads[i], batched.res.Payloads[i]) {
			t.Fatalf("b=%d datagram %d differs from the scalar stream", batch, i)
		}
	}
}

// TestBatchDifferentialStreams: for random seeded workloads and every
// vector width 1..64, the batched path must deliver the exact datagram
// stream the scalar path delivers, with equal enclave packet accounting,
// equal final ring indices, and zero certification refusals in both
// worlds.
func TestBatchDifferentialStreams(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		p := diffParams(seed)
		scalar := runEchoWorld(t, p, 1, nil)
		if scalar.violations != 0 {
			t.Fatalf("seed %d: scalar run refused %d certifications on a well-behaved host", seed, scalar.violations)
		}
		for _, batch := range []int{2, 7, 32, 64} {
			batched := runEchoWorld(t, p, batch, nil)
			assertSameStream(t, scalar, batched, batch)
			if batched.violations != 0 {
				t.Fatalf("seed %d b=%d: batched run refused %d certifications on a well-behaved host",
					seed, batch, batched.violations)
			}
			if batched.pktRx != scalar.pktRx || batched.pktTx != scalar.pktTx ||
				batched.bytesRx != scalar.bytesRx || batched.bytesTx != scalar.bytesTx {
				t.Fatalf("seed %d b=%d: packet accounting differs: batched rx=%d/%dB tx=%d/%dB scalar rx=%d/%dB tx=%d/%dB",
					seed, batch, batched.pktRx, batched.bytesRx, batched.pktTx, batched.bytesTx,
					scalar.pktRx, scalar.bytesRx, scalar.pktTx, scalar.bytesTx)
			}
			if len(batched.rings) != len(scalar.rings) {
				t.Fatalf("seed %d b=%d: XSK count differs", seed, batch)
			}
			for i := range scalar.rings {
				if batched.rings[i] != scalar.rings[i] {
					t.Fatalf("seed %d b=%d xsk %d: final ring state %v, scalar %v (RX, TX, Fill locals)",
						seed, batch, i, batched.rings[i], scalar.rings[i])
				}
			}
		}
	}
}

// refusalProbe drives one world through traffic, a deterministic hostile
// write, and recovery traffic, returning the refusal counters. The
// hostile write lands in an idle window (no traffic in flight), so the
// FM's certified reads meet it exactly resyncThreshold times before
// quarantine-and-resync heals the cell: the refusal count is exact, not
// statistical, and must be identical in the scalar and batched worlds.
func refusalProbe(t *testing.T, p workloads.EchoParams, batch int) (violations, resyncs uint64) {
	t.Helper()
	w, err := NewWorld(Options{Env: RakisSGX})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p.Batch = batch
	p.Port = 7
	if _, err := workloads.UDPEcho(w.WorkloadEnv(), p, false); err != nil {
		t.Fatalf("b=%d warmup: %v", batch, err)
	}
	if v := w.Counters.RingViolations.Load(); v != 0 {
		t.Fatalf("b=%d: %d refusals before the hostile write", batch, v)
	}

	// The hostile write: a producer index one past the certification
	// window on the RX ring, stored during an idle window. Every pump
	// poll refuses it; the fourth refusal triggers quarantine-and-resync.
	sock := w.Rakis().Pumps()[0].Socket()
	cell, err := w.Space.Atomic32(mem.RoleHost, sock.RX.Base())
	if err != nil {
		t.Fatal(err)
	}
	cell.Store(sock.RX.Local() + sock.RX.Size() + 1)

	deadline := time.Now().Add(5 * time.Second)
	for w.Counters.RingResyncs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("b=%d: quarantine-and-resync never fired (violations=%d)",
				batch, w.Counters.RingViolations.Load())
		}
		time.Sleep(200 * time.Microsecond)
	}

	// The system must have healed: a second workload completes on the
	// resynced ring.
	p.Port = 8
	if _, err := workloads.UDPEcho(w.WorkloadEnv(), p, false); err != nil {
		t.Fatalf("b=%d after resync: %v", batch, err)
	}
	return w.Counters.RingViolations.Load(), w.Counters.RingResyncs.Load()
}

// TestBatchDifferentialRefusals: a deterministic hostile producer value
// must produce the identical certification-refusal outcome on the scalar
// and batched paths — exactly resyncThreshold refusals, one resync, and
// full recovery, in both worlds.
func TestBatchDifferentialRefusals(t *testing.T) {
	p := diffParams(3)
	const wantViolations, wantResyncs = 4, 1 // ring.resyncThreshold consecutive refusals, then one heal
	for _, batch := range []int{1, 32} {
		violations, resyncs := refusalProbe(t, p, batch)
		if violations != wantViolations || resyncs != wantResyncs {
			t.Fatalf("b=%d: %d refusals / %d resyncs, want exactly %d / %d",
				batch, violations, resyncs, wantViolations, wantResyncs)
		}
	}
}

// TestBatchDifferentialUnderChaos: under the completion-profile fault
// injectors of the chaos suite (same profile, same seed in both worlds),
// the batched path must still deliver the byte-identical datagram stream
// the scalar path delivers. Fault timing is not deterministic across the
// two worlds — only completion and stream equality are asserted, the
// same contract the chaos matrix enforces.
func TestBatchDifferentialUnderChaos(t *testing.T) {
	profiles := chaos.Profiles()
	for _, name := range []string{"wakeups", "mmdeath"} {
		prof, ok := profiles[name]
		if !ok {
			t.Fatalf("chaos profile %q missing", name)
		}
		if !prof.RequireCompletion {
			t.Fatalf("profile %q does not require completion; the differential contract needs one that does", name)
		}
		t.Run(name, func(t *testing.T) {
			p := diffParams(4)
			seed := uint64(0x5eed)
			scalar := runEchoWorld(t, p, 1, chaos.New(prof, seed, nil, nil))
			batched := runEchoWorld(t, p, 32, chaos.New(prof, seed, nil, nil))
			assertSameStream(t, scalar, batched, 32)
		})
	}
}
