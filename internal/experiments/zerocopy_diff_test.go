package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"rakis/internal/chaos"
	"rakis/internal/netstack"
	"rakis/internal/workloads"
)

// Differential tests for the zero-copy RX/splice datapath. The copying
// RX path these once compared against is gone (EXPERIMENTS.md, "Retired
// ablations"); the certify-in-place path is held to references that
// remain: the byte stream the workload sent (derived from the diffParams
// seed), the Native environment's stream for the same seed, exact packet
// and ring accounting against the delivered count, and the fixed
// refusal/resync constants.

// Per-datagram wire overhead of the echo workload, and the one ARP
// exchange (request in, reply out) every RAKIS run opens with.
const (
	udpWireOverhead = netstack.EthHeaderBytes + netstack.IPv4HeaderBytes + netstack.UDPHeaderBytes
	arpFrameBytes   = netstack.EthHeaderBytes + 28
)

// runZCEchoWorld builds one world in the given environment, runs the
// echo workload, quiesces the pumps, and captures the outcome. The
// diffRun shape and the stream assertion are shared with the batch
// differential suite.
func runZCEchoWorld(t *testing.T, env Environment, p workloads.EchoParams, batch int, inj *chaos.Injector) diffRun {
	t.Helper()
	p.Batch = batch
	w, err := NewWorld(Options{Env: env, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res, err := workloads.UDPEcho(w.WorkloadEnv(), p, true)
	if err != nil {
		t.Fatalf("%v b=%d: %v", env, batch, err)
	}
	d := diffRun{
		res:        res,
		pktRx:      w.Counters.PacketsRx.Load(),
		pktTx:      w.Counters.PacketsTx.Load(),
		bytesRx:    w.Counters.BytesRx.Load(),
		bytesTx:    w.Counters.BytesTx.Load(),
		violations: w.Counters.RingViolations.Load() + w.Counters.UMemViolations.Load(),
		resyncs:    w.Counters.RingResyncs.Load(),
	}
	// Quiesce the pumps so the trusted ring shadows stop moving, then
	// record them. Completion-ring indices are excluded: TX-completion
	// reaping races the shutdown and is invisible to the application.
	if rt := w.Rakis(); rt != nil {
		for _, pump := range rt.Pumps() {
			pump.Close()
		}
		for _, pump := range rt.Pumps() {
			s := pump.Socket()
			d.rings = append(d.rings, [3]uint32{s.RX.Local(), s.TX.Local(), s.Fill.Local()})
		}
	}
	return d
}

// assertSentStream fails unless the run delivered exactly the stream the
// echo client sent: p.Count datagrams of p.PacketSize bytes, zero but
// for the big-endian sequence number in the first four.
func assertSentStream(t *testing.T, got diffRun, p workloads.EchoParams, label string) {
	t.Helper()
	if got.res.Echoed != p.Count || len(got.res.Payloads) != p.Count {
		t.Fatalf("%s: echoed %d (%d payloads), sent %d", label, got.res.Echoed, len(got.res.Payloads), p.Count)
	}
	want := make([]byte, p.PacketSize)
	for i, payload := range got.res.Payloads {
		putU32t(want, uint32(i))
		if !bytes.Equal(payload, want) {
			t.Fatalf("%s: datagram %d differs from the one sent", label, i)
		}
	}
}

// assertEchoAccounting holds a well-behaved-host echo run's counters and
// final trusted ring indices to the delivered count n: no refusals; on
// RAKIS every datagram is one xRX frame in and one xTX frame out (each
// counted once by the XSK and once by the enclave stack) plus the ARP
// exchange, and the quiesced fill ring is full again; on the baselines
// the kernel stack counts each datagram once.
func assertEchoAccounting(t *testing.T, env Environment, got diffRun, p workloads.EchoParams, label string) {
	t.Helper()
	if got.violations != 0 {
		t.Fatalf("%s: %d certifications refused on a well-behaved host", label, got.violations)
	}
	n := uint64(got.res.Echoed)
	l4 := n * uint64(p.PacketSize+netstack.UDPHeaderBytes)
	want := diffRun{pktRx: n, pktTx: n, bytesRx: l4}
	if env.IsRakis() {
		wire := n*uint64(p.PacketSize+udpWireOverhead) + arpFrameBytes
		want = diffRun{pktRx: 2*n + 1, pktTx: 2*n + 1, bytesRx: wire + l4, bytesTx: wire}
		frames := uint32(n) + 1
		want.rings = [][3]uint32{{frames, frames, 2048 + frames}}
	}
	if got.pktRx != want.pktRx || got.pktTx != want.pktTx ||
		got.bytesRx != want.bytesRx || got.bytesTx != want.bytesTx {
		t.Fatalf("%s: packet accounting rx=%d/%dB tx=%d/%dB, want rx=%d/%dB tx=%d/%dB for %d delivered",
			label, got.pktRx, got.bytesRx, got.pktTx, got.bytesTx,
			want.pktRx, want.bytesRx, want.pktTx, want.bytesTx, n)
	}
	if len(got.rings) != len(want.rings) {
		t.Fatalf("%s: %d XSKs, want %d", label, len(got.rings), len(want.rings))
	}
	for i := range want.rings {
		if got.rings[i] != want.rings[i] {
			t.Fatalf("%s xsk %d: final ring state %v, want %v (RX, TX, Fill locals) for %d delivered",
				label, i, got.rings[i], want.rings[i], n)
		}
	}
}

// TestZerocopyDifferentialStreams: for a seeded random echo workload at
// vector widths 1..64 in every environment, the delivered datagram
// stream must be the stream that was sent and the stream Native
// delivers, with packet accounting and final ring indices exact against
// the delivered count and zero refusals. The baselines run one width.
func TestZerocopyDifferentialStreams(t *testing.T) {
	p := diffParams(11)
	native := runZCEchoWorld(t, Native, p, 1, nil)
	for _, env := range Environments {
		widths := []int{1, 7, 32, 64}
		if !env.IsRakis() {
			widths = []int{1}
		}
		for _, batch := range widths {
			label := fmt.Sprintf("%v b=%d", env, batch)
			got := runZCEchoWorld(t, env, p, batch, nil)
			assertSentStream(t, got, p, label)
			assertSameStream(t, native, got, batch)
			assertEchoAccounting(t, env, got, p, label)
		}
	}
}

// TestZerocopyDifferentialIperf: the datagram-blast shape (no echo —
// pure RX pressure, large frames) must deliver every datagram sent, as
// Native does, with exact packet accounting and no refusals.
func TestZerocopyDifferentialIperf(t *testing.T) {
	params := workloads.IperfParams{PacketSize: 1460, Count: 400}
	run := func(env Environment) (workloads.IperfResult, [2]uint64, uint64) {
		w, err := NewWorld(Options{Env: env})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		res, err := workloads.IperfUDP(w.WorkloadEnv(), params)
		if err != nil {
			t.Fatalf("%v: %v", env, err)
		}
		return res,
			[2]uint64{w.Counters.PacketsRx.Load(), w.Counters.BytesRx.Load()},
			w.Counters.RingViolations.Load() + w.Counters.UMemViolations.Load()
	}
	nres, _, _ := run(Native)
	zres, zcnt, zviol := run(RakisSGX)
	if zviol != 0 {
		t.Fatalf("%d refusals on a well-behaved host", zviol)
	}
	if zres.Received != params.Count || zres.Bytes != uint64(params.Count*params.PacketSize) {
		t.Fatalf("delivered %d/%dB of %d x %dB sent", zres.Received, zres.Bytes, params.Count, params.PacketSize)
	}
	if zres.Received != nres.Received || zres.Bytes != nres.Bytes {
		t.Fatalf("delivery differs from Native: %d/%dB vs %d/%dB", zres.Received, zres.Bytes, nres.Received, nres.Bytes)
	}
	// The XSK and the enclave stack each count every datagram; the XSK
	// also counts the ARP request.
	n := uint64(zres.Received)
	l4 := n * uint64(params.PacketSize+netstack.UDPHeaderBytes)
	want := [2]uint64{2*n + 1, n*uint64(params.PacketSize+udpWireOverhead) + arpFrameBytes + l4}
	if zcnt != want {
		t.Fatalf("packet accounting %v, want %v for %d delivered", zcnt, want, n)
	}
}

// TestZerocopyDifferentialMemcached: the request/response workload (two
// directions, many sockets) must complete the op count Native completes
// with zero refusals. Exact packet counts are not asserted: the
// memaslap-style client emits timing-dependent retries, so packet
// accounting varies between runs of the SAME world (measured: ±1
// request) — op completion and refusal-freedom are the deterministic
// contract here.
func TestZerocopyDifferentialMemcached(t *testing.T) {
	params := workloads.MemcachedParams{ServerThreads: 2, Ops: 400}
	run := func(env Environment) (workloads.MemcachedResult, uint64) {
		w, err := NewWorld(Options{Env: env})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		res, err := workloads.Memcached(w.WorkloadEnv(), params)
		if err != nil {
			t.Fatalf("%v: %v", env, err)
		}
		return res, w.Counters.RingViolations.Load() + w.Counters.UMemViolations.Load()
	}
	nres, _ := run(Native)
	zres, zviol := run(RakisSGX)
	if zviol != 0 {
		t.Fatalf("%d refusals on a well-behaved host", zviol)
	}
	if zres.Ops != params.Ops || zres.Ops != nres.Ops {
		t.Fatalf("completed %d ops, Native %d, asked for %d", zres.Ops, nres.Ops, params.Ops)
	}
}

// TestZerocopyDifferentialRefusals: a deterministic hostile producer
// value must produce the exact certification-refusal outcome on the view
// path at width 1 — resyncThreshold refusals, one resync, and full
// recovery (refusalProbe, shared with the batch suite).
func TestZerocopyDifferentialRefusals(t *testing.T) {
	const wantViolations, wantResyncs = 4, 1
	violations, resyncs := refusalProbe(t, diffParams(12), 1)
	if violations != wantViolations || resyncs != wantResyncs {
		t.Fatalf("%d refusals / %d resyncs, want exactly %d / %d",
			violations, resyncs, wantViolations, wantResyncs)
	}
}

// TestZerocopyDifferentialUnderChaos: under the completion-requiring
// fault profiles, the view path must still deliver the byte-identical
// datagram stream that was sent — the one a fault-free Native run
// delivers.
func TestZerocopyDifferentialUnderChaos(t *testing.T) {
	profiles := chaos.Profiles()
	p := diffParams(13)
	native := runZCEchoWorld(t, Native, p, 8, nil)
	for _, name := range []string{"wakeups", "mmdeath"} {
		prof, ok := profiles[name]
		if !ok {
			t.Fatalf("chaos profile %q missing", name)
		}
		if !prof.RequireCompletion {
			t.Fatalf("profile %q does not require completion; the differential contract needs one that does", name)
		}
		t.Run(name, func(t *testing.T) {
			got := runZCEchoWorld(t, RakisSGX, p, 8, chaos.New(prof, 0x2ce0, nil, nil))
			assertSentStream(t, got, p, name)
			assertSameStream(t, native, got, 8)
		})
	}
}

// TestZerocopyProxySplice: the splice path itself — the proxy workload
// must run over the in-stack reflector under RAKIS (zero app-boundary
// copies) and over the socket echo everywhere else, delivering the same
// payload stream either way.
func TestZerocopyProxySplice(t *testing.T) {
	p := workloads.ProxyParams{PacketSize: 700, Count: 128}
	var want [][]byte
	for _, env := range Environments {
		w, err := NewWorld(Options{Env: env})
		if err != nil {
			t.Fatal(err)
		}
		res, err := workloads.UDPProxy(w.WorkloadEnv(), p, true)
		viol := w.Counters.RingViolations.Load() + w.Counters.UMemViolations.Load()
		w.Close()
		if err != nil {
			t.Fatalf("%v: %v", env, err)
		}
		if res.Spliced != env.IsRakis() {
			t.Fatalf("%v: spliced=%v, want %v", env, res.Spliced, env.IsRakis())
		}
		if viol != 0 {
			t.Fatalf("%v: %d refusals on a well-behaved host", env, viol)
		}
		if res.Echoed != p.Count {
			t.Fatalf("%v: echoed %d/%d", env, res.Echoed, p.Count)
		}
		if want == nil {
			want = res.Payloads
			continue
		}
		if len(res.Payloads) != len(want) {
			t.Fatalf("%v: stream length %d, want %d", env, len(res.Payloads), len(want))
		}
		for i := range want {
			if string(res.Payloads[i]) != string(want[i]) {
				t.Fatalf("%v: datagram %d differs from the reference stream", env, i)
			}
		}
	}
}

// TestZerocopyFigureGate is the acceptance gate for the zerocopy figure:
// an absolute budget on the view path's copy-component cycles per op, on
// iperf and on the proxy workload in both RAKIS environments. The
// quantity is modelled (bytes copied × the model's per-byte cost), not
// timed, so the budgets are the values recorded in EXPERIMENTS.md with
// at most 10% headroom; the copying RX path they were once gated
// against (≥2× more) is recorded under "Retired ablations" there.
func TestZerocopyFigureGate(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-sized run")
	}
	budget := map[string]float64{
		"Rakis-Direct iperf/zc":    80,  // recorded 73: the one app-boundary copy
		"Rakis-SGX iperf/zc":       240, // recorded 219
		"Rakis-Direct udpproxy/zc": 2.2, // recorded 2: header-rewrite bytes only
		"Rakis-SGX udpproxy/zc":    6.6, // recorded 6
	}
	rows, err := FigZerocopy(0.15)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		cell := r.Env.String() + " " + r.Param
		max, ok := budget[cell]
		if !ok {
			t.Errorf("unexpected row %s", cell)
			continue
		}
		delete(budget, cell)
		if r.Unit != "copycyc/op" || r.Value <= 0 || r.Value > max {
			t.Errorf("%s: %.2f %s, want (0, %.1f] copycyc/op", cell, r.Value, r.Unit, max)
		}
	}
	for cell := range budget {
		t.Errorf("row %s missing", cell)
	}
}
