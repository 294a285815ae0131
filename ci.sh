#!/bin/sh
# ci.sh — the full verification gate for this repository.
#
# Every step must pass before a change lands. The cheap static gates run
# first so a trust-boundary violation fails the build in seconds, before
# any long test pass:
#
#   1. go build ./...  — everything compiles
#   2. rakis-lint      — the trust-boundary analyzers (taintflow,
#                        doublefetch, rolecheck, boundarycopy,
#                        annotations; see DESIGN.md). Exit 1 means
#                        findings, exit 2 means the tool itself failed.
#   3. analysis tests  — fixture-freshness gate: the analyzers still
#                        fire on their testdata fixtures and stay clean
#                        on the production tree
#   4. go vet, gofmt   — toolchain static checks; every non-testdata
#                        .go file is gofmt-clean (`gofmt -l` prints
#                        nothing)
#   5. go test ./...   — unit + integration + property tests, once: the
#                        differential suites (batched, zero-copy, shard
#                        affinity, proxied-vs-XSK TCP), the figure gates,
#                        the tuner suite and the chaos matrix all run
#                        here and are not re-run by name below
#   6. go test -race   — every internal package under the race detector
#                        (see race_on_test.go for why this pass is
#                        load-bearing), shuffled so test-order coupling
#                        cannot hide: the FM/ring protocol, the sharded
#                        demux and TCP shard suites, the sm TX path, the
#                        differentials and the SYN-flood gate
#   7. fuzz smoke      — 30 s over the committed netstack seed corpus
#                        (internal/netstack/testdata/fuzz), the §5.2-style
#                        hostile-frame campaign, plus 30 s aimed at the
#                        certify-in-place view parser (FuzzInputView,
#                        which also holds InputView against Input frame
#                        by frame) and 30 s at the TCP segment ingest
#                        (FuzzInputTCP, seeded with the hostile-handshake
#                        corpus); all three cap -fuzzminimizetime
#   8. chaos smoke     — rakis-chaos -profile smoke: every workload under
#                        fault injection (see DESIGN.md, "Chaos testing");
#                        then -profile faketel: a hostile host steering
#                        the tuner's inputs must not push it out of its
#                        envelope or flap the mode (see DESIGN.md,
#                        "Self-tuning runtime")
#   9. trace smoke     — rakis-trace: one instrumented cell per trust
#                        model; fails on any accounting violation (the
#                        telemetry conservation invariant, see DESIGN.md,
#                        "Telemetry")
#  10. no-waiver gate  — the RX-path packages carry no
#                        //rakis:singleread-ok escape hatches, so the
#                        doublefetch analyzer's pass in step 2 covers
#                        every in-place reader (see DESIGN.md,
#                        "Zero-copy datapath")
#  11. bench JSON      — rakis-bench -json: the Figure 2 rows plus the
#                        batched-vs-scalar, zero-copy, adaptive, shards,
#                        and tcp rows in the stable rakis-bench/v1 layout
#                        (BENCH_figs.json)
#  12. layer pins      — bench -layers: the single-layer drivers of the
#                        hot TX and RX paths (netstack.udp_sendto,
#                        xsk.send_batch, xsk.recv_views) must read 0
#                        allocs_per_op (see DESIGN.md, "One path per
#                        direction")
#  13. line counts      — prints the three non-test line counts CHANGES.md
#                        and ROADMAP.md quote (the tree, internal/netstack,
#                        internal/tm), with the commands reviewers use, so
#                        the figures are reproducible; then the wall-clock
#                        census ROADMAP item 1 quotes, as a ratchet (it
#                        may fall, never rise, until item 1(d)'s analyzer
#                        exists), and the rule that the datapath sleeps
#                        only in internal/vtime/wait.go (see DESIGN.md,
#                        "One way to wait")
#
# Every go test line carries an explicit -timeout well under the 600 s
# default (240 s per package on the test and race legs, -fuzztime + 60 s
# on the fuzz legs), so a hang costs minutes, not ten.
set -eu
cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...

echo "==> rakis-lint ./..."
go run ./cmd/rakis-lint ./...

echo "==> go test ./internal/analysis/... (fixture freshness)"
go test -timeout 240s ./internal/analysis/...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (non-testdata .go files)"
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "ci: not gofmt-clean:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go test ./..."
go test -timeout 240s ./...

echo "==> go test -race -shuffle=on ./internal/..."
go test -race -shuffle=on -timeout 240s ./internal/...

# -fuzzminimizetime is capped on every leg: the default burns 60 s
# minimizing every new interesting input, which can eat the whole fuzz
# budget. -timeout is -fuzztime + 60 s.
echo "==> go test -fuzz=FuzzStackInput -fuzztime=30s ./internal/netstack"
go test -run='^$' -fuzz='^FuzzStackInput$' -fuzztime=30s -timeout 90s -fuzzminimizetime=10x ./internal/netstack

echo "==> go test -fuzz=FuzzInputView -fuzztime=30s ./internal/netstack"
go test -run='^$' -fuzz='^FuzzInputView$' -fuzztime=30s -timeout 90s -fuzzminimizetime=10x ./internal/netstack

echo "==> go test -fuzz=FuzzInputTCP -fuzztime=30s ./internal/netstack"
go test -run='^$' -fuzz='^FuzzInputTCP$' -fuzztime=30s -timeout 90s -fuzzminimizetime=10x ./internal/netstack

echo "==> rakis-chaos -profile smoke"
go run ./cmd/rakis-chaos -profile smoke

echo "==> rakis-chaos -profile faketel (tuner safety under a hostile host)"
go run ./cmd/rakis-chaos -profile faketel

echo "==> rakis-trace smoke (conservation gate)"
go run ./cmd/rakis-trace -workload iperf -env rakis-sgx > /dev/null
go run ./cmd/rakis-trace -workload fstime -env gramine-sgx > /dev/null

echo "==> no-waiver gate: no //rakis:singleread-ok on the RX path"
if grep -rn 'rakis:singleread-ok' --include='*.go' \
    internal/mem internal/umem internal/xsk internal/netstack internal/fm internal/sm; then
	echo "ci: unexpected //rakis:singleread-ok waiver on the RX path" >&2
	exit 1
fi

echo "==> rakis-bench -fig 2,batch,zerocopy,adaptive,shards,tcp -json BENCH_figs.json"
go run ./cmd/rakis-bench -fig 2,batch,zerocopy,adaptive,shards,tcp -scale 0.05 -json BENCH_figs.json > /dev/null
test -s BENCH_figs.json
grep -q '"figure": "batch"' BENCH_figs.json
grep -q '"figure": "zerocopy"' BENCH_figs.json
grep -q '"figure": "adaptive"' BENCH_figs.json
grep -q '"figure": "shards"' BENCH_figs.json
grep -q '"figure": "tcp"' BENCH_figs.json

echo "==> bench -layers: zero-allocation pins on the TX and RX paths"
layers=$(go run ./bench -layers 2>&1)
for m in netstack.udp_sendto xsk.send_batch xsk.recv_views; do
	got=$(printf '%s\n' "$layers" | awk -v m="$m.allocs_per_op" '$1 == m { print $2 }')
	if [ "$got" != "0" ]; then
		echo "ci: $m.allocs_per_op = '$got', want 0" >&2
		exit 1
	fi
done

echo "==> line counts: non-test Go outside bench/ and testdata/, then internal/netstack and internal/tm alone"
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs wc -l | tail -1
find ./internal/netstack -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs wc -l | tail -1
find ./internal/tm -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs wc -l | tail -1

echo "==> wall-clock census: time.Now/Sleep/After/NewTicker/NewTimer/AfterFunc/Since sites in non-test Go outside bench/ and examples/"
census=$(grep -rn 'time\.\(Now\|Sleep\|After\|NewTicker\|NewTimer\|AfterFunc\|Since\)' --include='*.go' . | grep -v _test.go | grep -v '^./bench/' | grep -v '^./examples/' | wc -l)
echo "$census"
if [ "$census" -gt 58 ]; then
	echo "ci: wall-clock census rose to $census (ratchet: 58); wait through internal/vtime/wait.go" >&2
	exit 1
fi
if grep -n 'time\.\(Sleep\|After\)' internal/fm/*.go internal/sm/*.go internal/iouring/*.go internal/mm/*.go \
    internal/hostos/epoll.go internal/hostos/syscall.go internal/hostos/uring.go | grep -v '_test\.go:'; then
	echo "ci: the datapath sleeps only through internal/vtime/wait.go" >&2
	exit 1
fi

echo "ci: all checks passed"
