// Command rakis-bench regenerates the paper's evaluation figures (§6) on
// the simulated testbed: one table of series per figure, across the five
// environments.
//
// Usage:
//
//	rakis-bench [-fig 4a|4b|4c|5a|5b|5c|2|batch|zerocopy|adaptive|shards|tcp|all] [-scale 0.25] [-json BENCH_figs.json]
//
// -fig also accepts a comma-separated list (e.g. -fig 2,batch).
//
// Scale stretches or shrinks workload volumes; the shapes (who wins, by
// what factor) are stable across scales. See EXPERIMENTS.md for recorded
// paper-vs-measured comparisons. With -json, every measured row is also
// written to the given path in the stable rakis-bench/v1 layout
// (EXPERIMENTS.md documents the schema).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rakis/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figures to regenerate (comma-separated): 2, 4a, 4b, 4c, 5a, 5b, 5c, batch, zerocopy, adaptive, shards, tcp, or all")
	scale := flag.Float64("scale", 0.25, "workload scale factor (1.0 = figure-sized)")
	jsonPath := flag.String("json", "", "also write measured rows as rakis-bench/v1 JSON to this path")
	flag.Parse()

	type figure struct {
		id    string
		title string
		run   func(experiments.Scale) ([]experiments.Row, error)
	}
	figures := []figure{
		{"2", "Figure 2: enclave exits (log-scale in the paper)", experiments.Fig2Exits},
		{"4a", "Figure 4(a): iperf3 UDP throughput vs packet size", experiments.Fig4aIperf},
		{"4b", "Figure 4(b): Curl QUIC download duration vs file size", experiments.Fig4bCurl},
		{"4c", "Figure 4(c): Memcached throughput vs server threads", experiments.Fig4cMemcached},
		{"5a", "Figure 5(a): fstime write throughput vs block size", experiments.Fig5aFstime},
		{"5b", "Figure 5(b): Redis throughput normalized to Native", experiments.Fig5bRedis},
		{"5c", "Figure 5(c): MCrypt encryption time vs read block size", experiments.Fig5cMcrypt},
		{"batch", "Batched fast path: enclave exits per datagram vs vector width", experiments.FigBatch},
		{"zerocopy", "Zero-copy datapath: copy cycles per datagram on the in-place RX path", experiments.FigZerocopy},
		{"adaptive", "Self-tuning runtime: latency-vs-cycles frontier, adaptive vs static", experiments.FigAdaptive},
		{"shards", "Sharded scale-out: throughput and exits/op vs XSK shard count", experiments.FigShards},
		{"tcp", "In-enclave TCP: Redis-style throughput and exits/op, io_uring-proxied vs XSK TCP", experiments.FigTCP},
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	var doc experiments.BenchDoc
	for _, f := range figures {
		if !want["all"] && !want[f.id] {
			continue
		}
		ran++
		rows, err := f.run(experiments.Scale(*scale))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rakis-bench: %s: %v\n", f.id, err)
			os.Exit(1)
		}
		experiments.PrintRows(os.Stdout, f.title, rows)
		doc.AddFigure(f.id, rows)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rakis-bench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if *jsonPath != "" {
		out, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rakis-bench:", err)
			os.Exit(1)
		}
		if err := doc.WriteJSON(out); err == nil {
			err = out.Close()
		} else {
			out.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rakis-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d rows to %s\n", len(doc.Rows), *jsonPath)
	}
}
