// Command bench is the repository's benchmark: four long, pipelined,
// closed-loop workloads against experiments.NewWorld, measured from
// outside through public functions. See README.md beside this file.
//
//	go run ./bench --workload udp_echo_64 --seed 1 --seconds 10 --trace 0
//
// runs one workload and prints, as the last line of standard output, one
// JSON object with the run's outcome and its end-to-end metrics
// (--trace 0) or its per-layer metrics (--trace 1). Without --workload it
// re-executes itself once per workload, so each is measured in a fresh
// process, and prints a table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// setupRuns is how many times a run boots and warms the world; setup_s
// is their median.
const setupRuns = 3

// metricValue is one metric in the output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the output line of one run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	layers    bool
	selfcheck bool
	compare   bool
	jsonOut   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only (default: all, one process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs: ports, payloads, offsets")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	flag.BoolVar(&o.layers, "layers", false, "run only the single-layer drivers")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice and fail if an end-to-end pair differs by more than its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	flag.StringVar(&o.jsonOut, "json", "", "with no -workload, or with -selfcheck: also write the runs to this file")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	switch {
	case o.compare:
		if len(args) != 2 {
			return errors.New("-compare wants two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case o.layers:
		m, err := runLayers(1)
		if err != nil {
			return err
		}
		printMetrics(toResult(&report{metrics: m}, perLayer))
		return nil
	case o.selfcheck:
		return selfCheck(o.seed, o.seconds, o.jsonOut)
	case o.workload == "":
		runs, err := runAll("", o.seed, o.seconds, o.trace)
		if err != nil {
			return err
		}
		return writeRuns(o.jsonOut, runs, o.seconds)
	}
	wl, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	return runOne(wl, o)
}

// runOne measures one workload in this process and prints its result
// line.
func runOne(wl workload, o options) error {
	runtime.GOMAXPROCS(wl.procs)
	cfg := runConfig{wl: wl, seed: o.seed, seconds: o.seconds, setups: setupRuns, warmScale: 1}
	measure, specs := runEndToEnd, endToEnd
	if o.trace == 1 {
		measure, specs = runTraced, perLayer
	}
	rep, err := measure(cfg)
	if err != nil {
		return err
	}
	for _, note := range rep.notes {
		fmt.Fprintln(os.Stderr, "bench: incorrect:", note)
	}
	res := toResult(rep, specs)
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// toResult attaches the units. A metric the list does not know is a bug
// in this program.
func toResult(rep *report, specs []metricSpec) result {
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(rep.metrics))}
	for name, v := range rep.metrics {
		spec, ok := specOf(specs, name)
		if !ok {
			panic("bench: metric " + name + " is not in the spec")
		}
		res.Metrics[name] = metricValue{Value: v, Unit: spec.Unit}
	}
	return res
}

// printMetrics writes the human-readable table to standard error, in
// spec order.
func printMetrics(res result) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 8, 2, ' ', 0)
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, spec := range list {
			if m, ok := res.Metrics[spec.Name]; ok {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\n", spec.Name, m.Value, m.Unit)
			}
		}
	}
	tw.Flush()
}

// runRecord is one run as the result files keep it.
type runRecord struct {
	Label      string `json:"label,omitempty"`
	Workload   string `json:"workload"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	result
}

// runFile is a result file: what -json writes and -compare reads.
type runFile struct {
	Schema  string      `json:"schema"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

const runFileSchema = "rakis-perfbench/v1"

// runAll measures every workload, each in a fresh process of this same
// binary so no workload inherits another's heap, goroutines or warm-up.
func runAll(label string, seed int64, seconds float64, trace int) ([]runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var runs []runRecord
	for _, wl := range workloads {
		fmt.Fprintf(os.Stderr, "== %s %s (seed %d, %.0f s, trace %d)\n", label, wl.name, seed, seconds, trace)
		cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		rec := runRecord{Label: label, Workload: wl.name, GOMAXPROCS: wl.procs, Seed: seed, Trace: trace}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
			return nil, fmt.Errorf("%s: bad result line: %w", wl.name, err)
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: %d of %d ops failed or the outputs were wrong", wl.name, rec.Failed, rec.Attempted)
		}
		runs = append(runs, rec)
	}
	return runs, nil
}

func writeRuns(path string, runs []runRecord, seconds float64) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(runFile{Schema: runFileSchema, Seconds: seconds, Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfCheck measures every workload twice on this one build, A then B,
// and fails when any end-to-end pair differs by more than its bound:
// a benchmark that cannot agree with itself cannot judge a change.
func selfCheck(seed int64, seconds float64, jsonOut string) error {
	a, err := runAll("A", seed, seconds, 0)
	if err != nil {
		return err
	}
	b, err := runAll("B", seed, seconds, 0)
	if err != nil {
		return err
	}
	if err := writeRuns(jsonOut, append(a, b...), seconds); err != nil {
		return err
	}
	moved, err := compareRuns(os.Stdout, a, b)
	if err != nil {
		return err
	}
	if moved > 0 {
		return fmt.Errorf("selfcheck: %d end-to-end pairs differ by more than their bound", moved)
	}
	return nil
}
