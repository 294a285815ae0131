package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"rakis/internal/telemetry"
	"rakis/internal/workloads"
)

// WorkloadEnv adapts a World to the workloads' environment surface.
func (w *World) WorkloadEnv() workloads.Env {
	env := workloads.Env{
		ServerThread: w.ServerThread,
		ClientThread: w.ClientThread,
		ServerIP:     w.ServerIP,
		ClientIP:     ClientIP,
		KernelIP:     KernelIP,
		Model:        w.Model,
	}
	if rt := w.Rakis(); rt != nil {
		env.SpliceUDPEcho = rt.SpliceUDPEcho
	}
	if w.Opt.Env == RakisSGXXskTCP {
		env.TCPIP = RakisIP
	}
	return env
}

// Scale shrinks experiment sizes: 1.0 regenerates figure-sized runs,
// smaller values keep tests fast. Durations in the paper (10 s streams,
// 1 GB files) are expressed as volumes here.
type Scale float64

// Row is one measured point of a figure: an environment, a swept
// parameter, and the measured value in the figure's unit.
type Row struct {
	Env   Environment
	Param string
	Value float64
	Unit  string
	// Drops is the NIC-queue frames silently dropped during the
	// measurement (both wire ends). A throughput number with hidden
	// drops overstates goodput, so every row carries its count.
	Drops uint64
	// Batch is the vector width of the I/O calls under measurement;
	// zero for figures that only exercise the scalar path.
	Batch int
}

// printCols returns the table's environment columns: the paper's five
// in presentation order, followed by any extra environments the figure
// measured (e.g. the in-enclave XSK TCP configuration) in
// first-appearance order. Columns no row measured are omitted.
func printCols(rows []Row) []Environment {
	seen := map[Environment]bool{}
	for _, r := range rows {
		seen[r.Env] = true
	}
	var cols []Environment
	for _, e := range Environments {
		if seen[e] {
			cols = append(cols, e)
			delete(seen, e)
		}
	}
	for _, r := range rows {
		if seen[r.Env] {
			cols = append(cols, r.Env)
			delete(seen, r.Env)
		}
	}
	return cols
}

// PrintRows renders rows as an aligned table grouped by parameter.
func PrintRows(out io.Writer, title string, rows []Row) {
	fmt.Fprintf(out, "\n%s\n", title)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	byParam := map[string][]Row{}
	var order []string
	for _, r := range rows {
		if len(byParam[r.Param]) == 0 {
			order = append(order, r.Param)
		}
		byParam[r.Param] = append(byParam[r.Param], r)
	}
	cols := printCols(rows)
	fmt.Fprintf(tw, "param")
	for _, e := range cols {
		fmt.Fprintf(tw, "\t%s", e)
	}
	if len(rows) > 0 {
		fmt.Fprintf(tw, "\t[%s]", rows[0].Unit)
	}
	fmt.Fprintln(tw)
	anyDrops := false
	for _, p := range order {
		fmt.Fprintf(tw, "%s", p)
		for _, e := range cols {
			v := 0.0
			for _, r := range byParam[p] {
				if r.Env == e {
					v = r.Value
					if r.Drops > 0 {
						anyDrops = true
					}
				}
			}
			fmt.Fprintf(tw, "\t%.2f", v)
		}
		fmt.Fprintln(tw)
	}
	if anyDrops {
		fmt.Fprintln(tw, "-- NIC drops --")
		for _, p := range order {
			fmt.Fprintf(tw, "%s", p)
			for _, e := range cols {
				var d uint64
				for _, r := range byParam[p] {
					if r.Env == e {
						d = r.Drops
					}
				}
				fmt.Fprintf(tw, "\t%d", d)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}

// runPerEnv builds a world per environment and applies f.
func runPerEnv(opt Options, f func(*World) (float64, string, error)) ([]Row, map[Environment]float64, error) {
	var rows []Row
	vals := map[Environment]float64{}
	for _, env := range Environments {
		o := opt
		o.Env = env
		w, err := NewWorld(o)
		if err != nil {
			return nil, nil, fmt.Errorf("%v: %w", env, err)
		}
		v, unit, err := f(w)
		drops := w.TotalDrops()
		w.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("%v: %w", env, err)
		}
		rows = append(rows, Row{Env: env, Param: opt.paramLabel, Value: v, Unit: unit, Drops: drops})
		vals[env] = v
	}
	return rows, vals, nil
}

// Fig4aIperf reproduces Figure 4(a): iperf3 UDP throughput (Gbps) across
// packet sizes for the five environments.
func Fig4aIperf(scale Scale) ([]Row, error) {
	sizes := []int{64, 128, 256, 512, 1024, 1460}
	count := int(float64(4000) * float64(scale))
	if count < 200 {
		count = 200
	}
	var rows []Row
	for _, size := range sizes {
		opt := Options{paramLabel: fmt.Sprintf("%dB", size)}
		r, _, err := runPerEnv(opt, func(w *World) (float64, string, error) {
			res, err := workloads.IperfUDP(w.WorkloadEnv(), workloads.IperfParams{
				PacketSize: size, Count: count,
			})
			return res.Gbps, "Gbps", err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Fig4bCurl reproduces Figure 4(b): QUIC download duration (seconds,
// lower is better) across file sizes.
func Fig4bCurl(scale Scale) ([]Row, error) {
	// Paper: 10 MB .. 1 GB. Scaled for practicality.
	sizes := []int{
		int(float64(2<<20) * float64(scale) * 8),
		int(float64(8<<20) * float64(scale) * 8),
	}
	var rows []Row
	for _, size := range sizes {
		if size < 64<<10 {
			size = 64 << 10
		}
		data := workloads.PrepareMcryptInput(size)
		opt := Options{paramLabel: fmt.Sprintf("%dMB", size>>20)}
		r, _, err := runPerEnv(opt, func(w *World) (float64, string, error) {
			res, err := workloads.Curl(w.WorkloadEnv(), workloads.CurlParams{Path: "/srv/file"},
				func(string) ([]byte, error) { return data, nil })
			if err != nil {
				return 0, "s", err
			}
			if res.Bytes != uint64(size) {
				return 0, "s", fmt.Errorf("curl got %d bytes, want %d", res.Bytes, size)
			}
			return res.Seconds, "s", nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Fig4cMemcached reproduces Figure 4(c): memcached throughput (kops/s)
// across server thread counts, with four XSKs (§6.1).
func Fig4cMemcached(scale Scale) ([]Row, error) {
	threads := []int{1, 2, 4, 8}
	ops := int(float64(4000) * float64(scale))
	if ops < 400 {
		ops = 400
	}
	var rows []Row
	for _, t := range threads {
		opt := Options{NumXSKs: 4, ServerQueues: 8, paramLabel: fmt.Sprintf("%dthr", t)}
		r, _, err := runPerEnv(opt, func(w *World) (float64, string, error) {
			res, err := workloads.Memcached(w.WorkloadEnv(), workloads.MemcachedParams{
				ServerThreads: t, Ops: ops,
			})
			return res.OpsPerSec / 1e3, "kops/s", err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Fig5aFstime reproduces Figure 5(a): fstime write throughput (MB/s)
// across block sizes.
func Fig5aFstime(scale Scale) ([]Row, error) {
	blocks := []int{256, 1024, 4096, 16384, 65536, 262144, 1048576}
	var rows []Row
	for _, b := range blocks {
		total := int(float64(8<<20) * float64(scale))
		if total < b*16 {
			total = b * 16
		}
		opt := Options{paramLabel: fmt.Sprintf("%dB", b)}
		r, _, err := runPerEnv(opt, func(w *World) (float64, string, error) {
			res, err := workloads.Fstime(w.WorkloadEnv(), workloads.FstimeParams{
				BlockSize: b, TotalBytes: total,
			})
			return res.KBps / 1024, "MB/s", err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Fig5bRedis reproduces Figure 5(b): Redis throughput normalized to
// Native, per command.
func Fig5bRedis(scale Scale) ([]Row, error) {
	cmds := []string{"PING", "SET", "GET"}
	ops := int(float64(2000) * float64(scale))
	if ops < 250 {
		ops = 250
	}
	var rows []Row
	for _, cmd := range cmds {
		opt := Options{paramLabel: cmd}
		r, vals, err := runPerEnv(opt, func(w *World) (float64, string, error) {
			res, err := workloads.Redis(w.WorkloadEnv(), workloads.RedisParams{
				Command: cmd, Ops: ops,
			})
			return res.OpsPerSec, "normalized", err
		})
		if err != nil {
			return nil, err
		}
		base := vals[Native]
		for i := range r {
			r[i].Value /= base
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Fig5cMcrypt reproduces Figure 5(c): MCrypt encryption duration
// (seconds) across read block sizes.
func Fig5cMcrypt(scale Scale) ([]Row, error) {
	blocks := []int{4096, 16384, 65536, 262144, 1048576}
	size := int(float64(32<<20) * float64(scale))
	if size < 1<<20 {
		size = 1 << 20
	}
	input := workloads.PrepareMcryptInput(size)
	var rows []Row
	for _, b := range blocks {
		opt := Options{paramLabel: fmt.Sprintf("%dKB", b>>10)}
		r, _, err := runPerEnv(opt, func(w *World) (float64, string, error) {
			w.VFS().WriteFile("/data/mcrypt.in", input)
			res, err := workloads.Mcrypt(w.WorkloadEnv(), workloads.McryptParams{BlockSize: b})
			if err != nil {
				return 0, "s", err
			}
			if res.Bytes != uint64(size) {
				return 0, "s", fmt.Errorf("mcrypt processed %d bytes, want %d", res.Bytes, size)
			}
			return res.Seconds, "s", nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Fig2Exits reproduces Figure 2: enclave exit counts for HelloWorld and
// an iperf3 run, on Gramine-SGX vs RAKIS-SGX. Exit counts are read from
// the telemetry registry's "vtime.enclave_exits" gauge — the same source
// of truth the breakdown and cmd/rakis-trace report.
func Fig2Exits(scale Scale) ([]Row, error) {
	count := int(float64(4000) * float64(scale))
	if count < 200 {
		count = 200
	}
	// exitCell builds an instrumented world, runs one workload, and reads
	// the exit count out of the registry.
	exitCell := func(env Environment, run func(*World) error) (Row, error) {
		sink := telemetry.NewSink()
		w, err := NewWorld(Options{Env: env, Telemetry: sink})
		if err != nil {
			return Row{}, err
		}
		runErr := run(w)
		drops := w.TotalDrops()
		w.Close()
		if runErr != nil {
			return Row{}, runErr
		}
		exits, ok := sink.Reg.Value("vtime.enclave_exits")
		if !ok {
			return Row{}, fmt.Errorf("fig2: exit gauge missing from registry")
		}
		return Row{Env: env, Value: float64(exits), Unit: "exits", Drops: drops}, nil
	}
	var rows []Row
	for _, env := range []Environment{GramineSGX, RakisSGX} {
		r, err := exitCell(env, func(w *World) error {
			return workloads.HelloWorld(w.WorkloadEnv())
		})
		if err != nil {
			return nil, err
		}
		r.Param = "HelloWorld"
		rows = append(rows, r)

		r, err = exitCell(env, func(w *World) error {
			_, err := workloads.IperfUDP(w.WorkloadEnv(), workloads.IperfParams{
				PacketSize: 1460, Count: count,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		r.Param = "iperf3"
		rows = append(rows, r)
	}
	return rows, nil
}

// FigBatch measures the batched fast path: the UDP echo workload at
// vector widths 1 and 32, reporting enclave exits per echoed datagram
// on Gramine-SGX vs RAKIS-SGX. On Gramine-SGX every scalar recv+send
// pays two OCALLs, so width-32 vectors amortize them ~32x; on RAKIS-SGX
// the UDP data path already pays zero exits, so both widths sit at the
// same floor — batching changes nothing but the cost.
func FigBatch(scale Scale) ([]Row, error) {
	count := int(float64(2048) * float64(scale))
	if count < 256 {
		count = 256
	}
	var rows []Row
	for _, env := range []Environment{GramineSGX, RakisSGX} {
		for _, batch := range []int{1, 32} {
			sink := telemetry.NewSink()
			w, err := NewWorld(Options{Env: env, Telemetry: sink})
			if err != nil {
				return nil, fmt.Errorf("%v: %w", env, err)
			}
			res, runErr := workloads.UDPEcho(w.WorkloadEnv(), workloads.EchoParams{
				PacketSize: 256, Count: count, Batch: batch,
			}, false)
			drops := w.TotalDrops()
			w.Close()
			if runErr != nil {
				return nil, fmt.Errorf("%v b=%d: %w", env, batch, runErr)
			}
			exits, ok := sink.Reg.Value("vtime.enclave_exits")
			if !ok {
				return nil, fmt.Errorf("figbatch: exit gauge missing from registry")
			}
			if res.Echoed == 0 {
				return nil, fmt.Errorf("figbatch: %v b=%d echoed nothing", env, batch)
			}
			rows = append(rows, Row{
				Env: env, Param: fmt.Sprintf("b=%d", batch), Batch: batch,
				Value: float64(exits) / float64(res.Echoed), Unit: "exits/op",
				Drops: drops,
			})
		}
	}
	return rows, nil
}

// FigZerocopy measures the zero-copy RX/splice datapath: iperf3 and the
// UDP proxy on the RAKIS environments, reporting the copy-component
// cycles per delivered datagram summed over the RX datapath clocks (the
// FM pumps and the application threads — the clocks the copies land on).
// The quantity is modelled (bytes copied × per-byte cost), so the gate
// holds it to an absolute budget; the retired copying-RX column's last
// values are in EXPERIMENTS.md.
func FigZerocopy(scale Scale) ([]Row, error) {
	count := int(float64(2048) * float64(scale))
	if count < 256 {
		count = 256
	}
	workloadRuns := []struct {
		name string
		run  func(*World) (int, error)
	}{
		{"iperf", func(w *World) (int, error) {
			res, err := workloads.IperfUDP(w.WorkloadEnv(), workloads.IperfParams{
				PacketSize: 1460, Count: count,
			})
			return res.Received, err
		}},
		{"udpproxy", func(w *World) (int, error) {
			res, err := workloads.UDPProxy(w.WorkloadEnv(), workloads.ProxyParams{
				PacketSize: 1024, Count: count,
			}, false)
			return res.Echoed, err
		}},
	}
	var rows []Row
	for _, env := range []Environment{RakisDirect, RakisSGX} {
		for _, l := range workloadRuns {
			sink := telemetry.NewSink()
			w, err := NewWorld(Options{Env: env, Telemetry: sink})
			if err != nil {
				return nil, fmt.Errorf("%v %s: %w", env, l.name, err)
			}
			ops, runErr := l.run(w)
			drops := w.TotalDrops()
			w.Close()
			if runErr != nil {
				return nil, fmt.Errorf("%v %s: %w", env, l.name, runErr)
			}
			if ops == 0 {
				return nil, fmt.Errorf("%v %s: no ops delivered", env, l.name)
			}
			var cyc uint64
			for _, tr := range sink.Breakdown().Threads {
				if strings.HasPrefix(tr.Thread, "fm.") || strings.HasPrefix(tr.Thread, "app.") {
					cyc += tr.Comp["copy"]
				}
			}
			if cyc == 0 {
				return nil, fmt.Errorf("%v %s: zero-copy path charged no copies", env, l.name)
			}
			rows = append(rows, Row{Env: env, Param: l.name + "/zc",
				Value: float64(cyc) / float64(ops), Unit: "copycyc/op", Drops: drops})
		}
	}
	return rows, nil
}

// BenchSchema identifies the machine-readable bench JSON layout.
const BenchSchema = "rakis-bench/v1"

// BenchRow is one measured figure point in the stable form the BENCH
// trajectory consumes (see EXPERIMENTS.md for the schema).
type BenchRow struct {
	Figure string  `json:"figure"`
	Env    string  `json:"env"`
	X      string  `json:"x"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Drops  uint64  `json:"drops"`
	Batch  int     `json:"batch,omitempty"`
}

// BenchDoc is the BENCH_figs.json document: a schema tag plus every
// measured row, in run order.
type BenchDoc struct {
	Schema string     `json:"schema"`
	Rows   []BenchRow `json:"rows"`
}

// AddFigure appends one figure's measured rows to the document.
func (d *BenchDoc) AddFigure(id string, rows []Row) {
	for _, r := range rows {
		d.Rows = append(d.Rows, BenchRow{
			Figure: id, Env: r.Env.String(), X: r.Param,
			Value: r.Value, Unit: r.Unit, Drops: r.Drops, Batch: r.Batch,
		})
	}
}

// WriteJSON writes the document as indented JSON.
func (d *BenchDoc) WriteJSON(w io.Writer) error {
	d.Schema = BenchSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
