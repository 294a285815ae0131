// Package experiments builds the five test environments of §6 and drives
// the workloads that regenerate every figure of the paper's evaluation:
// Native, Gramine-Direct, Gramine-SGX, RAKIS-Direct, and RAKIS-SGX, all
// on one simulated machine with two 25 Gbps interfaces wired in loopback.
package experiments

import (
	"fmt"

	"rakis"
	"rakis/internal/chaos"
	"rakis/internal/hostos"
	"rakis/internal/libos"
	"rakis/internal/mem"
	"rakis/internal/netsim"
	"rakis/internal/netstack"
	"rakis/internal/sys"
	"rakis/internal/telemetry"
	"rakis/internal/tuner"
	"rakis/internal/vtime"
)

// Environment selects one of the paper's five test environments.
type Environment int

const (
	// Native runs the workload on the host kernel.
	Native Environment = iota
	// GramineDirect runs under the LibOS outside SGX.
	GramineDirect
	// GramineSGX runs under the LibOS inside SGX (exits per syscall).
	GramineSGX
	// RakisDirect runs under RAKIS outside SGX.
	RakisDirect
	// RakisSGX runs under RAKIS inside SGX.
	RakisSGX
	// RakisSGXXskTCP is RakisSGX with the in-enclave TCP stack over the
	// XSK path (beyond the paper, which proxied TCP through io_uring):
	// listen/accept/connect/send/recv run enclave-side at the zero-exit
	// floor with the SYN-cookie listen path. Not part of Environments —
	// it extends figures, never alters the paper's five rows.
	RakisSGXXskTCP
)

// Environments lists all five in the paper's presentation order.
var Environments = []Environment{Native, RakisDirect, RakisSGX, GramineDirect, GramineSGX}

// String returns the environment name as the figures label it.
func (e Environment) String() string {
	switch e {
	case Native:
		return "Native"
	case GramineDirect:
		return "Gramine-Direct"
	case GramineSGX:
		return "Gramine-SGX"
	case RakisDirect:
		return "Rakis-Direct"
	case RakisSGXXskTCP:
		return "Rakis-SGX-XSK-TCP"
	default:
		return "Rakis-SGX"
	}
}

// IsRakis reports whether the environment runs under RAKIS.
func (e Environment) IsRakis() bool {
	return e == RakisDirect || e == RakisSGX || e == RakisSGXXskTCP
}

// Addresses of the simulated testbed.
var (
	// ClientIP is the load generator's address ("its own network
	// namespace", §6.1).
	ClientIP = netstack.IP4{10, 0, 0, 1}
	// KernelIP is the server kernel stack's address, used by the
	// baseline environments.
	KernelIP = netstack.IP4{10, 0, 0, 2}
	// RakisIP is the in-enclave stack's address, used by the RAKIS
	// environments (the XDP program steers it to the XSKs).
	RakisIP = netstack.IP4{10, 0, 0, 3}
)

// Options configures a World.
type Options struct {
	// Env is the environment under test.
	Env Environment
	// ServerQueues is the server NIC queue count (default 4).
	ServerQueues int
	// ClientQueues is the client NIC queue count (default 2). The shard
	// scaling figure raises it with the shard count so the uncosted
	// load generator's NIC never becomes the bottleneck being measured.
	ClientQueues int
	// NumXSKs is the XSK count for RAKIS environments (default 1;
	// Memcached uses 4, §6.1).
	NumXSKs int
	// RingSize is the XSK ring size (default 2048, §6.1).
	RingSize uint32
	// FrameCount overrides the UMem frame count in RAKIS environments
	// (0 keeps the runtime default). The adaptive figure sets it from the
	// tuner's geometry recommendation.
	FrameCount uint32
	// Adaptive enables the self-tuning runtime in RAKIS environments.
	Adaptive bool
	// TunerParams overrides the tuner's pacing/envelope (zero value =
	// tuner.DefaultParams). Ignored unless Adaptive.
	TunerParams tuner.Params
	// BusyPoll statically selects kernel busy-poll mode in RAKIS
	// environments. Ignored when Adaptive.
	BusyPoll bool
	// BatchHint statically pins the advised vector width in RAKIS
	// environments (default 1). Ignored when Adaptive.
	BatchHint int
	// TrustedBytes and UntrustedBytes size the simulated address space.
	TrustedBytes, UntrustedBytes int
	// Chaos arms hostile-host fault injection across the kernel, the NIC
	// pair, and (in RAKIS environments) the Monitor Module. Nil means a
	// well-behaved host.
	Chaos *chaos.Injector
	// Telemetry, when non-nil, instruments the whole world: server
	// threads get cost-attribution probes, the boundary layers get trace
	// buffers, and the server NIC's per-queue drop counts surface as
	// registry gauges.
	Telemetry *telemetry.Sink

	// paramLabel labels rows produced from these options.
	paramLabel string
}

func (o *Options) fill() {
	if o.ServerQueues <= 0 {
		o.ServerQueues = 4
	}
	if o.ClientQueues <= 0 {
		o.ClientQueues = 2
	}
	if o.NumXSKs <= 0 {
		o.NumXSKs = 1
	}
	if o.RingSize == 0 {
		o.RingSize = 2048
	}
	if o.TrustedBytes == 0 {
		o.TrustedBytes = 1 << 24
	}
	if o.UntrustedBytes == 0 {
		o.UntrustedBytes = 1 << 28
	}
}

// World is one fully wired test environment.
type World struct {
	Opt      Options
	Model    *vtime.Model
	Space    *mem.Space
	Kern     *hostos.Kernel
	ClientNS *hostos.NetNS
	ServerNS *hostos.NetNS

	// Counters aggregates server-side events (exits, syscalls, drops).
	Counters *vtime.Counters

	// ServerIP is where workload servers listen in this environment.
	ServerIP netstack.IP4

	// Telemetry is the sink from Options (nil when uninstrumented).
	Telemetry *telemetry.Sink

	rakisRT    *rakis.Runtime
	serverProc *libos.Process
	clientProc *libos.Process
	cliDev     *netsim.Device
	srvDev     *netsim.Device
}

// clientModel is the uncosted load generator's model: the client "runs
// natively in its own namespace" and must never be the virtual
// bottleneck, so its per-packet costs are tiny. The shared wire still
// paces it at 25 Gbps.
func clientModel(m *vtime.Model) *vtime.Model {
	c := *m
	c.Syscall = 10
	c.KernelNetPerPacket = 20
	c.KernelTCPPerSegment = 30
	c.SocketOp = 5
	c.VfsOp = 10
	c.PollPerFD = 5
	c.KernelCopyPerByte = 0.002
	c.UserCopyPerByte = 0.002
	return &c
}

// rakisDirectModel removes the SGX boundary tax for RAKIS-Direct: copies
// in and out of the (non-encrypted) shared memory cost a plain copy.
func rakisDirectModel(m *vtime.Model) *vtime.Model {
	c := *m
	c.BoundaryCopyPerByte = c.UserCopyPerByte
	return &c
}

// NewWorld wires the full testbed for one environment.
func NewWorld(opt Options) (*World, error) {
	opt.fill()
	model := vtime.Default()
	w := &World{
		Opt:      opt,
		Model:    model,
		Space:    mem.NewSpace(opt.TrustedBytes, opt.UntrustedBytes),
		Counters: &vtime.Counters{},
	}
	w.Kern = hostos.NewKernel(w.Space, model)
	w.Kern.Chaos = opt.Chaos
	opt.Chaos.Bind(w.Space, w.Counters)
	cliDev, srvDev := netsim.NewPair(model,
		netsim.Config{Name: "eth-client", MAC: [6]byte{2, 0, 0, 0, 0, 1}, Queues: opt.ClientQueues},
		netsim.Config{Name: "eth-server", MAC: [6]byte{2, 0, 0, 0, 0, 2}, Queues: opt.ServerQueues},
	)
	// The wire is host-controlled too: both directions get the fault
	// hooks, and the server NIC's softirq workers can be stalled.
	cliDev.SetChaos(opt.Chaos)
	srvDev.SetChaos(opt.Chaos)
	w.cliDev, w.srvDev = cliDev, srvDev
	w.Telemetry = opt.Telemetry
	if sink := opt.Telemetry; sink != nil {
		telemetry.BindCounters(sink.Reg, w.Counters)
		w.Kern.Trace = sink.NewBuf("hostos")
		// The server NIC: per-frame softirq events, a probe per queue
		// clock, and the per-queue drop gauges the workload reports read.
		srvDev.SetTelemetry(sink.NewBuf("eth-server"))
		for i := 0; i < srvDev.NumQueues(); i++ {
			q := srvDev.Queue(i)
			sink.NewProbe(fmt.Sprintf("softirq.%s.q%d", srvDev.Name(), i), q.Clock())
			sink.Reg.Reader(fmt.Sprintf("netsim.%s.q%d.dropped", srvDev.Name(), i), q.Dropped)
		}
		for i := 0; i < cliDev.NumQueues(); i++ {
			q := cliDev.Queue(i)
			sink.Reg.Reader(fmt.Sprintf("netsim.%s.q%d.dropped", cliDev.Name(), i), q.Dropped)
		}
	}
	var err error
	w.ClientNS, err = w.Kern.AddNetNS("client", cliDev, ClientIP, clientModel(model), nil)
	if err != nil {
		return nil, err
	}
	w.ServerNS, err = w.Kern.AddNetNS("server", srvDev, KernelIP, model, w.Counters)
	if err != nil {
		return nil, err
	}

	cp := w.Kern.NewProc(w.ClientNS, nil)
	cp.Free = true
	w.clientProc = libos.NewProcess(cp, libos.Native, nil)

	switch opt.Env {
	case Native:
		w.ServerIP = KernelIP
		w.serverProc = libos.NewProcess(w.Kern.NewProc(w.ServerNS, w.Counters), libos.Native, w.Counters)
		w.serverProc.SetTelemetry(opt.Telemetry)
	case GramineDirect:
		// Direct mode never takes the OCALL path, so exit and boundary
		// costs are structurally absent; only the LibOS handling cost
		// remains.
		w.ServerIP = KernelIP
		w.serverProc = libos.NewProcess(w.Kern.NewProc(w.ServerNS, w.Counters), libos.Direct, w.Counters)
		w.serverProc.SetTelemetry(opt.Telemetry)
	case GramineSGX:
		w.ServerIP = KernelIP
		w.serverProc = libos.NewProcess(w.Kern.NewProc(w.ServerNS, w.Counters), libos.SGX, w.Counters)
		w.serverProc.SetTelemetry(opt.Telemetry)
	case RakisDirect, RakisSGX, RakisSGXXskTCP:
		w.ServerIP = RakisIP
		mode := libos.Direct
		encModel := rakisDirectModel(model)
		if opt.Env != RakisDirect {
			mode = libos.SGX
			encModel = model
		}
		w.rakisRT, err = rakis.Boot(w.Kern, w.ServerNS, rakis.Config{
			IP:          RakisIP,
			NumXSKs:     opt.NumXSKs,
			RingSize:    opt.RingSize,
			FrameCount:  opt.FrameCount,
			Mode:        mode,
			Model:       encModel,
			Counters:    w.Counters,
			Chaos:       opt.Chaos,
			Telemetry:   opt.Telemetry,
			Adaptive:    opt.Adaptive,
			TunerParams: opt.TunerParams,
			BusyPoll:    opt.BusyPoll,
			BatchHint:   opt.BatchHint,
			EnclaveTCP:  opt.Env == RakisSGXXskTCP,
		})
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown environment %d", opt.Env)
	}
	return w, nil
}

// ServerThread returns a fresh application thread in the server
// environment.
func (w *World) ServerThread() (sys.Sys, error) {
	if w.rakisRT != nil {
		return w.rakisRT.NewThread()
	}
	return w.serverProc.NewThread(), nil
}

// ClientThread returns a fresh load-generator thread (native, uncosted).
func (w *World) ClientThread() sys.Sys {
	return w.clientProc.NewThread()
}

// Rakis exposes the RAKIS runtime in RAKIS environments (nil otherwise).
func (w *World) Rakis() *rakis.Runtime { return w.rakisRT }

// ClientDev exposes the client-side NIC. The million-flow generator
// injects raw frames on it directly, bypassing per-flow client sockets.
func (w *World) ClientDev() *netsim.Device { return w.cliDev }

// TotalDrops sums the NIC queue drops on both ends of the wire — full
// receive queues silently eat frames, and a throughput figure that hides
// that is lying about goodput.
func (w *World) TotalDrops() uint64 {
	var total uint64
	for _, d := range []*netsim.Device{w.cliDev, w.srvDev} {
		for i := 0; i < d.NumQueues(); i++ {
			total += d.Queue(i).Dropped()
		}
	}
	return total
}

// VFS exposes the shared filesystem for workload setup.
func (w *World) VFS() *hostos.VFS { return w.Kern.VFS() }

// Close tears the world down.
func (w *World) Close() {
	if w.rakisRT != nil {
		w.rakisRT.Close()
	}
	w.Kern.Close()
}
