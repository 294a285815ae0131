// Package rakis is a working reproduction of RAKIS (Alharthi et al.,
// EuroSys '25): secure fast IO primitives across trust boundaries on
// Intel SGX, built on simulated substrates (see DESIGN.md).
//
// RAKIS lets unmodified applications inside an SGX enclave use two Linux
// fast IO kernel primitives without enclave exits on the data path:
//
//   - AF_XDP sockets carry UDP traffic into an in-enclave UDP/IP stack;
//   - io_uring carries TCP send/recv, file read/write, and poll.
//
// Every value read from the shared untrusted rings is validated against
// trusted state (Table 2 of the paper) before use; hostile values are
// refused without crashing. A Monitor Module thread outside the enclave
// issues the residual wakeup syscalls.
//
// Usage: build a simulated host (internal/hostos) with a network
// namespace, then Boot a Runtime on it and obtain per-thread sys.Sys
// handles with NewThread. Workloads written against sys.Sys run
// unmodified on RAKIS and on the Gramine/Native baselines.
package rakis

import (
	"fmt"
	"sync"
	"time"

	"rakis/internal/chaos"
	"rakis/internal/fm"
	"rakis/internal/hostos"
	"rakis/internal/iouring"
	"rakis/internal/libos"
	"rakis/internal/mm"
	"rakis/internal/netsim"
	"rakis/internal/netstack"
	"rakis/internal/sm"
	"rakis/internal/telemetry"
	"rakis/internal/tuner"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

// Config configures a RAKIS runtime. Zero values select the evaluation
// setup of §6.1: one XSK, 2K rings, a 16 MB UMem of 2 KB frames.
type Config struct {
	// IP is the enclave stack's address on the interface. It must differ
	// from the kernel stack's address; the XDP program steers traffic
	// for this address to the XSKs.
	IP netstack.IP4
	// NumXSKs is the number of XDP sockets (and FM pump threads), bound
	// to interface queues 0..NumXSKs-1. Default 1; the Memcached
	// experiment uses 4.
	NumXSKs int
	// RingSize is the size of each XSK ring (default 2048).
	RingSize uint32
	// FrameSize is the UMem frame size (default 2048).
	FrameSize uint32
	// FrameCount is the number of UMem frames per XSK (default 8192,
	// i.e. 16 MB at the default frame size).
	FrameCount uint32
	// UringEntries is the per-thread io_uring depth (default 64).
	UringEntries uint32
	// BounceBytes is the per-thread untrusted bounce buffer (default 256 KiB).
	BounceBytes int
	// Mode selects the fallback-syscall path: libos.SGX for RAKIS-SGX,
	// libos.Direct for RAKIS-Direct.
	Mode libos.Mode
	// Model is the enclave-side cost model. For RAKIS-Direct runs pass a
	// model whose boundary-copy cost equals a plain copy.
	Model *vtime.Model
	// Counters receives statistics; it may be nil.
	Counters *vtime.Counters
	// Chaos, when non-nil, arms hostile-host fault injection: Boot hands
	// the injector to the kernel and the Monitor Module and starts its
	// background scribbler. The trusted side gets no hint that chaos is
	// on — surviving it is the point.
	Chaos *chaos.Injector
	// Telemetry, when non-nil, instruments the whole runtime: every
	// enclave thread gets a cost-attribution probe, and the boundary
	// layers (XSKs, io_urings, MM, host kernel, chaos) get trace buffers.
	// Nil keeps the disabled fast path — one pointer test per hook.
	Telemetry *telemetry.Sink
	// Adaptive enables the self-tuning runtime (internal/tuner): a
	// control loop steps on trusted-side telemetry and adapts the
	// advised vector width, the wakeup-vs-busy-poll mode, and the
	// recommended ring geometry. Off, the three knobs stay wherever
	// BatchHint/BusyPoll pin them.
	Adaptive bool
	// TunerParams overrides the control-loop pacing and safety envelope;
	// the zero value selects tuner.DefaultParams. Ignored unless
	// Adaptive.
	TunerParams tuner.Params
	// BusyPoll statically selects the kernel busy-poll wakeup mode
	// instead of MM need-wakeup signalling. Ignored when Adaptive (the
	// tuner owns the mode).
	BusyPoll bool
	// BatchHint statically pins the vector width AdviseBatch reports to
	// applications (default 1). Ignored when Adaptive.
	BatchHint int
	// EnclaveTCP runs TCP inside the trimmed enclave stack over the XSK
	// path instead of proxying it through io_uring: listen/accept/
	// connect/send/recv on sys.TCP sockets stay enclave-side with zero
	// steady-state exits, using the stateless SYN-cookie listen path.
	// Off (the paper's configuration, §4.2/§7), TCP goes to the host
	// through the io_uring proxy.
	EnclaveTCP bool
}

func (c *Config) fill() {
	if c.NumXSKs <= 0 {
		c.NumXSKs = 1
	}
	if c.RingSize == 0 {
		c.RingSize = 2048
	}
	if c.FrameSize == 0 {
		c.FrameSize = 2048
	}
	if c.FrameCount == 0 {
		c.FrameCount = 8192
	}
	if c.UringEntries == 0 {
		c.UringEntries = 64
	}
	if c.BounceBytes == 0 {
		c.BounceBytes = 256 * 1024
	}
	if c.Model == nil {
		c.Model = vtime.Default()
	}
}

// Runtime is one booted RAKIS instance.
type Runtime struct {
	cfg  Config
	kern *hostos.Kernel
	ns   *hostos.NetNS

	hostProc  *hostos.Proc
	libosProc *libos.Process

	// Stack is the in-enclave trimmed UDP/IP stack.
	Stack *netstack.Stack
	link  *sm.XskLink
	socks []*xsk.Socket
	pumps []*fm.XskPump
	mon   *mm.Monitor

	wdStop chan struct{}
	wdDone chan struct{}

	// Self-tuning runtime: tuning is the shared cell the data path
	// reads; tun and the loop goroutine exist only when cfg.Adaptive.
	// shardTuning holds one cell per XSK shard — at NumXSKs == 1 (or
	// static runs) every slot aliases tuning, so the single-queue
	// configuration is bit-identical to the pre-shard runtime; with
	// multiple shards under Adaptive each slot is an independent cell
	// stepped by its own shardTuns entry on per-shard evidence.
	tuning      *tuner.State
	tun         *tuner.Tuner
	shardTuning []*tuner.State
	shardTuns   []*tuner.Tuner
	tunClk      vtime.Clock
	depthHists  []*telemetry.Histogram
	appDepth    *telemetry.Histogram
	tunStop     chan struct{}
	tunDone     chan struct{}
	tunKick     chan struct{}

	mu       sync.Mutex
	fds      map[int]*entry
	nextFD   int
	uringFDs []int
}

type entryKind int

const (
	kindUDP entryKind = iota
	kindTCP
	kindHost
	kindEpoll
)

type entry struct {
	kind entryKind
	udp  *netstack.UDPSocket
	tcp  *netstack.TCPSocket
	// tcpPort holds a bound-but-not-yet-listening enclave TCP port
	// (bind() stores it; listen() consumes it).
	tcpPort uint16
	host    int
	ep      *repoll
}

// Boot initializes RAKIS on a host network namespace: it performs the
// untrusted XSK setup, validates and attaches the FastPath Modules,
// installs the steering XDP program, starts the per-XSK pump threads,
// and launches the Monitor Module.
func Boot(kern *hostos.Kernel, ns *hostos.NetNS, cfg Config) (*Runtime, error) {
	cfg.fill()
	if cfg.NumXSKs > ns.Dev.NumQueues() {
		return nil, fmt.Errorf("rakis: %d XSKs but interface has %d queues",
			cfg.NumXSKs, ns.Dev.NumQueues())
	}
	rt := &Runtime{
		cfg:      cfg,
		kern:     kern,
		ns:       ns,
		hostProc: kern.NewProc(ns, cfg.Counters),
		fds:      make(map[int]*entry),
		nextFD:   1 << 20,
		wdStop:   make(chan struct{}),
		wdDone:   make(chan struct{}),
	}
	// Arm the hostile host before any shared ring exists, so the injector
	// sees every ring the setup syscalls create.
	if cfg.Chaos != nil {
		kern.Chaos = cfg.Chaos
		cfg.Chaos.Bind(kern.Space, cfg.Counters)
		cfg.Chaos.SetTrace(cfg.Telemetry.NewBuf("chaos"))
	}
	if cfg.Telemetry != nil {
		telemetry.BindCounters(cfg.Telemetry.Reg, cfg.Counters)
		if kern.Trace == nil {
			kern.Trace = cfg.Telemetry.NewBuf("hostos")
		}
	}
	var bootClk vtime.Clock
	rt.mon = mm.New(rt.hostProc)

	for i := 0; i < cfg.NumXSKs; i++ {
		res, err := rt.hostProc.XSKSetup(ns, i, cfg.RingSize, cfg.FrameSize, cfg.FrameCount, &bootClk)
		if err != nil {
			return nil, err
		}
		sock, err := xsk.Attach(xsk.Config{
			Space: kern.Space, Setup: res.Setup,
			RingSize: cfg.RingSize, FrameSize: cfg.FrameSize, FrameCount: cfg.FrameCount,
			Counters: cfg.Counters, Model: cfg.Model,
			Trace: cfg.Telemetry.NewBuf(fmt.Sprintf("xsk%d", i)),
			Bell:  rt.mon.Ring,
		})
		if err != nil {
			return nil, fmt.Errorf("rakis: XSK %d rejected: %w", i, err)
		}
		rt.socks = append(rt.socks, sock)
	}

	rt.link = sm.NewXskLink(rt.socks, ns.Dev.MAC(), ns.Dev.MTU())
	stack, err := sm.NewEnclaveStack(rt.link, cfg.IP, cfg.Model, cfg.Counters, cfg.EnclaveTCP)
	if err != nil {
		return nil, err
	}
	rt.Stack = stack

	// The shared tuning cell exists in every configuration: static runs
	// pin it at (BatchHint, BusyPoll) and the data path reads it the same
	// way, so adaptive and static differ only in who writes the cell.
	batchHint := cfg.BatchHint
	if batchHint <= 0 {
		batchHint = 1
	}
	rt.tuning = tuner.NewState(batchHint, cfg.BusyPoll && !cfg.Adaptive)
	if cfg.Adaptive {
		rt.tun = tuner.New(cfg.TunerParams, rt.tuning)
	}
	// Every shard slot starts as an alias of the global cell; only a
	// multi-queue adaptive runtime splits them into independent cells.
	rt.shardTuning = make([]*tuner.State, cfg.NumXSKs)
	for i := range rt.shardTuning {
		rt.shardTuning[i] = rt.tuning
	}
	if cfg.Adaptive && cfg.NumXSKs > 1 {
		rt.shardTuns = make([]*tuner.Tuner, cfg.NumXSKs)
		for i := range rt.shardTuns {
			rt.shardTuning[i] = tuner.NewState(batchHint, false)
			rt.shardTuns[i] = tuner.New(cfg.TunerParams, rt.shardTuning[i])
		}
	}
	rt.link.SetShardTuning(rt.shardTuning)

	for i, sock := range rt.socks {
		pump := fm.NewXskPump(sock, stack, cfg.Model)
		pump.SetShard(i)
		pump.SetTuning(rt.shardTuning[i])
		var depth *telemetry.Histogram
		if cfg.Telemetry != nil {
			depth = cfg.Telemetry.Reg.Histogram(fmt.Sprintf("fm.xsk%d.qdepth", i))
		} else {
			depth = &telemetry.Histogram{}
		}
		pump.SetDepthHist(depth)
		rt.depthHists = append(rt.depthHists, depth)
		cfg.Telemetry.NewProbe(fmt.Sprintf("fm.xsk%d", i), pump.Clock())
		rt.pumps = append(rt.pumps, pump)
	}

	// The app-side receive backlog: XSK ring occupancy only shows load
	// the pump is behind on, but under a saturating app the queue builds
	// at the socket layer — the tuner needs both views of depth.
	if cfg.Telemetry != nil {
		rt.appDepth = cfg.Telemetry.Reg.Histogram("app.qdepth")
	} else {
		rt.appDepth = &telemetry.Histogram{}
	}
	rt.depthHists = append(rt.depthHists, rt.appDepth)

	ns.AttachXDP(steeringProgram(cfg.IP))
	installRSS(ns, cfg.IP, cfg.NumXSKs)

	for _, sock := range rt.socks {
		setup := xsk.Setup{
			FD:       sock.FD(),
			FillBase: sock.Fill.Base(), TXBase: sock.TX.Base(),
			RXBase: sock.RX.Base(), ComplBase: sock.Compl.Base(),
		}
		if err := rt.mon.WatchXSK(kern.Space, setup); err != nil {
			return nil, err
		}
	}

	rt.mon.Chaos = cfg.Chaos
	rt.mon.Counters = cfg.Counters
	rt.mon.Trace = cfg.Telemetry.NewBuf("mm")
	cfg.Telemetry.NewProbe("mm", rt.mon.Clock())

	// Per-shard suppression gauges and the busy-poll worker clocks: the
	// spin burn must show up in the breakdown, or busy-poll looks free.
	for i, sock := range rt.socks {
		fd := sock.FD()
		if cfg.Telemetry != nil {
			cfg.Telemetry.Reg.Reader(fmt.Sprintf("mm.xsk%d.wakeups_suppressed", i),
				func() uint64 { return rt.mon.Suppressed(fd) })
			// Per-shard rollup: RX packets the shard's pump moved, TX
			// packets its link lane sent, wakeup syscalls the MM issued
			// for it, and the frames it refused. The shards figure table
			// consumes these via Registry.Snapshot.
			cfg.Telemetry.Reg.Reader(fmt.Sprintf("fm.xsk%d.rx_pkts", i), rt.pumps[i].Moved)
			cfg.Telemetry.Reg.Reader(fmt.Sprintf("sm.xsk%d.tx_pkts", i),
				func() uint64 { return rt.link.ShardTx(i) })
			cfg.Telemetry.Reg.Reader(fmt.Sprintf("mm.xsk%d.wakeups", i),
				func() uint64 { return rt.mon.Wakeups(fd) })
			cfg.Telemetry.Reg.Reader(fmt.Sprintf("xsk%d.refusals", i), sock.Refusals)
		}
		if pc := rt.hostProc.XSKPollClock(fd); pc != nil {
			cfg.Telemetry.NewProbe(fmt.Sprintf("napi.xsk%d", i), pc)
		}
		if tc := rt.hostProc.XSKTxClock(fd); tc != nil {
			cfg.Telemetry.NewProbe(fmt.Sprintf("txdrv.xsk%d", i), tc)
		}
	}
	if cfg.BusyPoll && !cfg.Adaptive {
		// Static busy-poll: apply immediately and keep the MM's applied
		// state consistent so its sweeps skip the XSK watches.
		rt.mon.RequestBusyPoll(true)
	}
	if cfg.Adaptive {
		cfg.Telemetry.NewProbe("tuner", &rt.tunClk)
		if cfg.Telemetry != nil {
			cfg.Telemetry.Reg.Reader("tuner.batch", func() uint64 { return uint64(rt.tuning.Batch()) })
			cfg.Telemetry.Reg.Reader("tuner.busypoll", func() uint64 {
				if rt.tuning.BusyPoll() {
					return 1
				}
				return 0
			})
			cfg.Telemetry.Reg.Reader("tuner.mode_switches", func() uint64 { return rt.tun.Stats().ModeSwitches })
			cfg.Telemetry.Reg.Reader("tuner.clamps", func() uint64 { return rt.tun.Stats().Clamps })
			cfg.Telemetry.Reg.Reader("tuner.envelope_violations", func() uint64 { return rt.tun.Stats().EnvelopeViolations })
		}
	}

	rt.libosProc = libos.NewProcess(kern.NewProc(ns, cfg.Counters), cfg.Mode, cfg.Counters)
	rt.libosProc.SetTelemetry(cfg.Telemetry)

	// TX wakeups are edge-triggered: a swallowed sendto leaves xTX
	// stranded forever. Each pump gets the nudge/kick ladder against its
	// own socket.
	for i, p := range rt.pumps {
		fd := rt.socks[i].FD()
		p.SetWaker(iouring.Waker{
			Nudge: rt.mon.Nudge,
			Dead:  rt.mon.Dead,
			Kick: func() {
				var clk vtime.Clock
				rt.hostProc.XSKSendto(fd, &clk)
				rt.fallbackExit(1)
			},
		})
	}

	for _, p := range rt.pumps {
		p.Start()
	}
	rt.mon.Start()
	if cfg.Chaos != nil {
		cfg.Chaos.Start()
	}
	go rt.watchdog()
	if cfg.Adaptive {
		rt.tunStop = make(chan struct{})
		rt.tunDone = make(chan struct{})
		rt.tunKick = make(chan struct{}, 1)
		go rt.tuneLoop()
	}
	return rt, nil
}

// tuneWindow is the previous cut of the tuner's counter inputs.
type tuneWindow struct {
	ops, bcalls, bmsgs, suppressed, drops uint64
	depth                                 telemetry.HistSnapshot
	// shards holds the per-shard cut when the runtime runs independent
	// shard tuners (nil otherwise).
	shards []shardWindow
}

// shardWindow is one shard's slice of the counter cut: packets its own
// pump and TX lane moved, wakeups the MM suppressed for its fd, and its
// pump's queue-depth histogram.
type shardWindow struct {
	ops, suppressed uint64
	depth           telemetry.HistSnapshot
}

// tuneLoop runs the self-tuning control loop: each step differences the
// trusted counters against the previous window, steps the tuner, and
// forwards the wakeup-mode request to the Monitor Module (which applies
// it with host-thread syscalls — a mode switch never costs an enclave
// exit). Steps are driven two ways: the data path kicks the loop when
// fresh evidence lands (so a short hot burst gets as many control steps
// as it has traffic, independent of wall-clock timer resolution), and a
// ticker provides the idle heartbeat that lets the tuner decay batch
// width and leave busy-poll when traffic stops.
func (rt *Runtime) tuneLoop() {
	defer close(rt.tunDone)
	tick := time.NewTicker(100 * time.Microsecond)
	defer tick.Stop()
	var prev tuneWindow
	for {
		fromTick := false
		select {
		case <-rt.tunStop:
			return
		case <-rt.tunKick:
		case <-tick.C:
			fromTick = true
		}
		rt.tuneStep(&prev, fromTick)
	}
}

// Control-step evidence floors: a step fires once a window holds this
// many ops or depth samples; smaller windows keep accumulating. Idle
// ticker steps (no traffic at all) bypass the floor so batch width and
// busy-poll can decay when load stops.
const (
	tuneWindowOps     = 16
	tuneWindowSamples = 8
)

// kickTuner nudges the control loop from the data path. Non-blocking
// and coalescing: a full kick channel means a step is already pending.
func (rt *Runtime) kickTuner() {
	if rt.tunKick == nil {
		return
	}
	select {
	case rt.tunKick <- struct{}{}:
	default:
	}
}

func (rt *Runtime) tuneStep(prev *tuneWindow, fromTick bool) {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	var cur tuneWindow
	if c := rt.cfg.Counters; c != nil {
		cur.ops = c.PacketsRx.Load() + c.PacketsTx.Load()
		cur.bcalls = c.BatchCalls.Load()
		cur.bmsgs = c.BatchedMsgs.Load()
		cur.drops = c.PacketsDropped.Load()
	}
	for _, s := range rt.mon.WatchStats() {
		cur.suppressed += s.Suppressed
	}
	for _, h := range rt.depthHists {
		cur.depth = cur.depth.Merge(h.Snapshot())
	}
	in := tuner.Input{
		Ops:         sub(cur.ops, prev.ops),
		BatchCalls:  sub(cur.bcalls, prev.bcalls),
		BatchedMsgs: sub(cur.bmsgs, prev.bmsgs),
		Suppressed:  sub(cur.suppressed, prev.suppressed),
		Drops:       sub(cur.drops, prev.drops),
		Depth:       cur.depth.Sub(prev.depth),
	}
	if in.Ops < tuneWindowOps && in.Depth.Count < tuneWindowSamples {
		// Thin evidence: a one-sample window would let a single quiet
		// drain vote down a ramp the backlog justifies. Accumulate —
		// unless the ticker says traffic has stopped entirely, which is
		// the decay path and needs no evidence.
		if !fromTick || in.Ops > 0 {
			return
		}
	}
	// The loop's own cost: one LibOS-call-sized charge per active step.
	// Idle steps are free spins on a parked thread and would otherwise
	// dominate the adaptive configuration's cycle count at trickle.
	if in.Ops > 0 || in.Depth.Count > 0 {
		rt.tunClk.Advance(rt.cfg.Model.LibOSCall)
	}
	d := rt.tun.Step(in)
	busy := d.Mode == tuner.ModeBusyPoll
	// Multi-queue adaptive runtimes additionally step one tuner per
	// shard on that shard's own evidence (its pump's RX, its TX lane,
	// its fd's suppressions, its queue depth plus the shared app
	// backlog). The global tuner keeps owning the advised batch width;
	// the wakeup mode the MM applies is the OR of every decision — one
	// hot shard is reason enough to spin, and the MM applies the mode
	// to all queues anyway.
	if rt.shardTuns != nil {
		cur.shards = make([]shardWindow, len(rt.shardTuns))
		app := rt.appDepth.Snapshot()
		for i, st := range rt.shardTuns {
			sw := &cur.shards[i]
			sw.ops = rt.pumps[i].Moved() + rt.link.ShardTx(i)
			sw.suppressed = rt.mon.Suppressed(rt.socks[i].FD())
			sw.depth = rt.depthHists[i].Snapshot().Merge(app)
			var p shardWindow
			if i < len(prev.shards) {
				p = prev.shards[i]
			}
			sd := st.Step(tuner.Input{
				Ops:         sub(sw.ops, p.ops),
				BatchCalls:  in.BatchCalls,
				BatchedMsgs: in.BatchedMsgs,
				Suppressed:  sub(sw.suppressed, p.suppressed),
				Drops:       in.Drops,
				Depth:       sw.depth.Sub(p.depth),
			})
			busy = busy || sd.Mode == tuner.ModeBusyPoll
		}
	}
	rt.mon.RequestBusyPoll(busy)
	*prev = cur
}

// watchdog is the MM-death degradation path (§4.3: the Monitor Module is
// outside the TCB, so its death may cost availability, never integrity).
// While the MM is alive it does nothing; once the MM thread is dead it
// issues every watched wakeup syscall directly — paying the enclave
// exits RAKIS normally avoids — so in-flight IO still completes.
func (rt *Runtime) watchdog() {
	defer close(rt.wdDone)
	var clk vtime.Clock
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-rt.wdStop:
			return
		case <-tick.C:
		}
		if !rt.mon.Dead() {
			continue
		}
		for _, s := range rt.socks {
			rt.hostProc.XSKSendto(s.FD(), &clk)
			rt.hostProc.XSKRecvfrom(s.FD(), &clk)
			rt.fallbackExit(2)
		}
		rt.mu.Lock()
		fds := append([]int(nil), rt.uringFDs...)
		rt.mu.Unlock()
		for _, fd := range fds {
			rt.hostProc.IoUringEnter(fd, &clk)
			rt.fallbackExit(1)
		}
	}
}

// fallbackExit accounts n wakeups paid as direct enclave exits because
// the free Monitor Module path was unavailable.
func (rt *Runtime) fallbackExit(n uint64) {
	if rt.cfg.Counters != nil {
		rt.cfg.Counters.FallbackExits.Add(n)
		rt.cfg.Counters.EnclaveExits.Add(n)
	}
}

// steeringProgram builds the XDP filter: IPv4 packets addressed to the
// enclave IP and ARP packets targeting it are redirected to the queue's
// XSK; everything else passes to the kernel stack.
func steeringProgram(ip netstack.IP4) hostos.XDPProg {
	return func(frame []byte) hostos.Verdict {
		eth, payload, err := netstack.ParseEth(frame)
		if err != nil {
			return hostos.VerdictPass
		}
		switch eth.Type {
		case netstack.EtherTypeIPv4:
			if len(payload) >= 20 && payload[0]>>4 == 4 {
				var dst netstack.IP4
				copy(dst[:], payload[16:20])
				if dst == ip {
					return hostos.VerdictRedirect
				}
			}
		case netstack.EtherTypeARP:
			if len(payload) >= 28 {
				var tpa netstack.IP4
				copy(tpa[:], payload[24:28])
				if tpa == ip {
					return hostos.VerdictRedirect
				}
			}
		}
		return hostos.VerdictPass
	}
}

// installRSS spreads enclave-bound flows over the XSK-backed queues and
// leaves other traffic on the default hash. The steering hash is
// netstack.FlowHash over netstack.FrameFlow's key — the same pair the
// enclave's demux shards and the link's flow-affine TX use — so a flow's
// RX queue, its demux shard, and its reply TX queue all agree by
// construction.
func installRSS(ns *hostos.NetNS, ip netstack.IP4, numXSKs int) {
	ns.Dev.SetRSS(func(data []byte, queues int) int {
		src, dst, sport, dport, ok := netstack.FrameFlow(data)
		if ok && dst == ip {
			return netstack.RXShard(src, dst, sport, dport, numXSKs)
		}
		if len(data) >= netstack.EthHeaderBytes && uint16(data[12])<<8|uint16(data[13]) == netstack.EtherTypeARP {
			return 0 // ARP always lands on queue 0 (XSK 0 or kernel)
		}
		return netsim.DefaultRSS(data, queues)
	})
}

// Close stops the pumps, the monitor, and the enclave stack. The
// watchdog stops first: the monitor's normal shutdown looks exactly like
// an MM death, and must not trigger a burst of paid fallback exits.
func (rt *Runtime) Close() {
	if rt.tunStop != nil {
		select {
		case <-rt.tunStop:
		default:
			close(rt.tunStop)
		}
		<-rt.tunDone
	}
	select {
	case <-rt.wdStop:
	default:
		close(rt.wdStop)
	}
	<-rt.wdDone
	if rt.cfg.Chaos != nil {
		rt.cfg.Chaos.Stop()
	}
	for _, p := range rt.pumps {
		p.Close()
	}
	rt.mon.Close()
	var clk vtime.Clock
	// Retire the per-thread io_urings: each one's kernel worker goroutine
	// otherwise outlives the runtime and pins the world's address space.
	// After the watchdog (which enters them when the MM is dead) and the
	// Monitor (which watches their rings) have stopped.
	rt.mu.Lock()
	uringFDs := rt.uringFDs
	rt.uringFDs = nil
	rt.mu.Unlock()
	for _, fd := range uringFDs {
		rt.hostProc.Close(fd, &clk)
	}
	// Retire any busy-poll workers the tuner (or a static BusyPoll
	// config) left running; their clocks stay readable for breakdowns.
	for _, s := range rt.socks {
		rt.hostProc.XSKBusyPoll(s.FD(), false, &clk)
	}
	rt.Stack.Close()
}

// SpliceUDPEcho registers a zero-copy in-place UDP echo on port: frames
// addressed to it are reflected RX→TX through the owning XSK without a
// payload copy. Passing enable=false unregisters. Returns whether the
// splice is active.
func (rt *Runtime) SpliceUDPEcho(port uint16, enable bool) bool {
	if enable {
		rt.Stack.SpliceUDPEcho(port, rt.link)
	} else {
		rt.Stack.SpliceUDPEcho(port, nil)
	}
	return enable
}

// Monitor exposes the Monitor Module (for tests and diagnostics).
func (rt *Runtime) Monitor() *mm.Monitor { return rt.mon }

// ShardStat is one XSK shard's rollup: the packets its pump and TX lane
// moved, the wakeup syscalls the MM issued and suppressed for its fd,
// the frames it refused, and its tuning cell's current operating point.
type ShardStat struct {
	Shard      int
	FD         int
	RxPkts     uint64
	TxPkts     uint64
	Wakeups    uint64
	Suppressed uint64
	Refusals   uint64
	Batch      int
	BusyPoll   bool
}

// ShardStats returns a coherent per-shard rollup, one entry per XSK.
// The same numbers are exported as fm.xsk<i>.rx_pkts /
// sm.xsk<i>.tx_pkts / mm.xsk<i>.wakeups / xsk<i>.refusals registry
// readers when telemetry is on; this accessor works either way.
func (rt *Runtime) ShardStats() []ShardStat {
	out := make([]ShardStat, len(rt.socks))
	for i, sock := range rt.socks {
		fd := sock.FD()
		st := rt.shardTuning[i]
		out[i] = ShardStat{
			Shard:      i,
			FD:         fd,
			RxPkts:     rt.pumps[i].Moved(),
			TxPkts:     rt.link.ShardTx(i),
			Wakeups:    rt.mon.Wakeups(fd),
			Suppressed: rt.mon.Suppressed(fd),
			Refusals:   sock.Refusals(),
			Batch:      st.Batch(),
			BusyPoll:   st.BusyPoll(),
		}
	}
	return out
}

// Pumps exposes the XSK pump threads (their clocks feed measurements).
func (rt *Runtime) Pumps() []*fm.XskPump { return rt.pumps }

// HostProc exposes the host-side process used for setup and the MM.
func (rt *Runtime) HostProc() *hostos.Proc { return rt.hostProc }

// TunerStats returns the control loop's accounting; the zero Stats when
// the runtime is not adaptive. The chaos harness asserts
// EnvelopeViolations == 0 and MinSwitchGap >= Guard on it.
func (rt *Runtime) TunerStats() tuner.Stats {
	if rt.tun == nil {
		return tuner.Stats{}
	}
	return rt.tun.Stats()
}

// TunerRecommend returns the geometry the tuner recommends for the next
// (re)configure: ring size and UMem frame count derived from the
// observed depth percentiles. Zeroes when not adaptive.
func (rt *Runtime) TunerRecommend() (ringSize, frameCount uint32) {
	if rt.tun == nil {
		return 0, 0
	}
	d := rt.tun.Recommend()
	return d.Ring, d.Frames
}

// registerEntry installs an fd table entry and returns its descriptor.
func (rt *Runtime) registerEntry(e *entry) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if e.kind == kindHost {
		rt.fds[e.host] = e
		return e.host
	}
	fd := rt.nextFD
	rt.nextFD++
	rt.fds[fd] = e
	return fd
}

func (rt *Runtime) lookup(fd int) (*entry, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e, ok := rt.fds[fd]
	return e, ok
}

func (rt *Runtime) remove(fd int) (*entry, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e, ok := rt.fds[fd]
	if ok {
		delete(rt.fds, fd)
	}
	return e, ok
}

// attachUring builds one application thread's io_uring FM: the host-side
// setup "syscalls" followed by in-enclave validation (§4.1).
func (rt *Runtime) attachUring(clk *vtime.Clock) (*fm.UringFM, error) {
	setup, err := rt.hostProc.IoUringSetup(rt.cfg.UringEntries, clk)
	if err != nil {
		return nil, err
	}
	ring, err := iouring.Attach(iouring.Config{
		Space: rt.kern.Space, Setup: setup, Entries: rt.cfg.UringEntries,
		Counters: rt.cfg.Counters, Model: rt.cfg.Model,
		Waker: iouring.Waker{
			Nudge: rt.mon.Nudge,
			Dead:  rt.mon.Dead,
			Kick: func() {
				var kclk vtime.Clock
				rt.hostProc.IoUringEnter(setup.FD, &kclk)
				rt.fallbackExit(1)
			},
			Bell: rt.mon.Ring,
		},
	})
	if err != nil {
		return nil, err
	}
	ufm, err := fm.NewUringFM(ring, rt.kern.Space, rt.cfg.Model, rt.cfg.BounceBytes)
	if err != nil {
		return nil, err
	}
	if err := rt.mon.WatchUring(rt.kern.Space, setup); err != nil {
		return nil, err
	}
	rt.mu.Lock()
	rt.uringFDs = append(rt.uringFDs, setup.FD)
	rt.mu.Unlock()
	return ufm, nil
}
