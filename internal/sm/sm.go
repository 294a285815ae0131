// Package sm implements the Service Module (§4.2): the layer that bridges
// the gap between what the FIOKPs deliver (layer-2 frames, raw CQEs) and
// what unmodified applications expect (POSIX socket and file syscalls).
//
// It has three parts, as in the paper:
//
//   - The in-enclave UDP/IP stack: a trimmed netstack configuration
//     (the LWIP 80K→5K cut) whose link device, XskLink, lends it the
//     UMem frames it builds every outgoing frame in — scalar or
//     vectored, one path — on the XSK FastPath Module its flow's inbound
//     packets arrive on.
//   - The SyncProxy: a thin per-thread stub that forwards the five
//     io_uring-served syscalls to a UringFM and blocks for the result.
//   - The API submodule: routes syscalls to the right IO provider and
//     aggregates poll across providers by arming asynchronous io_uring
//     polls for host descriptors while busy-watching enclave UDP sockets.
//
//rakis:role enclave
package sm

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"rakis/internal/fm"
	"rakis/internal/mem"
	"rakis/internal/netstack"
	"rakis/internal/tuner"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

// XskLink exposes a set of XSK FastPath Modules as the enclave stack's
// layer-2 device: a netstack.LendingDevice with one TX lane per XSK.
// TX is flow-affine, and the lane is the stack's choice, not the link's:
// the stack hashes the flow tuple it already holds in trusted memory
// (netstack.TXShard — the reversed netstack.FlowHash, which by the RSS
// consistency invariant is exactly the queue the flow's inbound packets
// arrive on) and names the lane in Lend and Publish, so a flow's RX,
// stack processing, and TX all stay on one shard and no frame is ever
// parsed on its way out. Frames with no flow identity (ARP) use lane 0,
// matching the steering program's ARP-on-queue-0 rule.
//
// There is one TX path: the stack borrows a run of UMem frames from the
// lane's socket (Lend), builds its frames in them, and Publish produces
// the run on xTX, riding out a full ring on the lane's ladder. A scalar
// send is a run of one. Concurrent senders of one lane serialize on the
// socket's own lock, and only while lending and publishing — they build
// in parallel; nothing queues frames in between (DESIGN.md, "Batched
// fast path", records why the former coalescer was removed).
type XskLink struct {
	socks []*xsk.Socket
	mac   [6]byte
	mtu   int

	// txPkts counts the frames each shard's lane has transmitted.
	txPkts []atomic.Uint64

	// shardTuning gives each shard's full-ring ladder its wakeup mode
	// cell: under busy-poll the kernel worker drains xTX every few
	// microseconds, so a busy-polled hot queue backs off at poll scale
	// while its idle neighbours keep the long need-wakeup ladder.
	shardTuning []*tuner.State
}

// NewXskLink bundles the XSKs behind one link device.
func NewXskLink(socks []*xsk.Socket, mac [6]byte, mtu int) *XskLink {
	return &XskLink{
		socks:  socks,
		mac:    mac,
		mtu:    mtu,
		txPkts: make([]atomic.Uint64, len(socks)),
	}
}

// SetShardTuning installs per-shard tuner states (index-aligned with
// the sockets). Call before traffic starts.
func (l *XskLink) SetShardTuning(states []*tuner.State) { l.shardTuning = states }

// ShardTx returns the number of frames shard i has transmitted.
func (l *XskLink) ShardTx(i int) uint64 {
	if i < 0 || i >= len(l.txPkts) {
		return 0
	}
	return l.txPkts[i].Load()
}

// sendRetryMax bounds the retries on a full TX ring. Transient fullness
// has two causes: genuine wire backpressure (completions land within the
// backoff) and a scribbled shared control word quarantining the ring —
// each retry's certified refresh counts toward the
// quarantine-and-resync threshold, so the ring heals within the first
// few attempts. Fullness that survives all retries means the wire really
// is the bottleneck, and the frame drops like a NIC queue overflow.
const sendRetryMax = 8

// ladder returns the full-ring recovery ladder one send on the lane
// climbs: sendRetryMax rungs doubling from 10 µs up to the lane's ceiling.
func (l *XskLink) ladder(lane int) vtime.Backoff {
	ceil := 320 * time.Microsecond
	if lane < len(l.shardTuning) && l.shardTuning[lane].BusyPoll() {
		ceil = 20 * time.Microsecond
	}
	return vtime.NewBackoff(10*time.Microsecond, ceil, sendRetryMax)
}

// step climbs one rung — reap the socket's completions, sleep — and
// reports false once the rungs are spent.
func step(ld *vtime.Backoff, s *xsk.Socket, clk *vtime.Clock) bool {
	if !ld.More() {
		return false
	}
	s.Reap(clk)
	ld.Sleep()
	return true
}

// Lend borrows a UMem TX frame of the lane's socket for each element of
// bufs, every one at least size bytes, riding out an empty frame pool on
// the lane's ladder. It implements netstack.LendingDevice.
func (l *XskLink) Lend(lane, size int, bufs []mem.TxBuf, clk *vtime.Clock) (int, error) {
	s := l.socks[lane]
	if uint32(size) > s.UMem.FrameSize() {
		return 0, xsk.ErrTooBig
	}
	for ld := l.ladder(lane); ; {
		if n := s.Lend(bufs, clk); n > 0 {
			return n, nil
		}
		if !step(&ld, s, clk) {
			return 0, xsk.ErrNoFrame
		}
	}
}

// Publish produces a run of lent, built frames on the lane's xTX as one
// batched publish per ring pass, riding out transient fullness on the
// lane's ladder. It returns how many leading frames went out. Frames
// still unsent after the ladder drop like a NIC queue overflow — they go
// back to the frame pool, and the error (ErrRingFull, or whatever
// stopped the ring taking them) is reported beside the count.
func (l *XskLink) Publish(lane int, bufs []mem.TxBuf, clk *vtime.Clock) (int, error) {
	s := l.socks[lane]
	ld := l.ladder(lane)
	sent := 0
	for {
		n, err := s.Publish(bufs[sent:], clk)
		l.txPkts[lane].Add(uint64(n))
		if sent += n; sent == len(bufs) {
			return sent, nil
		}
		if (err != nil && err != xsk.ErrRingFull) || !step(&ld, s, clk) {
			s.Abort(bufs[sent:])
			if err == nil {
				err = xsk.ErrRingFull
			}
			return sent, err
		}
	}
}

// SpliceFrame re-queues a certified RX frame view onto the TX ring of
// the socket that owns its UMem frame — a splice is inherently
// shard-affine, the frame never leaves its owning XSK — riding out
// transient TX fullness on the same ladder as the copied send path. It
// implements netstack.SpliceDevice for the in-place echo path.
func (l *XskLink) SpliceFrame(v *mem.View, n uint32, clk *vtime.Clock) error {
	shard := -1
	for i, s := range l.socks {
		if v.Owner() == mem.ViewOwner(s) {
			shard = i
			break
		}
	}
	if shard < 0 {
		return fmt.Errorf("sm: view not backed by an XSK socket of this link")
	}
	s, ld := l.socks[shard], l.ladder(shard)
	for {
		err := s.SpliceFrame(v, n, clk)
		if err == nil {
			l.txPkts[shard].Add(1)
		}
		if err != xsk.ErrRingFull || !step(&ld, s, clk) {
			return err
		}
	}
}

// MAC returns the interface hardware address.
func (l *XskLink) MAC() [6]byte { return l.mac }

// MTU returns the link MTU.
func (l *XskLink) MTU() int { return l.mtu }

// NewEnclaveStack builds the trimmed in-enclave UDP/IP stack over the
// given XSK link, with one demux shard per XSK queue so the pump
// threads share no hot-path lock. enableTCP opts in to the in-enclave
// TCP layer (beyond the paper, which kept the enclave UDP-only per §7
// and proxied TCP through io_uring); when enabled the listen path runs
// stateless SYN cookies, since an enclave port is open-internet-facing
// and must hold no state for unproven peers.
func NewEnclaveStack(link *XskLink, ip netstack.IP4, model *vtime.Model, counters *vtime.Counters, enableTCP bool) (*netstack.Stack, error) {
	if model == nil {
		model = vtime.Default()
	}
	return netstack.New(netstack.Config{
		Name:          "enclave",
		Dev:           link,
		IP:            ip,
		Model:         model,
		Counters:      counters,
		EnableTCP:     enableTCP,
		TCPCookies:    enableTCP,
		EnableICMP:    false,
		PerPacketCost: model.EnclaveStackPerPacket,
		Shards:        len(link.socks),
	})
}

// SyncProxy forwards synchronous IO requests to a per-thread io_uring FM
// and waits for completion (§4.2). It is per-thread, like its FM.
type SyncProxy struct {
	FM    *fm.UringFM
	model *vtime.Model
}

// NewSyncProxy wraps a UringFM.
func NewSyncProxy(u *fm.UringFM, model *vtime.Model) *SyncProxy {
	if model == nil {
		model = vtime.Default()
	}
	return &SyncProxy{FM: u, model: model}
}

func (sp *SyncProxy) charge(clk *vtime.Clock) {
	clk.Charge(vtime.CompAPI, sp.model.SyncProxyOp)
}

// Read reads from a host file through io_uring.
func (sp *SyncProxy) Read(fd int, p []byte, clk *vtime.Clock) (int, error) {
	sp.charge(clk)
	return sp.FM.ReadAt(fd, p, fm.CursorOff, clk)
}

// Pread reads at an offset.
func (sp *SyncProxy) Pread(fd int, p []byte, off int64, clk *vtime.Clock) (int, error) {
	sp.charge(clk)
	return sp.FM.ReadAt(fd, p, uint64(off), clk)
}

// Write writes to a host file through io_uring.
func (sp *SyncProxy) Write(fd int, p []byte, clk *vtime.Clock) (int, error) {
	sp.charge(clk)
	return sp.FM.WriteAt(fd, p, fm.CursorOff, clk)
}

// Pwrite writes at an offset.
func (sp *SyncProxy) Pwrite(fd int, p []byte, off int64, clk *vtime.Clock) (int, error) {
	sp.charge(clk)
	return sp.FM.WriteAt(fd, p, uint64(off), clk)
}

// Send sends on a host TCP socket through io_uring.
func (sp *SyncProxy) Send(fd int, p []byte, clk *vtime.Clock) (int, error) {
	sp.charge(clk)
	return sp.FM.Send(fd, p, clk)
}

// Recv receives from a host TCP socket through io_uring.
func (sp *SyncProxy) Recv(fd int, p []byte, clk *vtime.Clock) (int, error) {
	sp.charge(clk)
	return sp.FM.Recv(fd, p, clk)
}

// Fsync flushes a host file through io_uring.
func (sp *SyncProxy) Fsync(fd int, clk *vtime.Clock) error {
	sp.charge(clk)
	return sp.FM.Fsync(fd, clk)
}

// PollSource is one descriptor in a cross-provider poll: an enclave UDP
// socket, an enclave TCP socket, or a host descriptor reached through
// io_uring.
type PollSource struct {
	// UDP, when non-nil, is an enclave-stack UDP socket.
	UDP *netstack.UDPSocket
	// TCP, when non-nil, is an enclave-stack TCP socket (connection or
	// listener; a listener's readability is backlog occupancy).
	TCP *netstack.TCPSocket
	// HostFD is a host descriptor (TCP socket or file), used when UDP
	// and TCP are nil. A negative HostFD is a descriptor the caller could
	// not resolve: it reports PollErr at once and never reaches the FM.
	HostFD int
	// Events is the interest mask, in netstack's poll bits.
	Events uint32
	// Revents receives the ready mask.
	Revents uint32
}

// PollCache keeps io_uring polls armed across Poll calls, the way an
// event loop wants: a descriptor that stayed quiet through one select
// need not be re-armed (two ring operations plus a kernel wakeup) on the
// next. The cache is per-thread, like the io_uring FM it feeds.
type PollCache struct {
	armed map[int]pollArm
}

type pollArm struct {
	token  uint64
	events uint32
}

// NewPollCache returns an empty cache.
func NewPollCache() *PollCache {
	return &PollCache{armed: make(map[int]pollArm)}
}

// Drop cancels any armed poll for fd (call on close).
func (c *PollCache) Drop(fd int, sp *SyncProxy, clk *vtime.Clock) {
	if c == nil {
		return
	}
	if arm, ok := c.armed[fd]; ok {
		sp.FM.CancelPoll(arm.token, clk)
		delete(c.armed, fd)
	}
}

// Poll is the API submodule's cross-provider aggregation (§4.2): host
// descriptors get asynchronous io_uring poll operations; enclave UDP
// sockets are watched directly; the caller busy-waits over both so no
// provider's events starve the other's. timeout < 0 blocks indefinitely.
// Armed polls are cancelled before returning.
func Poll(srcs []PollSource, timeout time.Duration, sp *SyncProxy, model *vtime.Model, clk *vtime.Clock) (int, error) {
	return PollCached(srcs, timeout, sp, model, clk, nil)
}

// pollPark is the aggregation's parking: a sleep per quiet pass.
var pollPark = vtime.Park{Quantum: 20 * time.Microsecond}

// PollCached is Poll with an optional armed-poll cache: with a cache,
// un-fired polls stay armed across calls instead of being cancelled.
func PollCached(srcs []PollSource, timeout time.Duration, sp *SyncProxy, model *vtime.Model, clk *vtime.Clock, cache *PollCache) (int, error) {
	if model == nil {
		model = vtime.Default()
	}
	// The per-descriptor cost is paid for work actually done: arming a
	// poll, checking an enclave socket, or consuming a completion.
	// Descriptors left armed in the cache cost nothing while quiet —
	// that is the epoll-shaped O(ready) advantage over re-scanned poll.
	clk.Charge(vtime.CompAPI, model.APIHook)

	// Arm async polls for host descriptors, reusing cached arms whose
	// interest mask matches. Fresh arms are batched: every descriptor
	// that needs one goes out in a single SubmitPollN run, so N cold
	// descriptors cost one producer publish and at most one MM wakeup.
	tokens := make([]uint64, len(srcs))
	armed := make([]bool, len(srcs))
	setArm := func(i int, tok uint64) {
		tokens[i], armed[i] = tok, true
		if cache != nil {
			cache.armed[srcs[i].HostFD] = pollArm{token: tok, events: srcs[i].Events}
		}
	}
	cancelRest := func() {
		if cache != nil {
			return // keep un-fired polls armed for the next call
		}
		for i := range srcs {
			if armed[i] {
				sp.FM.CancelPoll(tokens[i], clk)
			}
		}
	}
	var needArm []int
	for i := range srcs {
		srcs[i].Revents = 0
		if srcs[i].UDP != nil || srcs[i].TCP != nil {
			clk.Charge(vtime.CompAPI, model.PollPerFD)
			continue
		}
		if srcs[i].HostFD < 0 {
			srcs[i].Revents = netstack.PollErr
			continue
		}
		if cache != nil {
			if prev, ok := cache.armed[srcs[i].HostFD]; ok {
				if prev.events == srcs[i].Events {
					tokens[i] = prev.token
					armed[i] = true
					continue
				}
				sp.FM.CancelPoll(prev.token, clk)
				delete(cache.armed, srcs[i].HostFD)
			}
		}
		needArm = append(needArm, i)
	}
	if len(needArm) > 0 {
		reqs := make([]fm.PollReq, len(needArm))
		for j, i := range needArm {
			clk.Charge(vtime.CompAPI, model.PollPerFD)
			reqs[j] = fm.PollReq{FD: srcs[i].HostFD, Events: srcs[i].Events}
		}
		toks, err := sp.FM.SubmitPollN(reqs, clk)
		for j := range toks {
			setArm(needArm[j], toks[j])
		}
		if err != nil {
			// A partial arm: the armed prefix must not outlive the call,
			// or its tokens sit in the ring's outstanding set for good.
			cancelRest()
			return 0, err
		}
	}

	// A zero timeout still needs one kernel round trip for armed polls:
	// the completion of an already-ready descriptor takes a Monitor
	// Module sweep plus the SQ worker. Bound that wait instead of
	// reporting a false not-ready.
	anyArmed := slices.Contains(armed, true)
	if timeout == 0 && anyArmed {
		timeout = time.Millisecond
	}
	n := 0
	vtime.Until(timeout, pollPark, func(elapsed time.Duration) bool {
		n = 0
		for i := range srcs {
			s := &srcs[i]
			switch {
			case s.Revents != 0:
			case s.UDP != nil:
				s.Revents = s.UDP.Ready(s.Events)
			case s.TCP != nil:
				s.Revents = s.TCP.Ready(s.Events)
			case armed[i]:
				res, done, err := sp.FM.TryPoll(tokens[i], clk)
				if !done && err == nil {
					continue
				}
				armed[i] = false
				if cache != nil {
					delete(cache.armed, s.HostFD)
				}
				switch {
				case err == nil && res > 0:
					s.Revents = uint32(res)
				case err == nil && res == 0:
					// The kernel-side wait expired; re-arm.
					clk.Charge(vtime.CompAPI, model.PollPerFD)
					if tok, err := sp.FM.SubmitPoll(s.HostFD, s.Events, clk); err == nil {
						setArm(i, tok)
						break
					}
					fallthrough
				default:
					// The completion was refused, the kernel refused to
					// poll this descriptor (closed fd, hostile errno) or
					// the re-arm found no room in iSub: report it, as
					// epoll reports EPOLLERR — swallowing it would leave
					// the descriptor silently unwatched for the rest of
					// this wait.
					s.Revents = netstack.PollErr
				}
			}
			if s.Revents != 0 {
				n++
			}
		}
		// TryPoll never blocks, so unlike Wait it climbs no ladder of its
		// own — yet a completion the kernel already posted can be hidden
		// behind a scribbled producer cell, and an idle kernel makes no
		// store that would heal it. Step the ring's ladder while the
		// polls stay quiet so the kernel republishes its indices.
		if n == 0 && anyArmed {
			sp.FM.Escalate(elapsed)
		}
		return n > 0
	})
	cancelRest()
	return n, nil
}
