// Package hostos simulates the untrusted host: a Linux-like kernel with a
// syscall layer, an in-memory filesystem, kernel network stacks in
// per-interface network namespaces, and the kernel sides of the two
// FIOKPs RAKIS uses — AF_XDP sockets (including the XDP hook on the NIC
// receive path) and io_uring (including its worker thread).
//
// Everything in this package runs with mem.RoleHost: it can read and
// write shared untrusted memory but is physically unable to touch the
// simulated enclave segment, which is how a hostile kernel is modelled in
// tests — it may scribble on rings and UMem but not on trusted state.
//
//rakis:role host
package hostos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rakis/internal/chaos"
	"rakis/internal/mem"
	"rakis/internal/netsim"
	"rakis/internal/netstack"
	"rakis/internal/sys"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// Errno-style errors returned by the syscall layer.
var (
	ErrBadFD     = errors.New("hostos: bad file descriptor")
	ErrNotSocket = errors.New("hostos: not a socket")
	ErrNotFile   = errors.New("hostos: not a file")
	ErrNoEnt     = errors.New("hostos: no such file")
	ErrInval     = errors.New("hostos: invalid argument")
)

// SockType selects the kernel socket protocol.
type SockType int

const (
	// SockUDP is SOCK_DGRAM over IPv4.
	SockUDP SockType = iota
	// SockTCP is SOCK_STREAM over IPv4.
	SockTCP
)

// Kernel is one simulated host kernel.
type Kernel struct {
	Space *mem.Space
	Model *vtime.Model

	// Chaos, when non-nil, makes this kernel hostile: the fault-injection
	// hooks in the wakeup syscalls, the io_uring worker, and the XSK
	// paths consult it. A nil injector is the well-behaved host.
	Chaos *chaos.Injector

	// Trace, when non-nil, receives one event per syscall entry.
	Trace *telemetry.Buf

	vfs *VFS

	mu     sync.Mutex
	nextFD int
	fds    map[int]any
	nss    map[string]*NetNS
}

// NewKernel boots a kernel over the given shared address space.
func NewKernel(space *mem.Space, model *vtime.Model) *Kernel {
	if model == nil {
		model = vtime.Default()
	}
	return &Kernel{
		Space:  space,
		Model:  model,
		vfs:    NewVFS(),
		nextFD: 3, // 0..2 reserved, as tradition demands
		fds:    make(map[int]any),
		nss:    make(map[string]*NetNS),
	}
}

// VFS returns the kernel's filesystem (for test and workload setup).
func (k *Kernel) VFS() *VFS { return k.vfs }

// installFD registers a kernel object and returns its descriptor.
func (k *Kernel) installFD(obj any) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	fd := k.nextFD
	k.nextFD++
	k.fds[fd] = obj
	return fd
}

func (k *Kernel) lookupFD(fd int) (any, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	obj, ok := k.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return obj, nil
}

// lookupAs returns fd's kernel object as a T, or wrong when the
// descriptor names some other kind of object.
func lookupAs[T any](k *Kernel, fd int, wrong error) (T, error) {
	obj, err := k.lookupFD(fd)
	if err != nil {
		var zero T
		return zero, err
	}
	o, ok := obj.(T)
	if !ok {
		return o, wrong
	}
	return o, nil
}

// wake delivers the effect of one wakeup syscall — fire(obj, at), at
// being the caller's virtual time — through fault sites (b): the host
// may lose, defer, or repeat the wakeup. The syscall itself still
// "succeeds": the enclave cannot observe a loss except as a stall. It
// returns what the synchronous firings returned. fire is a plain
// function, not a closure over obj, so a wakeup allocates nothing.
func wake[T any](p *Proc, clk *vtime.Clock, obj T, fire func(T, uint64) int) int {
	if p.Counters != nil {
		p.Counters.Wakeups.Add(1)
	}
	inj, at := p.kern.Chaos, clk.Now()
	if inj.WakeDrop() {
		return 0
	}
	if d := inj.Stall(chaos.SiteWakeDelay); d > 0 {
		go func() {
			d.Sleep()
			fire(obj, at)
		}()
		return 0
	}
	n := fire(obj, at)
	if inj.WakeDup() {
		n += fire(obj, at)
	}
	return n
}

// readiness is the kernel's one answer to "which of events hold on fd
// now?", behind poll, epoll and io_uring's poll_add alike: a socket's
// own Ready, both directions for a regular file (files never block),
// sys.PollErr for a descriptor that cannot be polled.
func (k *Kernel) readiness(fd int, events uint32) uint32 {
	switch o, _ := k.lookupFD(fd); o := o.(type) {
	case *udpObj:
		return o.sock.Ready(events)
	case *tcpObj:
		if o.sock != nil {
			return o.sock.Ready(events)
		}
	case *File:
		return events & (sys.PollIn | sys.PollOut)
	}
	return sys.PollErr
}

// kernelPark is how a blocked poll, epoll_wait or armed io_uring poll
// waits for readiness: a sleep per pass.
var kernelPark = vtime.Park{Quantum: 50 * time.Microsecond}

func (k *Kernel) removeFD(fd int) (any, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	obj, ok := k.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	delete(k.fds, fd)
	return obj, nil
}

// NetNS is a network namespace: one interface, one kernel stack, and the
// XSKs bound to the interface's queues.
type NetNS struct {
	Name  string
	Dev   *netsim.Device
	Stack *netstack.Stack

	kern *Kernel

	mu   sync.RWMutex
	xsks map[int]*xskKernel // queue id -> bound XSK
	prog XDPProg
}

// XDP verdicts, mirroring the kernel's XDP_* return codes.
type Verdict int

const (
	// VerdictPass sends the frame up the regular kernel stack.
	VerdictPass Verdict = iota
	// VerdictDrop discards the frame.
	VerdictDrop
	// VerdictRedirect steers the frame to the XSK bound to the queue.
	VerdictRedirect
)

// XDPProg inspects a raw frame and decides its fate, like an eBPF XDP
// program attached to the interface.
type XDPProg func(frame []byte) Verdict

// AddNetNS creates a namespace around dev with a full kernel stack at ip
// using the given cost model (the uncosted load-generator namespace gets
// a cheap derived model). It starts the device's softirq workers.
func (k *Kernel) AddNetNS(name string, dev *netsim.Device, ip netstack.IP4, model *vtime.Model, counters *vtime.Counters) (*NetNS, error) {
	if model == nil {
		model = k.Model
	}
	st, err := netstack.New(netstack.Config{
		Name:       name,
		Dev:        nsLink{dev},
		IP:         ip,
		Model:      model,
		Counters:   counters,
		EnableTCP:  true,
		EnableICMP: true,
	})
	if err != nil {
		return nil, err
	}
	ns := &NetNS{
		Name: name, Dev: dev, Stack: st,
		kern: k,
		xsks: make(map[int]*xskKernel),
	}
	k.mu.Lock()
	k.nss[name] = ns
	k.mu.Unlock()
	dev.Start(ns.handleFrame)
	return ns, nil
}

// NetNS returns a namespace by name.
func (k *Kernel) NetNS(name string) *NetNS {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.nss[name]
}

// Close stops every namespace's stack and device.
func (k *Kernel) Close() {
	k.mu.Lock()
	nss := make([]*NetNS, 0, len(k.nss))
	for _, ns := range k.nss {
		nss = append(nss, ns)
	}
	k.mu.Unlock()
	for _, ns := range nss {
		ns.Stack.Close()
		ns.Dev.Close()
	}
}

// AttachXDP installs the XDP program on the namespace's interface.
func (ns *NetNS) AttachXDP(prog XDPProg) {
	ns.mu.Lock()
	ns.prog = prog
	ns.mu.Unlock()
}

// handleFrame is the softirq entry: XDP hook first, then the kernel stack.
func (ns *NetNS) handleFrame(queueID int, f netsim.Frame, clk *vtime.Clock) {
	ns.mu.RLock()
	prog := ns.prog
	x := ns.xsks[queueID]
	ns.mu.RUnlock()
	if prog != nil {
		clk.Advance(ns.kern.Model.XdpRun)
		switch prog(f.Data) {
		case VerdictDrop:
			return
		case VerdictRedirect:
			// Redirect with no bound XSK drops the frame, like the kernel.
			if x != nil {
				x.deliver(f.Data, clk)
			}
			return
		}
	}
	ns.Stack.Input(f.Data, clk)
}

// nsLink adapts a netsim.Device to netstack.LinkDevice.
type nsLink struct{ dev *netsim.Device }

func (l nsLink) SendFrame(data []byte, clk *vtime.Clock) (uint64, error) {
	return l.dev.Transmit(data, clk.Now())
}
func (l nsLink) MAC() [6]byte { return l.dev.MAC() }
func (l nsLink) MTU() int     { return l.dev.MTU() }
