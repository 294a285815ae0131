// Package netsim simulates the evaluation testbed's network hardware: one
// NIC with two Ethernet interfaces wired in a loopback configuration at
// 25 Gbps (§6). Each Device has multiple receive queues with a simple RSS
// hash distributing incoming frames, matching the multi-queue setup the
// Memcached experiment relies on (four XSKs bound to four NIC queues).
//
// Frames carry virtual-time stamps. Transmission occupies the directed
// link's serialization Resource, enforcing the 25 Gbps cap; reception
// enqueues the frame on the RSS-selected queue, where a per-queue softirq
// worker goroutine (owning its own virtual clock) hands it to the handler
// installed by the simulated kernel — the XDP hook lives in the kernel
// (internal/hostos), not in the NIC.
package netsim

import (
	"errors"
	"sync"
	"sync/atomic"

	"rakis/internal/chaos"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// Frame is one Ethernet frame in flight, with its virtual-time stamp.
type Frame struct {
	// Data is the frame contents, owned by the receiver once delivered.
	Data []byte
	// Stamp is the virtual time at which the frame finished arriving.
	Stamp uint64
}

// Handler processes received frames in softirq context. It is installed
// by the simulated kernel and runs on the queue's worker goroutine; clk
// is that worker's virtual clock, already synced to the frame's arrival
// and charged the NIC per-frame cost.
type Handler func(queueID int, f Frame, clk *vtime.Clock)

// RSSFunc selects a receive queue for a frame.
type RSSFunc func(data []byte, queues int) int

// ErrClosed reports a transmit on a closed device.
var ErrClosed = errors.New("netsim: device closed")

// ErrTooLong reports a frame exceeding the device MTU plus headers.
var ErrTooLong = errors.New("netsim: frame exceeds MTU")

// Queue is one NIC receive queue.
type Queue struct {
	id      int
	ch      chan Frame
	clk     vtime.Clock
	dropped atomic.Uint64
	done    chan struct{}
}

// Clock returns the queue's softirq virtual clock.
func (q *Queue) Clock() *vtime.Clock { return &q.clk }

// Dropped returns the number of frames dropped because the queue was full.
func (q *Queue) Dropped() uint64 { return q.dropped.Load() }

// Device is one Ethernet interface.
type Device struct {
	name   string
	mac    [6]byte
	mtu    int
	model  *vtime.Model
	queues []*Queue
	rss    atomic.Value // RSSFunc

	txRes   vtime.Resource // this device's outbound serialization
	peer    *Device
	closeMu sync.RWMutex // guards queue channels against close-vs-send
	closed  atomic.Bool
	counter *vtime.Counters

	// chaos, when non-nil, makes the wire hostile: frames may be
	// dropped, bit-flipped, or duplicated, and softirq workers stalled.
	// Set before Start.
	chaos *chaos.Injector

	// trace, when non-nil, receives one event per softirq-processed
	// frame. Set before Start.
	trace *telemetry.Buf

	mu      sync.Mutex
	handler Handler
	started bool
}

// Config describes one device of a pair.
type Config struct {
	// Name is the interface name, for diagnostics.
	Name string
	// MAC is the hardware address.
	MAC [6]byte
	// Queues is the number of RX queues (default 1).
	Queues int
	// QueueDepth is the RX descriptor count per queue (default 2048,
	// the "2K NIC queue length" of §6.1).
	QueueDepth int
	// MTU is the link MTU (default 1500).
	MTU int
	// Counters receives packet statistics; it may be nil.
	Counters *vtime.Counters
}

func (c *Config) fill() {
	if c.Queues <= 0 {
		c.Queues = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2048
	}
	if c.MTU <= 0 {
		c.MTU = 1500
	}
}

// NewPair creates the two loopback-wired interfaces of the testbed.
func NewPair(model *vtime.Model, a, b Config) (*Device, *Device) {
	a.fill()
	b.fill()
	da := newDevice(model, a)
	db := newDevice(model, b)
	da.peer, db.peer = db, da
	return da, db
}

func newDevice(model *vtime.Model, cfg Config) *Device {
	d := &Device{
		name:    cfg.Name,
		mac:     cfg.MAC,
		mtu:     cfg.MTU,
		model:   model,
		counter: cfg.Counters,
	}
	d.rss.Store(RSSFunc(DefaultRSS))
	for i := 0; i < cfg.Queues; i++ {
		d.queues = append(d.queues, &Queue{
			id:   i,
			ch:   make(chan Frame, cfg.QueueDepth),
			done: make(chan struct{}),
		})
	}
	return d
}

// Name returns the interface name.
func (d *Device) Name() string { return d.name }

// MAC returns the hardware address.
func (d *Device) MAC() [6]byte { return d.mac }

// MTU returns the link MTU.
func (d *Device) MTU() int { return d.mtu }

// NumQueues returns the receive queue count.
func (d *Device) NumQueues() int { return len(d.queues) }

// Queue returns receive queue i.
func (d *Device) Queue(i int) *Queue { return d.queues[i] }

// Peer returns the device at the other end of the wire.
func (d *Device) Peer() *Device { return d.peer }

// SetRSS overrides the receive-side scaling function.
func (d *Device) SetRSS(f RSSFunc) { d.rss.Store(f) }

// SetChaos wires a fault injector into the device. Must be called
// before Start.
func (d *Device) SetChaos(in *chaos.Injector) { d.chaos = in }

// SetTelemetry routes per-frame softirq events to the given trace
// buffer. Must be called before Start.
func (d *Device) SetTelemetry(b *telemetry.Buf) { d.trace = b }

// Start installs the kernel's frame handler and launches the per-queue
// softirq workers. It must be called exactly once before traffic flows.
func (d *Device) Start(h Handler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		panic("netsim: device started twice")
	}
	d.started = true
	d.handler = h
	for _, q := range d.queues {
		go d.softirq(q)
	}
}

func (d *Device) softirq(q *Queue) {
	defer close(q.done)
	for f := range q.ch {
		// Fault site (c): one receive worker frozen mid-stream.
		d.chaos.Stall(chaos.SiteSoftirqStall).Sleep()
		q.clk.SyncAdvance(f.Stamp, d.model.NicPerFrame)
		f.Stamp = q.clk.Now()
		d.trace.Emit(telemetry.EvSoftirqFrame, q.clk.Now(), uint64(q.id), uint64(len(f.Data)))
		d.handler(q.id, f, &q.clk)
	}
}

// Close stops the device: subsequent transmits toward it are dropped and
// its softirq workers drain and exit.
func (d *Device) Close() {
	if !d.closed.CompareAndSwap(false, true) {
		return
	}
	d.mu.Lock()
	started := d.started
	d.mu.Unlock()
	// Exclude in-flight senders before closing the queue channels.
	d.closeMu.Lock()
	for _, q := range d.queues {
		close(q.ch)
	}
	d.closeMu.Unlock()
	if started {
		for _, q := range d.queues {
			<-q.done
		}
	}
}

// Transmit serializes a frame onto the wire at the given virtual start
// time and delivers it to the peer's RSS-selected queue. It returns the
// virtual time at which the frame finishes arriving. A full peer queue
// drops the frame, as NIC hardware does. data is copied once, before
// steering or fault injection read a byte of it, and never retained: a
// caller may pass memory it reuses or shares with a hostile writer.
func (d *Device) Transmit(data []byte, start uint64) (end uint64, err error) {
	if len(data) > d.mtu+EthHeaderBytes {
		return 0, ErrTooLong
	}
	p := d.peer
	if d.closed.Load() || p == nil || p.closed.Load() {
		return 0, ErrClosed
	}
	end = d.txRes.Use(start, d.model.WireCycles(len(data)))
	if d.counter != nil {
		d.counter.PacketsTx.Add(1)
		d.counter.BytesTx.Add(uint64(len(data)))
	}
	// Hostile wire: the frame may vanish, arrive bit-flipped, or arrive
	// twice. Loss and duplication look exactly like congestion to the
	// endpoints; corruption must be caught by their checksums.
	copies := 1
	if d.chaos.NetDrop() {
		copies = 0
		if p.counter != nil {
			p.counter.PacketsDropped.Add(1)
		}
	} else if d.chaos.NetDup() {
		copies = 2
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	d.chaos.NetCorrupt(buf)
	// Receive-side scaling is the receiving NIC's function.
	qi := p.rss.Load().(RSSFunc)(buf, len(p.queues))
	if qi < 0 || qi >= len(p.queues) {
		qi = 0
	}
	q := p.queues[qi]
	// Hold the receiver's close guard across the send so a concurrent
	// Close cannot close the channel under us.
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed.Load() {
		return 0, ErrClosed
	}
	for i := 0; i < copies; i++ {
		select {
		case q.ch <- Frame{Data: buf, Stamp: end}:
		default:
			q.dropped.Add(1)
			if p.counter != nil {
				p.counter.PacketsDropped.Add(1)
			}
		}
	}
	return end, nil
}

// EthHeaderBytes is the Ethernet header size (no VLAN, no FCS in Data).
const EthHeaderBytes = 14

// DefaultRSS hashes the IPv4 5-tuple if the frame parses as IPv4 UDP/TCP,
// else returns queue 0. It is intentionally simple but stable per flow.
func DefaultRSS(data []byte, queues int) int {
	if queues <= 1 {
		return 0
	}
	if len(data) < EthHeaderBytes+20 {
		return 0
	}
	etherType := uint16(data[12])<<8 | uint16(data[13])
	if etherType != 0x0800 { // IPv4
		return 0
	}
	ip := data[EthHeaderBytes:]
	ihl := int(ip[0]&0x0F) * 4
	if ihl < 20 || len(ip) < ihl+4 {
		return 0
	}
	proto := ip[9]
	if proto != 17 && proto != 6 { // UDP, TCP
		return 0
	}
	h := uint32(2166136261)
	mix := func(b byte) { h = (h ^ uint32(b)) * 16777619 }
	for _, b := range ip[12:20] { // src+dst IP
		mix(b)
	}
	for _, b := range ip[ihl : ihl+4] { // src+dst port
		mix(b)
	}
	return int(h % uint32(queues))
}
