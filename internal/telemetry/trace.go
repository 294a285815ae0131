package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind is a trace event type. Events are typed rather than stringly so
// a disabled emit never formats anything.
type Kind uint8

const (
	// EvNone marks an empty slot.
	EvNone Kind = iota
	// EvEnclaveExit is one OCALL: A = serialized transition cycles,
	// B = payload bytes crossing the boundary.
	EvEnclaveExit
	// EvBoundaryCopy is data crossing the trust boundary outside an
	// exit: A = bytes, B = direction (0 = out of the enclave, 1 = in).
	EvBoundaryCopy
	// EvRingProduce is a submission onto a certified ring: A = ring tag
	// (RingXskFill..RingUringSub), B = entries.
	EvRingProduce
	// EvRingConsume is a reap from a certified ring: A = ring tag,
	// B = entries.
	EvRingConsume
	// EvRingRefusal is a Table 2 refusal of a hostile ring value:
	// A = ring tag, B = the refused raw value (opaque, untrusted).
	EvRingRefusal
	// EvUMemRefusal is a UMem ownership refusal: A = the refused frame
	// address (opaque, untrusted), B = length.
	EvUMemRefusal
	// EvCQEComplete is a validated CQE: A = user-data token, B = result.
	EvCQEComplete
	// EvMMWakeup is a Monitor Module wakeup syscall issued on behalf of
	// the enclave: A = watched fd, B = watch kind (0 XSK TX, 1 XSK fill,
	// 2 io_uring).
	EvMMWakeup
	// EvSoftirqFrame is one frame through a NIC softirq worker:
	// A = queue id, B = frame bytes.
	EvSoftirqFrame
	// EvSyscall is one host syscall boundary crossing: A = 1 when paid
	// (costed process), B = 0.
	EvSyscall
	// EvChaosFault is one injected fault: A = chaos site index.
	EvChaosFault
	// EvSpanEnd closes a POSIX-call span: A = SpanKind, B = span cycles.
	EvSpanEnd
	// EvSpliceFrame is a zero-copy RX→TX frame splice: A = UMem offset,
	// B = spliced length in bytes (no boundary copy occurred).
	EvSpliceFrame

	// NumKinds is the number of event kinds.
	NumKinds = int(EvSpliceFrame) + 1
)

// Ring tags for EvRingProduce/Consume/Refusal events.
const (
	RingXskFill uint64 = iota
	RingXskRX
	RingXskTX
	RingXskCompl
	RingUringSub
	RingUringCompl
)

var kindNames = [NumKinds]string{
	"none", "enclave_exit", "boundary_copy", "ring_produce", "ring_consume",
	"ring_refusal", "umem_refusal", "cqe_complete", "mm_wakeup",
	"softirq_frame", "syscall", "chaos_fault", "span_end", "splice_frame",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return "invalid"
}

// Tracer is the run-wide event recorder: per-thread lock-free ring
// buffers behind one enable bit. It starts disabled.
type Tracer struct {
	on   atomic.Bool
	size uint64

	mu   sync.Mutex
	bufs []*Buf
}

// DefaultRingSlots is the per-thread ring capacity when NewTracer is
// given no size.
const DefaultRingSlots = 4096

// NewTracer returns a tracer whose per-thread rings hold `slots` events
// (rounded up to a power of two; ≤ 0 selects DefaultRingSlots).
func NewTracer(slots int) *Tracer {
	n := uint64(DefaultRingSlots)
	if slots > 0 {
		n = 1
		for n < uint64(slots) {
			n <<= 1
		}
	}
	return &Tracer{size: n}
}

// Enable starts recording.
func (t *Tracer) Enable() {
	if t != nil {
		t.on.Store(true)
	}
}

// slotWords is the flat atomic words per event slot: packed
// sequence+kind, virtual-time stamp, and two opaque arguments. The
// sequence word is stored last, so a fully published slot always has a
// nonzero meta word; a slot caught mid-overwrite can pair a new stamp
// with an old argument, which the decoder tolerates (torn events are
// possible only once the ring has wrapped, and carry valid kinds).
const slotWords = 4

// Buf is one thread's trace ring. Writers reserve a slot with a single
// atomic add and publish with plain atomic stores — no locks, no
// allocation — so concurrent writers (a shared XSK socket) stay
// race-clean and wrap by overwriting the oldest slots.
type Buf struct {
	t     *Tracer
	id    int
	label string
	mask  uint64
	pos   atomic.Uint64
	words []atomic.Uint64
}

// NewBuf registers a new per-thread ring with the tracer. Nil-safe.
func (t *Tracer) NewBuf(label string) *Buf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &Buf{
		t:     t,
		id:    len(t.bufs),
		label: label,
		mask:  t.size - 1,
		words: make([]atomic.Uint64, t.size*slotWords),
	}
	t.bufs = append(t.bufs, b)
	return b
}

// Label returns the ring's thread label.
func (b *Buf) Label() string {
	if b == nil {
		return ""
	}
	return b.label
}

// Emit records one event stamped with the emitting thread's virtual
// time. When the ring is nil or the tracer disabled it returns after at
// most one atomic load, allocating nothing.
func (b *Buf) Emit(k Kind, stamp, a, arg2 uint64) {
	if b == nil || !b.t.on.Load() {
		return
	}
	i := b.pos.Add(1) - 1
	base := (i & b.mask) * slotWords
	b.words[base+1].Store(stamp)
	b.words[base+2].Store(a)
	b.words[base+3].Store(arg2)
	b.words[base].Store((i+1)<<8 | uint64(k))
}

// Emitted returns the total events emitted into this ring, including
// those already overwritten.
func (b *Buf) Emitted() uint64 {
	if b == nil {
		return 0
	}
	return b.pos.Load()
}

// Event is one decoded trace event.
type Event struct {
	Thread string `json:"thread"`
	TID    int    `json:"tid"`
	Seq    uint64 `json:"seq"`
	Kind   Kind   `json:"-"`
	Name   string `json:"kind"`
	Stamp  uint64 `json:"stamp"`
	A      uint64 `json:"a"`
	B      uint64 `json:"b"`
}

// String renders one event line.
func (e Event) String() string {
	return fmt.Sprintf("%12d %-14s %-12s a=%d b=%d", e.Stamp, e.Thread, e.Name, e.A, e.B)
}

// events decodes this ring's currently retained slots.
func (b *Buf) events() []Event {
	out := make([]Event, 0, b.mask+1)
	for slot := uint64(0); slot <= b.mask; slot++ {
		meta := b.words[slot*slotWords].Load()
		if meta == 0 {
			continue
		}
		k := Kind(meta & 0xff)
		if int(k) >= NumKinds || k == EvNone {
			continue
		}
		out = append(out, Event{
			Thread: b.label,
			TID:    b.id,
			Seq:    meta>>8 - 1,
			Kind:   k,
			Name:   k.String(),
			Stamp:  b.words[slot*slotWords+1].Load(),
			A:      b.words[slot*slotWords+2].Load(),
			B:      b.words[slot*slotWords+3].Load(),
		})
	}
	return out
}

// Events decodes every ring's retained events, ordered by virtual time
// (then thread, then sequence).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	bufs := append([]*Buf(nil), t.bufs...)
	t.mu.Unlock()
	var out []Event
	for _, b := range bufs {
		out = append(out, b.events()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stamp != out[j].Stamp {
			return out[i].Stamp < out[j].Stamp
		}
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Tail returns the last n events in virtual-time order — the final
// trace window a failing chaos cell dumps next to its seed.
func (t *Tracer) Tail(n int) []Event {
	evs := t.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}
