// Package xsk implements the FastPath Module side of an XDP socket (§4.1,
// "Enabling the XDP primitive").
//
// An XSK comprises four RAKIS-certified rings and a UMem packet buffer,
// all in shared untrusted memory (Table 1):
//
//	xFill  (FM produces)  — supply the kernel with frames for RX packets
//	xRX    (FM consumes)  — frames populated with received packets
//	xTX    (FM produces)  — frames to transmit
//	xCompl (FM consumes)  — frames whose transmission completed
//
// Initialization runs outside the enclave (internal/hostos performs the
// setup "syscalls"); the FM receives five pointers plus a file descriptor
// and — before touching anything — verifies that the pointers are
// pairwise non-overlapping and reside exclusively in untrusted memory,
// and that the descriptor is non-negative (Table 2, initialization rows).
//
// In Go, enclave-trusted memory is ordinary heap memory; the simulated
// mem.Space segments exist so these placement checks are real and so the
// host kernel can only touch the shared segment.
//
//rakis:role enclave
package xsk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rakis/internal/mem"
	"rakis/internal/ring"
	"rakis/internal/telemetry"
	"rakis/internal/umem"
	"rakis/internal/vtime"
)

// DescBytes is the size of an xRX/xTX descriptor (addr, len, options).
const DescBytes = 16

// FillEntryBytes is the size of an xFill/xCompl entry (a UMem offset).
const FillEntryBytes = 8

// Desc is an XDP descriptor: a UMem offset plus the packet length.
type Desc struct {
	Addr uint64
	Len  uint32
	Opts uint32
}

// PutDesc encodes a descriptor into a 16-byte slot.
func PutDesc(b []byte, d Desc) {
	for i := 0; i < 8; i++ {
		b[i] = byte(d.Addr >> (8 * i))
	}
	b[8], b[9], b[10], b[11] = byte(d.Len), byte(d.Len>>8), byte(d.Len>>16), byte(d.Len>>24)
	b[12], b[13], b[14], b[15] = byte(d.Opts), byte(d.Opts>>8), byte(d.Opts>>16), byte(d.Opts>>24)
}

// GetDesc decodes a descriptor from a 16-byte slot. Slots live in
// shared memory, so the decoded offset and length are host-controlled
// until they pass UMem.ValidateConsumed.
//
//rakis:untrusted
func GetDesc(b []byte) Desc {
	var d Desc
	for i := 7; i >= 0; i-- {
		d.Addr = d.Addr<<8 | uint64(b[i])
	}
	d.Len = uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24
	d.Opts = uint32(b[12]) | uint32(b[13])<<8 | uint32(b[14])<<16 | uint32(b[15])<<24
	return d
}

// SnapDesc decodes a descriptor from a frozen 16-byte slot snapshot.
// Unlike GetDesc over a live slot alias, the fields cannot change after
// decoding — the enclave validates and uses the very bytes it fetched.
// The decoded offset and length are still host-chosen and remain
// unvalidated until UMem.ValidateConsumed passes them.
//
//rakis:untrusted
//rakis:snapshot
func SnapDesc(s mem.Snap) Desc { return GetDesc(s) }

// Setup is what the untrusted initialization hands the enclave: five
// pointers and a file descriptor.
type Setup struct {
	FD        int
	FillBase  mem.Addr
	RXBase    mem.Addr
	TXBase    mem.Addr
	ComplBase mem.Addr
	UMemBase  mem.Addr
}

// Config is the FM's trusted configuration for one XSK.
type Config struct {
	Space *mem.Space
	Setup Setup
	// RingSize is the trusted entry count for all four rings (the 2K of
	// §6.1); the masks are derived from it in-enclave.
	RingSize uint32
	// FrameSize and FrameCount are the trusted UMem geometry (16 MB of
	// 2048-byte frames in §6.1).
	FrameSize  uint32
	FrameCount uint32
	Counters   *vtime.Counters
	Model      *vtime.Model
	// Trace, when non-nil, receives ring/copy/refusal events for this
	// socket (shared by the pump thread and user send threads).
	Trace *telemetry.Buf
	// Bell, when non-nil, rings the Monitor Module's doorbell after every
	// xFill and xTX publish, so the monitor sweeps now rather than at its
	// fallback period. It must not block.
	Bell func()
}

// Errors returned by Attach and socket operations.
var (
	// ErrSetup reports failed Table 2 initialization validation.
	ErrSetup = errors.New("xsk: untrusted setup rejected")
	// ErrNoFrame reports UMem exhaustion on the send path.
	ErrNoFrame = errors.New("xsk: no free UMem frame")
	// ErrTooBig reports a frame exceeding the UMem frame size.
	ErrTooBig = errors.New("xsk: frame exceeds UMem frame size")
	// ErrRingFull reports a full TX or fill ring.
	ErrRingFull = errors.New("xsk: ring full")
)

// Socket is the FM's trusted handle on one XSK.
//
// The RX pump thread and user send threads share the socket (§4.2: user
// threads copy straight into the XSK UMem for transmission), so its
// operations serialize on an internal lock protecting the UMem allocator
// and the single-producer/single-consumer ring disciplines.
type Socket struct {
	Fill  *ring.Ring
	RX    *ring.Ring
	TX    *ring.Ring
	Compl *ring.Ring
	UMem  *umem.UMem

	mu       sync.Mutex
	fd       int
	space    *mem.Space
	model    *vtime.Model
	counters *vtime.Counters
	trace    *telemetry.Buf
	bell     func()

	// descRefusals counts RX descriptors this socket refused (failed
	// slot snapshot or UMem validation) — the descriptor-level half of
	// Refusals().
	descRefusals atomic.Uint64

	// views backs RecvViews' result, reused across calls.
	views []mem.View
}

// Attach validates the untrusted setup and constructs the trusted handle.
func Attach(cfg Config) (*Socket, error) {
	if cfg.Model == nil {
		cfg.Model = vtime.Default()
	}
	if cfg.Setup.FD < 0 {
		return nil, fmt.Errorf("%w: fd %d", ErrSetup, cfg.Setup.FD)
	}
	umemBytes := uint64(cfg.FrameSize) * uint64(cfg.FrameCount)
	regions := []struct {
		name string
		base mem.Addr
		size uint64
	}{
		{"xFill", cfg.Setup.FillBase, ring.TotalBytes(cfg.RingSize, FillEntryBytes)},
		{"xRX", cfg.Setup.RXBase, ring.TotalBytes(cfg.RingSize, DescBytes)},
		{"xTX", cfg.Setup.TXBase, ring.TotalBytes(cfg.RingSize, DescBytes)},
		{"xCompl", cfg.Setup.ComplBase, ring.TotalBytes(cfg.RingSize, FillEntryBytes)},
		{"UMem", cfg.Setup.UMemBase, umemBytes},
	}
	for i, r := range regions {
		if !cfg.Space.InUntrusted(r.base, r.size) {
			return nil, fmt.Errorf("%w: %s not exclusively in untrusted memory", ErrSetup, r.name)
		}
		for _, q := range regions[:i] {
			if mem.Overlaps(r.base, r.size, q.base, q.size) {
				return nil, fmt.Errorf("%w: %s overlaps %s", ErrSetup, r.name, q.name)
			}
		}
	}

	mk := func(base mem.Addr, entry uint32, side ring.Side) (*ring.Ring, error) {
		return ring.New(ring.Config{
			Space: cfg.Space, Access: mem.RoleEnclave, Base: base,
			Size: cfg.RingSize, EntrySize: entry, Side: side,
			Certified: true, Counters: cfg.Counters,
		})
	}
	s := &Socket{fd: cfg.Setup.FD, space: cfg.Space, model: cfg.Model, counters: cfg.Counters, trace: cfg.Trace, bell: cfg.Bell}
	if s.bell == nil {
		s.bell = func() {}
	}
	var err error
	if s.Fill, err = mk(cfg.Setup.FillBase, FillEntryBytes, ring.Producer); err != nil {
		return nil, err
	}
	if s.RX, err = mk(cfg.Setup.RXBase, DescBytes, ring.Consumer); err != nil {
		return nil, err
	}
	if s.TX, err = mk(cfg.Setup.TXBase, DescBytes, ring.Producer); err != nil {
		return nil, err
	}
	if s.Compl, err = mk(cfg.Setup.ComplBase, FillEntryBytes, ring.Consumer); err != nil {
		return nil, err
	}
	s.UMem, err = umem.New(umem.Config{
		Space: cfg.Space, Base: cfg.Setup.UMemBase,
		FrameSize: cfg.FrameSize, FrameCount: cfg.FrameCount,
		Counters: cfg.Counters, Trace: cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// FD returns the socket's file descriptor (used by the Monitor Module).
func (s *Socket) FD() int { return s.fd }

// Counters returns the socket's statistics sink (may be nil).
func (s *Socket) Counters() *vtime.Counters { return s.counters }

// Refusals returns this socket's lifetime refusal count: RX descriptors
// refused (failed slot snapshot or UMem validation) plus certification
// violations detected on its four rings. Per-socket, so a sharded
// runtime can attribute host misbehavior to the queue it targeted.
func (s *Socket) Refusals() uint64 {
	return s.descRefusals.Load() +
		s.Fill.Violations() + s.RX.Violations() +
		s.TX.Violations() + s.Compl.Violations()
}

// TxPending reports whether xTX holds entries the kernel has not yet
// consumed. Sustained pending entries mean the sendto wakeup was lost —
// the pump thread uses this to drive the nudge/kick recovery ladder.
func (s *Socket) TxPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	free, _ := s.TX.Free()
	return free < s.TX.Size()
}

// RxQueued reports how many RX descriptors are waiting, via the same
// certified index read the receive path uses (a hostile index reads as
// zero). This is the trusted queue-depth sample the FM pump feeds the
// tuner's occupancy histograms.
func (s *Socket) RxQueued() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	avail, _ := s.RX.Available()
	return avail
}

// Refill produces as many free UMem frames into xFill as fit, keeping the
// kernel supplied with RX buffers (§4.1 "Quality of service assurance").
// It returns the number produced.
func (s *Socket) Refill(clk *vtime.Clock) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refillLocked(clk)
}

func (s *Socket) refillLocked(clk *vtime.Clock) int {
	free, _ := s.Fill.Free()
	n := 0
	for ; uint32(n) < free; n++ {
		idx, err := s.UMem.Alloc(umem.OwnerFill)
		if err != nil {
			break
		}
		s.Fill.WriteU64(uint32(n), s.UMem.FrameOffset(idx))
	}
	if n > 0 {
		clk.Charge(vtime.CompRing, s.model.RingOp)
		clk.Charge(vtime.CompValidate, uint64(n)*s.model.UMemOp)
		s.Fill.Submit(uint32(n), clk.Now())
		s.bell()
		s.trace.Emit(telemetry.EvRingProduce, clk.Now(), telemetry.RingXskFill, uint64(n))
	}
	return n
}

// RecvViews consumes up to max packets from xRX as certified zero-copy
// views, the socket's one receive path: one lock, one certified read of
// the available count, then per entry the descriptor is frozen
// (SnapSlot/SnapDesc single-fetch discipline), validated against the
// UMem ownership map, and the frame handed over in place — no boundary
// copy — and finally one consumer advance covering the run. A frame
// stays owned by its view (umem.OwnerView) until the consumer calls
// View.Release or splices it onto TX; until then the bytes remain
// host-writable shared memory, so every header decision downstream must
// go through View.Snap. Hostile entries are refused and skipped ("refuse
// and advance consumer", Table 2) without poisoning their neighbours;
// nil means the ring is empty. The returned slice is the socket's own,
// valid until the next RecvViews on this socket: the one consumer (the
// shard's pump) hands every view on before it asks again.
func (s *Socket) RecvViews(clk *vtime.Clock, max int) []mem.View {
	if max <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	avail, _ := s.RX.Available()
	if avail == 0 {
		return nil
	}
	n := avail
	if uint32(max) < n {
		n = uint32(max)
	}
	clk.Charge(vtime.CompRing, s.model.RingOp)
	clk.Charge(vtime.CompValidate, uint64(n)*s.model.UMemOp)
	out := s.views[:0]
	totalBytes := 0
	var frozen [DescBytes]byte
	for i := uint32(0); i < n; i++ {
		clk.Sync(s.RX.SlotStamp(i))
		// Single fetch: freeze the descriptor, validate the frozen
		// fields, mint the view over the frozen fields. The host can
		// still scribble the payload — that is the view's contract —
		// but the certified bounds cannot move.
		snap, err := s.RX.SnapSlotTo(frozen[:], i)
		if err != nil {
			s.descRefusals.Add(1)
			s.trace.Emit(telemetry.EvRingRefusal, clk.Now(), telemetry.RingXskRX, 1)
			continue
		}
		d := SnapDesc(snap)
		idx, gen, err := s.UMem.ValidateView(d.Addr, d.Len)
		if err != nil {
			// Table 2 fail action: refuse the frame, advance past it.
			// (UMem emits the EvUMemRefusal with the hostile addr/len.)
			continue
		}
		v, err := s.UMem.MakeView(idx, gen, d.Addr, d.Len, s)
		if err != nil {
			s.UMem.ReleaseView(idx, gen)
			continue
		}
		out = append(out, v)
		totalBytes += int(d.Len)
	}
	s.views = out
	s.RX.Release(n)
	s.trace.Emit(telemetry.EvRingConsume, clk.Now(), telemetry.RingXskRX, uint64(n))
	if s.counters != nil {
		if len(out) > 0 {
			s.counters.PacketsRx.Add(uint64(len(out)))
			s.counters.BytesRx.Add(uint64(totalBytes))
			s.counters.CopyBytesSaved.Add(uint64(totalBytes))
		}
		s.counters.BatchCalls.Add(1)
		s.counters.BatchedMsgs.Add(uint64(len(out)))
	}
	return out
}

// ReleaseView returns a view-held frame to the UMem user pool. It is the
// mem.ViewOwner implementation the socket hands to MakeView: releases
// route through the socket lock because the allocator's trusted state is
// guarded by it.
func (s *Socket) ReleaseView(idx, gen uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.UMem.ReleaseView(idx, gen)
}

// SpliceFrame re-certifies a view-held RX frame for transmission and
// produces it on xTX without any payload copy: ownership moves
// OwnerView→OwnerTx under the validator, the view's generation is burned
// so no stale read can race the kernel, and the frame's own descriptor
// (offset unchanged, length n) is queued. The completion path reclaims
// the frame exactly like a copied send.
func (s *Socket) SpliceFrame(v *mem.View, n uint32, clk *vtime.Clock) error {
	if n > s.UMem.FrameSize() {
		return ErrTooBig
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapLocked(clk) // opportunistically reclaim completed TX frames
	free, _ := s.TX.Free()
	if free == 0 {
		return ErrRingFull
	}
	if err := s.UMem.SpliceTX(v.Frame(), v.Gen()); err != nil {
		return err
	}
	clk.Charge(vtime.CompRing, s.model.RingOp)
	clk.Charge(vtime.CompValidate, s.model.UMemOp)
	slot, err := s.TX.SlotBytes(0)
	if err != nil {
		return err
	}
	PutDesc(slot, Desc{Addr: v.Offset(), Len: n})
	s.TX.Submit(1, clk.Now())
	s.bell()
	s.trace.Emit(telemetry.EvSpliceFrame, clk.Now(), v.Offset(), uint64(n))
	s.trace.Emit(telemetry.EvRingProduce, clk.Now(), telemetry.RingXskTX, 1)
	if s.counters != nil {
		s.counters.PacketsTx.Add(1)
		s.counters.BytesTx.Add(uint64(n))
		s.counters.SpliceFrames.Add(1)
		s.counters.CopyBytesSaved.Add(uint64(n))
	}
	return nil
}

// Lend reserves a TX frame for each element of bufs — the first half of
// the transmit path (lend → build → publish): one lock hold covers the
// opportunistic completion reap and the run of allocations. Each TxBuf
// receives its frame's full window and UMem offset; the frames are the
// send routine's (umem.OwnerTx) from here on, in no ring, and every one
// must come back through Publish or Abort. Senders build with the lock
// released, so they serialize only on the ring. Lend returns how many
// leading elements it filled: fewer than asked when the pool runs dry.
func (s *Socket) Lend(bufs []mem.TxBuf, clk *vtime.Clock) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapLocked(clk)
	for i := range bufs {
		idx, err := s.UMem.Alloc(umem.OwnerTx)
		if err != nil {
			return i
		}
		off := s.UMem.FrameOffset(idx)
		b, err := s.UMem.FrameBytes(off, s.UMem.FrameSize())
		if err != nil {
			s.UMem.AbortTx(off)
			return i
		}
		bufs[i] = mem.TxBuf{B: b, Off: off}
	}
	return len(bufs)
}

// Publish produces lent frames on xTX as one run: one lock acquisition,
// one certified read of the ring's free space, one producer-index
// publish, so the Monitor Module sees a single producer advance and the
// run costs at most one sendto wakeup. Each descriptor is (Off, len(B))
// from the caller's trusted TxBuf — the frame itself is never consulted.
// It returns how many leading frames were produced (an error when
// none); the rest are still lent, for the caller to retry or Abort.
func (s *Socket) Publish(bufs []mem.TxBuf, clk *vtime.Clock) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	free, _ := s.TX.Free()
	if free == 0 {
		return 0, ErrRingFull
	}
	n, totalBytes := 0, 0
	for ; n < len(bufs) && uint32(n) < free; n++ {
		slot, err := s.TX.SlotBytes(uint32(n))
		if err != nil {
			if n == 0 {
				return 0, err
			}
			break
		}
		PutDesc(slot, Desc{Addr: bufs[n].Off, Len: uint32(len(bufs[n].B))})
		totalBytes += len(bufs[n].B)
	}
	clk.Charge(vtime.CompRing, s.model.RingOp)
	clk.Charge(vtime.CompValidate, uint64(n)*s.model.UMemOp)
	clk.Charge(vtime.CompCopy, vtime.Bytes(s.model.BoundaryCopyPerByte, totalBytes))
	s.TX.Submit(uint32(n), clk.Now())
	s.bell()
	s.trace.Emit(telemetry.EvBoundaryCopy, clk.Now(), uint64(totalBytes), 0)
	s.trace.Emit(telemetry.EvRingProduce, clk.Now(), telemetry.RingXskTX, uint64(n))
	if s.counters != nil {
		s.counters.PacketsTx.Add(uint64(n))
		s.counters.BytesTx.Add(uint64(totalBytes))
		s.counters.BatchCalls.Add(1)
		s.counters.BatchedMsgs.Add(uint64(n))
	}
	return n, nil
}

// Abort returns lent frames that will not be published to the pool.
func (s *Socket) Abort(bufs []mem.TxBuf) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range bufs {
		s.UMem.AbortTx(bufs[i].Off)
	}
}

// SendBatch transmits whole frames already built in trusted memory, for
// callers with a frame in hand rather than one to build (the layer
// benchmark, the Testing Module): lend, copy, publish, at most
// sendBatchMax frames a call. Semantics follow sendmmsg: frames go in
// order and the count produced is returned, short when a frame is too
// big for a UMem frame or the pool or ring runs out; an error is
// reported only when the first frame cannot be sent. A frame lent but
// not produced goes back to the pool.
func (s *Socket) SendBatch(frames [][]byte, clk *vtime.Clock) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	var bufs [sendBatchMax]mem.TxBuf
	k := 0
	for k < len(bufs) && k < len(frames) && uint32(len(frames[k])) <= s.UMem.FrameSize() {
		k++
	}
	if k == 0 {
		return 0, ErrTooBig
	}
	if k = s.Lend(bufs[:k], clk); k == 0 {
		return 0, ErrNoFrame
	}
	for i := range bufs[:k] {
		bufs[i].B = bufs[i].B[:copy(bufs[i].B, frames[i])]
	}
	n, err := s.Publish(bufs[:k], clk)
	if n < k {
		s.Abort(bufs[n:k])
	}
	return n, err
}

const sendBatchMax = 32

// Reap consumes xCompl, validating ownership and returning frames to the
// pool. It returns the number reclaimed.
func (s *Socket) Reap(clk *vtime.Clock) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reapLocked(clk)
}

func (s *Socket) reapLocked(clk *vtime.Clock) int {
	n := 0
	for {
		avail, _ := s.Compl.Available()
		if avail == 0 {
			break
		}
		off, err := s.Compl.ReadU64(0)
		if err != nil {
			s.Compl.Release(1)
			continue
		}
		if _, err := s.UMem.ValidateConsumed(umem.OwnerTx, off, 0); err != nil {
			s.Compl.Release(1)
			continue
		}
		s.Compl.Release(1)
		n++
	}
	if n > 0 {
		clk.Charge(vtime.CompRing, s.model.RingOp)
		clk.Charge(vtime.CompValidate, uint64(n)*s.model.UMemOp)
		s.trace.Emit(telemetry.EvRingConsume, clk.Now(), telemetry.RingXskCompl, uint64(n))
	}
	return n
}
