package mem

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrStaleView reports an access through a view whose frame has been
// released or respun since certification.
var ErrStaleView = errors.New("mem: stale view")

// ViewOwner releases a certified frame view back to its allocator. The
// (idx, gen) pair names the exact certification the view was minted
// under; a release with a stale generation is a no-op error, which makes
// double-release idempotent and use-after-splice detectable.
type ViewOwner interface {
	ReleaseView(idx, gen uint32) error
}

// View is a certified window over one untrusted UMem frame. It is the
// zero-copy analogue of the trusted bounce buffer: the frame was
// validated (bounds + ownership, Table 2) before the view was minted,
// but the bytes it exposes still live in shared memory a hostile host
// can scribble concurrently. The single-read discipline therefore
// applies to every access: multi-use header fields must be frozen with
// Snap before any decision is taken on them, and the payload may be
// traversed at most once per consumer (checksum, copy-out).
//
// The generation cell ties the view to its certification: the allocator
// bumps the cell when the frame is released or respun onto TX, after
// which Live reports false and accessors refuse.
type View struct {
	b     []byte
	off   uint64
	idx   uint32
	gen   uint32
	cell  *atomic.Uint32
	owner ViewOwner
}

// NewView wraps an untrusted byte window as a certified view. The
// window b must already be the role-checked alias for the frame
// (obtained via Space.Bytes under the enclave role); off is the frame's
// UMem offset, idx its frame index, gen the validator generation at
// certification time, and cell the allocator's generation cell for the
// frame.
func NewView(b []byte, off uint64, idx, gen uint32, cell *atomic.Uint32, owner ViewOwner) View {
	return View{b: b, off: off, idx: idx, gen: gen, cell: cell, owner: owner}
}

// Len returns the certified length of the view in bytes.
func (v *View) Len() int { return len(v.b) }

// Offset returns the view's UMem offset (frame base plus headroom).
func (v *View) Offset() uint64 { return v.off }

// Frame returns the UMem frame index backing the view.
func (v *View) Frame() uint32 { return v.idx }

// Gen returns the validator generation the view was certified under.
func (v *View) Gen() uint32 { return v.gen }

// Owner returns the allocator that minted the view (nil for derived or
// synthetic views).
func (v *View) Owner() ViewOwner { return v.owner }

// Live reports whether the view's certification is still current: the
// frame has not been released or respun since the view was minted.
func (v *View) Live() bool { return v.cell == nil || v.cell.Load() == v.gen }

// Snap freezes n bytes at off into trusted storage and returns the
// frozen copy. This is the one sanctioned way to read a header field
// that feeds a decision: the copy is taken once, so later reads see the
// frozen value no matter what the host scribbles afterwards.
//
//rakis:untrusted
//rakis:snapshot
func (v *View) Snap(off, n int) (Snap, error) {
	return v.SnapTo(nil, off, n)
}

// SnapTo is Snap into caller-owned trusted storage: buf must hold n
// bytes (nil allocates them, once the bounds have been checked), and
// the Snap is valid for as long as the caller leaves buf alone.
//
//rakis:untrusted
//rakis:snapshot
func (v *View) SnapTo(buf []byte, off, n int) (Snap, error) {
	if !v.Live() {
		return nil, fmt.Errorf("%w: frame %d gen %d", ErrStaleView, v.idx, v.gen)
	}
	if off < 0 || n < 0 || off+n > len(v.b) {
		return nil, fmt.Errorf("mem: snap [%d:%d) outside view of %d bytes", off, off+n, len(v.b))
	}
	if buf == nil {
		buf = make([]byte, n)
	}
	s := Snap(buf[:n])
	copy(s, v.b[off:off+n])
	return s, nil
}

// CopyOut copies the view's bytes starting at off into dst, returning
// the byte count. This is the explicit one-shot copy at the app-payload
// boundary: the only full traversal of the untrusted bytes, and the
// caller charges it as the single boundary copy.
//
//rakis:untrusted
func (v *View) CopyOut(dst []byte, off int) (int, error) {
	if !v.Live() {
		return 0, fmt.Errorf("%w: frame %d gen %d", ErrStaleView, v.idx, v.gen)
	}
	if off < 0 || off > len(v.b) {
		return 0, fmt.Errorf("mem: copy-out offset %d outside view of %d bytes", off, len(v.b))
	}
	return copy(dst, v.b[off:]), nil
}

// CopyIn writes src into the view starting at off. Writes to untrusted
// memory are always safe under the single-read discipline (the host can
// already write there); the splice path uses this to apply the rewritten
// header before re-queuing the frame.
//
//rakis:untrusted
func (v *View) CopyIn(off int, src []byte) (int, error) {
	if !v.Live() {
		return 0, fmt.Errorf("%w: frame %d gen %d", ErrStaleView, v.idx, v.gen)
	}
	if off < 0 || off+len(src) > len(v.b) {
		return 0, fmt.Errorf("mem: copy-in [%d:%d) outside view of %d bytes", off, off+len(src), len(v.b))
	}
	return copy(v.b[off:], src), nil
}

// Range returns the live subslice [off, off+n). The caller owns the
// single-read obligation: the slice may be traversed at most once
// (checksum pass, copy source) and no decision may be taken on bytes
// read through it — decisions come from Snap.
//
//rakis:untrusted
func (v *View) Range(off, n int) ([]byte, error) {
	if !v.Live() {
		return nil, fmt.Errorf("%w: frame %d gen %d", ErrStaleView, v.idx, v.gen)
	}
	if off < 0 || n < 0 || off+n > len(v.b) {
		return nil, fmt.Errorf("mem: range [%d:%d) outside view of %d bytes", off, off+n, len(v.b))
	}
	return v.b[off : off+n], nil
}

// Slice derives a subview over [off, off+n) sharing the parent's
// certification. The derived view releases the same frame, so exactly
// one of parent and child may be released.
func (v *View) Slice(off, n int) (View, error) {
	if off < 0 || n < 0 || off+n > len(v.b) {
		return View{}, fmt.Errorf("mem: subview [%d:%d) outside view of %d bytes", off, off+n, len(v.b))
	}
	return View{
		b:     v.b[off : off+n],
		off:   v.off + uint64(off),
		idx:   v.idx,
		gen:   v.gen,
		cell:  v.cell,
		owner: v.owner,
	}, nil
}

// Release returns the frame to its allocator. Safe to call more than
// once: the generation check makes the second release a reported no-op.
func (v *View) Release() error {
	if v.owner == nil {
		return nil
	}
	return v.owner.ReleaseView(v.idx, v.gen)
}
