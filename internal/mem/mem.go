// Package mem simulates the SGX-partitioned address space the RAKIS trust
// model is built on.
//
// A Space holds two byte-addressable segments: a trusted segment standing
// in for encrypted enclave memory (EPC) and an untrusted segment standing
// in for ordinary shared memory. Access is mediated by a Role:
//
//   - RoleEnclave models code running inside the enclave, which — like a
//     real SGX enclave — may access both its own memory and untrusted
//     memory.
//   - RoleHost models the OS/kernel and any other code outside the
//     enclave; attempts to touch the trusted segment fail with
//     ErrProtected, which is the software analogue of the SGX memory
//     encryption engine returning an abort page.
//
// FIOKP shared data structures (XSK rings, UMem, io_uring rings) are
// allocated in the untrusted segment so that both the simulated kernel and
// the in-enclave FastPath Modules operate on the very same bytes — and so
// that a malicious host can scribble on them in tests.
//
// Ring control words (producer/consumer/flags) need cross-thread atomic
// semantics; Atomic32 hands out shared atomic cells backed by the segment
// address so both sides synchronize exactly as the lockless rings of
// AF_XDP and io_uring do.
package mem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rakis/internal/vtime"
)

// Addr is an address in the simulated flat address space.
type Addr uint64

// Kind distinguishes the two memory segments.
type Kind uint8

const (
	// Trusted is encrypted enclave memory.
	Trusted Kind = iota
	// Untrusted is ordinary shared memory visible to the host OS.
	Untrusted
)

// String returns the segment name.
func (k Kind) String() string {
	if k == Trusted {
		return "trusted"
	}
	return "untrusted"
}

// Role identifies who is performing a memory access.
type Role uint8

const (
	// RoleEnclave is code running inside the SGX enclave.
	RoleEnclave Role = iota
	// RoleHost is the OS, the Monitor Module, or any other code outside
	// the enclave.
	RoleHost
)

// String returns the role name.
func (r Role) String() string {
	if r == RoleEnclave {
		return "enclave"
	}
	return "host"
}

// Segment base addresses. The bases are far apart so that accidental
// pointer arithmetic cannot wander from one segment into the other.
const (
	TrustedBase   Addr = 0x0000_1000_0000
	UntrustedBase Addr = 0x0000_8000_0000
)

// Errors returned by Space accessors.
var (
	// ErrProtected reports a host-role access to trusted memory: the SGX
	// hardware protection firing.
	ErrProtected = errors.New("mem: host access to enclave memory denied")
	// ErrBounds reports an access outside any mapped segment.
	ErrBounds = errors.New("mem: access out of mapped bounds")
	// ErrNoSpace reports an exhausted segment allocator.
	ErrNoSpace = errors.New("mem: segment exhausted")
	// ErrUnaligned reports a misaligned atomic-cell address.
	ErrUnaligned = errors.New("mem: unaligned atomic access")
)

type segment struct {
	base Addr
	buf  []byte
	kind Kind

	mu   sync.Mutex
	next uint64 // bump-allocation watermark
}

func (s *segment) contains(a Addr, n uint64) bool {
	if a < s.base {
		return false
	}
	off := uint64(a - s.base)
	return off <= uint64(len(s.buf)) && n <= uint64(len(s.buf))-off
}

// Space is one simulated machine's memory: a trusted and an untrusted
// segment plus the shared atomic cells and virtual-time stamp cells that
// ride along with them.
type Space struct {
	trusted   segment
	untrusted segment

	mu      sync.Mutex
	atomics map[Addr]*atomic.Uint32
	stamps  map[Addr]*vtime.Stamp
	bands   map[Addr][]vtime.Stamp

	// hostTrustedGranted is the chaos suite's tripwire: it counts
	// host-role accesses to trusted memory that were GRANTED. The guard
	// in check makes this unreachable by construction; the counter exists
	// so that a future regression weakening the guard turns into a loud
	// nonzero assertion failure instead of a silent integrity hole.
	hostTrustedGranted atomic.Uint64
}

// NewSpace creates a Space with the given segment sizes in bytes.
func NewSpace(trustedSize, untrustedSize int) *Space {
	return &Space{
		trusted:   segment{base: TrustedBase, buf: make([]byte, trustedSize), kind: Trusted},
		untrusted: segment{base: UntrustedBase, buf: make([]byte, untrustedSize), kind: Untrusted},
		atomics:   make(map[Addr]*atomic.Uint32),
		stamps:    make(map[Addr]*vtime.Stamp),
		bands:     make(map[Addr][]vtime.Stamp),
	}
}

func (sp *Space) seg(kind Kind) *segment {
	if kind == Trusted {
		return &sp.trusted
	}
	return &sp.untrusted
}

// Alloc reserves n bytes in the given segment with the given alignment
// (which must be a power of two; 0 means 8) and returns the base address.
func (sp *Space) Alloc(kind Kind, n, align uint64) (Addr, error) {
	if align == 0 {
		align = 8
	}
	s := sp.seg(kind)
	s.mu.Lock()
	defer s.mu.Unlock()
	start := (s.next + align - 1) &^ (align - 1)
	if start+n > uint64(len(s.buf)) || start+n < start {
		return 0, fmt.Errorf("%w: %s segment: need %d bytes at %d of %d",
			ErrNoSpace, kind, n, start, len(s.buf))
	}
	s.next = start + n
	return s.base + Addr(start), nil
}

// check validates an access of n bytes at a for the given role and
// returns the resolved segment.
func (sp *Space) check(role Role, a Addr, n uint64) (*segment, error) {
	var s *segment
	switch {
	case sp.trusted.contains(a, n):
		s = &sp.trusted
	case sp.untrusted.contains(a, n):
		s = &sp.untrusted
	default:
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrBounds, uint64(a), n)
	}
	if s.kind == Trusted && role == RoleHost {
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrProtected, uint64(a), n)
	}
	if s.kind == Trusted && role == RoleHost {
		// Unreachable: the tripwire only fires if the guard above is ever
		// weakened.
		sp.hostTrustedGranted.Add(1)
	}
	return s, nil
}

// HostTrustedGranted returns how many host-role accesses to trusted
// memory were granted. The chaos suite asserts this stays zero under
// every fault profile.
func (sp *Space) HostTrustedGranted() uint64 { return sp.hostTrustedGranted.Load() }

// Check validates that role may access the n bytes at a.
//
//rakis:validator
func (sp *Space) Check(role Role, a Addr, n uint64) error {
	_, err := sp.check(role, a, n)
	return err
}

// Bytes returns a mutable view of the n bytes at a, after validating the
// access for role. The returned slice aliases the segment; callers must
// respect the ring synchronization discipline when sharing it across
// goroutines. When a resolves into the untrusted segment the contents
// are host-controlled, so enclave-role callers must treat values read
// from the slice as tainted.
//
//rakis:untrusted
func (sp *Space) Bytes(role Role, a Addr, n uint64) ([]byte, error) {
	s, err := sp.check(role, a, n)
	if err != nil {
		return nil, err
	}
	off := uint64(a - s.base)
	return s.buf[off : off+n : off+n], nil
}

// U32 reads a little-endian uint32 at a. The value is host-controlled
// when a is in the untrusted segment.
//
//rakis:untrusted
func (sp *Space) U32(role Role, a Addr) (uint32, error) {
	b, err := sp.Bytes(role, a, 4)
	if err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// PutU32 writes a little-endian uint32 at a.
func (sp *Space) PutU32(role Role, a Addr, v uint32) error {
	b, err := sp.Bytes(role, a, 4)
	if err != nil {
		return err
	}
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// U64 reads a little-endian uint64 at a. The value is host-controlled
// when a is in the untrusted segment.
//
//rakis:untrusted
func (sp *Space) U64(role Role, a Addr) (uint64, error) {
	b, err := sp.Bytes(role, a, 8)
	if err != nil {
		return 0, err
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

// PutU64 writes a little-endian uint64 at a.
func (sp *Space) PutU64(role Role, a Addr, v uint64) error {
	b, err := sp.Bytes(role, a, 8)
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return nil
}

// Atomic32 returns the shared atomic cell backing the 4-byte-aligned word
// at a, creating it on first use. Both sides of a ring obtain the same
// cell, giving them the acquire/release semantics lockless FIOKP rings
// rely on. The access is validated for role at acquisition time.
func (sp *Space) Atomic32(role Role, a Addr) (*atomic.Uint32, error) {
	if a%4 != 0 {
		return nil, fmt.Errorf("%w: %#x", ErrUnaligned, uint64(a))
	}
	if err := sp.Check(role, a, 4); err != nil {
		return nil, err
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	c, ok := sp.atomics[a]
	if !ok {
		c = new(atomic.Uint32)
		sp.atomics[a] = c
	}
	return c, nil
}

// StampCell returns the virtual-time stamp cell associated with address a
// (typically a ring base), creating it on first use. Stamp cells are
// simulation metadata, not simulated memory: they are not readable or
// writable through Bytes and carry no trust semantics.
func (sp *Space) StampCell(a Addr) *vtime.Stamp {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	s, ok := sp.stamps[a]
	if !ok {
		s = new(vtime.Stamp)
		sp.stamps[a] = s
	}
	return s
}

// StampBand returns the per-slot virtual-time stamp array associated
// with address a (a ring base), creating it with n slots on first use.
// Like StampCell, bands are simulation metadata with no trust semantics;
// both sides of a ring share the same band.
func (sp *Space) StampBand(a Addr, n uint32) []vtime.Stamp {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	b, ok := sp.bands[a]
	if !ok || uint32(len(b)) < n {
		b = make([]vtime.Stamp, n)
		sp.bands[a] = b
	}
	return b
}

// InUntrusted reports whether the whole range [a, a+n) lies inside the
// untrusted segment. This is the FM initialization check from Table 2:
// pointers handed to the enclave must reference shared memory
// exclusively, never enclave memory.
//
//rakis:validator
func (sp *Space) InUntrusted(a Addr, n uint64) bool {
	return sp.untrusted.contains(a, n)
}

// InTrusted reports whether the whole range [a, a+n) lies inside the
// trusted segment.
//
//rakis:validator
func (sp *Space) InTrusted(a Addr, n uint64) bool {
	return sp.trusted.contains(a, n)
}

// IntersectsTrusted reports whether any byte of [a, a+n) lies inside the
// trusted segment. It is the check the enclave applies to buffer
// addresses it is about to hand to the host (e.g. in io_uring SQEs):
// such a buffer must never expose enclave memory, mirroring the Table 2
// placement rule in the outbound direction.
//
//rakis:validator
func (sp *Space) IntersectsTrusted(a Addr, n uint64) bool {
	return Overlaps(a, n, sp.trusted.base, uint64(len(sp.trusted.buf)))
}

// Overlaps reports whether the ranges [a, a+an) and [b, b+bn) intersect.
//
//rakis:validator
func Overlaps(a Addr, an uint64, b Addr, bn uint64) bool {
	if an == 0 || bn == 0 {
		return false
	}
	return uint64(a) < uint64(b)+bn && uint64(b) < uint64(a)+an
}

// Copy moves n bytes from src to dst, validating both accesses for role.
// The ranges may be in different segments; this is how the enclave copies
// packet payloads across the trust boundary.
func (sp *Space) Copy(role Role, dst, src Addr, n uint64) error {
	d, err := sp.Bytes(role, dst, n)
	if err != nil {
		return err
	}
	s, err := sp.Bytes(role, src, n)
	if err != nil {
		return err
	}
	copy(d, s)
	return nil
}
