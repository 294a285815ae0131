package mem

// Snap is a frozen copy of untrusted shared memory: the bytes were
// fetched exactly once into trusted storage (an ordinary Go slice the
// fetch allocated or the caller lent it — the enclave-memory analogue in
// this simulation) and can never change underneath the enclave
// afterwards.
//
// The type exists to make the single-read discipline checkable: the
// doublefetch analyzer treats a //rakis:snapshot call as the one
// permitted fetch of a location, and anything decoded *from the Snap* —
// however many times — is a read of trusted memory, not a second fetch.
// Contrast Space.Bytes, which returns a live alias of the shared
// segment: every read through that alias is another fetch the host can
// race.
//
// A Snap's contents are still host-chosen (the host wrote them before
// the fetch), so decoded values remain tainted until they pass a
// //rakis:validator function — snapshotting defeats TOCTOU, not bad
// input.
type Snap []byte

// Len returns the number of frozen bytes.
func (s Snap) Len() int { return len(s) }

// U32 decodes the little-endian uint32 at byte offset off. The value is
// stable across calls — the defining property of a snapshot — but still
// host-chosen and therefore unvalidated.
//
//rakis:untrusted
//rakis:snapshot
func (s Snap) U32(off int) uint32 {
	b := s[off : off+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 decodes the little-endian uint64 at byte offset off, with the
// same stability/taint contract as U32.
//
//rakis:untrusted
//rakis:snapshot
func (s Snap) U64(off int) uint64 {
	b := s[off : off+8]
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Snapshot fetches the n bytes at a into a fresh trusted buffer in one
// pass and returns them as a Snap. It is the canonical single fetch of
// an untrusted location: validate the Snap's fields, then use those same
// fields — the host cannot change them between the two.
//
//rakis:untrusted
//rakis:snapshot
func (sp *Space) Snapshot(role Role, a Addr, n uint64) (Snap, error) {
	return sp.SnapshotTo(nil, role, a, n)
}

// SnapshotTo is Snapshot into caller-owned trusted storage, so a hot
// path can freeze a descriptor into a stack array and allocate nothing:
// buf must hold n bytes (nil allocates them, once the access has been
// validated), and the Snap is valid for as long as the caller leaves
// buf alone.
//
//rakis:untrusted
//rakis:snapshot
func (sp *Space) SnapshotTo(buf []byte, role Role, a Addr, n uint64) (Snap, error) {
	src, err := sp.Bytes(role, a, n)
	if err != nil {
		return nil, err
	}
	if buf == nil {
		buf = make([]byte, n)
	}
	out := Snap(buf[:n])
	copy(out, src)
	return out, nil
}
