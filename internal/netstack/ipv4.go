package netstack

import (
	"errors"
	"sync"
)

// IPv4HeaderBytes is the length of an IPv4 header without options.
const IPv4HeaderBytes = 20

// IPv4Header is a decoded IPv4 header (options are validated but not
// retained).
type IPv4Header struct {
	TotalLen uint16
	ID       uint16
	DF       bool
	MF       bool
	FragOff  uint16 // in bytes
	TTL      byte
	Proto    byte
	Src      IP4
	Dst      IP4
	HdrLen   int
}

// IPv4 parsing errors, distinguished for fuzzing triage.
var (
	ErrIPVersion  = errors.New("netstack: not IPv4")
	ErrIPHeader   = errors.New("netstack: bad IPv4 header")
	ErrIPChecksum = errors.New("netstack: bad IPv4 checksum")
	ErrIPTTL      = errors.New("netstack: TTL expired")
)

// parseIPv4Header is the one IPv4 header decoder: version, IHL, total
// length, header checksum, flags/offset and TTL are read and checked
// here and nowhere else. b holds at least the header and may be a frozen
// prefix of a longer packet; pktLen is the whole packet's length and
// bounds TotalLen. The header is decoded into h, which is meaningful
// only when the error is nil.
func parseIPv4Header(b []byte, pktLen int, h *IPv4Header) error {
	if len(b) < IPv4HeaderBytes {
		return ErrIPHeader
	}
	if b[0]>>4 != 4 {
		return ErrIPVersion
	}
	hdrLen := int(b[0]&0x0F) * 4
	if hdrLen < IPv4HeaderBytes || len(b) < hdrLen {
		return ErrIPHeader
	}
	h.HdrLen = hdrLen
	h.TotalLen = be16(b[2:4])
	if int(h.TotalLen) < hdrLen || int(h.TotalLen) > pktLen {
		return ErrIPHeader
	}
	if Checksum(b[:hdrLen]) != 0 {
		return ErrIPChecksum
	}
	h.ID = be16(b[4:6])
	fl := be16(b[6:8])
	h.DF = fl&0x4000 != 0
	h.MF = fl&0x2000 != 0
	h.FragOff = (fl & 0x1FFF) * 8
	h.TTL = b[8]
	if h.TTL == 0 {
		return ErrIPTTL
	}
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return nil
}

// ParseIPv4 decodes and validates an IPv4 header, returning the header
// and the L4 payload (trimmed to TotalLen).
func ParseIPv4(pkt []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	if err := parseIPv4Header(pkt, len(pkt), &h); err != nil {
		return h, nil, err
	}
	return h, pkt[h.HdrLen:h.TotalLen], nil
}

// putIPv4Header encodes h (20 bytes, no options) into b for a packet
// carrying payloadLen bytes, checksum included. The checksum is summed
// over b itself, so the stack's send path encodes into trusted scratch,
// never into a lent frame.
func putIPv4Header(b []byte, h IPv4Header, payloadLen int) {
	b = b[:IPv4HeaderBytes]
	b[0], b[1] = 0x45, 0
	put16(b[2:4], uint16(IPv4HeaderBytes+payloadLen))
	put16(b[4:6], h.ID)
	var fl uint16
	if h.DF {
		fl |= 0x4000
	}
	if h.MF {
		fl |= 0x2000
	}
	fl |= (h.FragOff / 8) & 0x1FFF
	put16(b[6:8], fl)
	b[8] = h.TTL
	if h.TTL == 0 {
		b[8] = 64
	}
	b[9] = h.Proto
	put16(b[10:12], 0)
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	put16(b[10:12], Checksum(b))
}

// MarshalIPv4 encodes an IPv4 packet (20-byte header, no options) around
// the payload.
func MarshalIPv4(h IPv4Header, payload []byte) []byte {
	pkt := make([]byte, IPv4HeaderBytes+len(payload))
	putIPv4Header(pkt, h, len(payload))
	copy(pkt[IPv4HeaderBytes:], payload)
	return pkt
}

// fragKey identifies one in-progress reassembly.
type fragKey struct {
	src, dst IP4
	id       uint16
	proto    byte
}

type fragBuf struct {
	parts   map[uint16][]byte // offset -> data
	gotLast bool
	lastEnd int
	bytes   int
	seq     uint64 // insertion order for eviction
}

// reassembler rebuilds fragmented IPv4 datagrams. It caps both the number
// of concurrent reassemblies and the per-datagram size to bound memory
// under hostile fragment floods.
type reassembler struct {
	mu    sync.Mutex
	bufs  map[fragKey]*fragBuf
	seq   uint64
	limit int
	max   int
}

func newReassembler() *reassembler {
	return &reassembler{bufs: make(map[fragKey]*fragBuf), limit: 32, max: 1 << 16}
}

// add feeds one fragment. It returns the full payload once complete, or
// nil while the datagram is still partial (or invalid).
func (r *reassembler) add(h IPv4Header, payload []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := fragKey{h.Src, h.Dst, h.ID, h.Proto}
	fb := r.bufs[key]
	if fb == nil {
		if len(r.bufs) >= r.limit {
			r.evictOldest()
		}
		r.seq++
		fb = &fragBuf{parts: make(map[uint16][]byte), seq: r.seq}
		r.bufs[key] = fb
	}
	end := int(h.FragOff) + len(payload)
	if end > r.max {
		delete(r.bufs, key)
		return nil
	}
	if !h.MF {
		// Non-final fragments must be multiples of 8; the final fragment
		// fixes the datagram length.
		fb.gotLast = true
		fb.lastEnd = end
	} else if len(payload)%8 != 0 {
		delete(r.bufs, key)
		return nil
	}
	if _, dup := fb.parts[h.FragOff]; !dup {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		fb.parts[h.FragOff] = cp
		fb.bytes += len(payload)
		if fb.bytes > r.max {
			delete(r.bufs, key)
			return nil
		}
	}
	if !fb.gotLast {
		return nil
	}
	// Check hole-freeness from 0 to lastEnd.
	full := make([]byte, fb.lastEnd)
	covered := 0
	for covered < fb.lastEnd {
		part, ok := fb.parts[uint16(covered)]
		if !ok {
			return nil // hole remains
		}
		copy(full[covered:], part)
		covered += len(part)
		if len(part) == 0 {
			return nil
		}
	}
	delete(r.bufs, key)
	return full
}

func (r *reassembler) evictOldest() {
	var oldKey fragKey
	oldSeq := uint64(1<<63 - 1)
	for k, v := range r.bufs {
		if v.seq < oldSeq {
			oldSeq, oldKey = v.seq, k
		}
	}
	delete(r.bufs, oldKey)
}

// fragmentIPv4 splits an L4 payload into IPv4 packets that fit the MTU:
// the cold fallback for a message over one frame (Stack.sendFragments).
func fragmentIPv4(h IPv4Header, payload []byte, mtu int) [][]byte {
	maxData := (mtu - IPv4HeaderBytes) &^ 7
	if len(payload)+IPv4HeaderBytes <= mtu || maxData <= 0 {
		return [][]byte{MarshalIPv4(h, payload)}
	}
	var pkts [][]byte
	for off := 0; off < len(payload); off += maxData {
		end := off + maxData
		mf := true
		if end >= len(payload) {
			end = len(payload)
			mf = false
		}
		fh := h
		fh.FragOff = uint16(off)
		fh.MF = mf
		pkts = append(pkts, MarshalIPv4(fh, payload[off:end]))
	}
	return pkts
}
