package netstack

import "errors"

// EthHeaderBytes is the length of an Ethernet II header.
const EthHeaderBytes = 14

// Broadcast is the Ethernet broadcast address.
var Broadcast = [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// EthHeader is an Ethernet II header.
type EthHeader struct {
	Dst  [6]byte
	Src  [6]byte
	Type uint16
}

// ErrShortFrame reports a frame too short for the claimed headers.
var ErrShortFrame = errors.New("netstack: short frame")

// ParseEth decodes an Ethernet header and returns it with the payload.
func ParseEth(frame []byte) (EthHeader, []byte, error) {
	if len(frame) < EthHeaderBytes {
		return EthHeader{}, nil, ErrShortFrame
	}
	var h EthHeader
	copy(h.Dst[:], frame[0:6])
	copy(h.Src[:], frame[6:12])
	h.Type = be16(frame[12:14])
	return h, frame[EthHeaderBytes:], nil
}

// putEthHeader encodes h into b[:EthHeaderBytes].
func putEthHeader(b []byte, h EthHeader) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	put16(b[12:14], h.Type)
}

// MarshalEth encodes an Ethernet header followed by payload into a fresh
// frame buffer.
func MarshalEth(h EthHeader, payload []byte) []byte {
	frame := make([]byte, EthHeaderBytes+len(payload))
	putEthHeader(frame, h)
	copy(frame[EthHeaderBytes:], payload)
	return frame
}
