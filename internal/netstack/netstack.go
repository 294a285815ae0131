// Package netstack is a from-scratch network stack: Ethernet framing, ARP,
// IPv4 with fragmentation and reassembly, ICMP, UDP, and TCP, plus a
// socket layer with per-socket receive queues.
//
// It is used in two configurations, mirroring the paper:
//
//   - Full (EnableTCP, EnableICMP): the simulated Linux kernel's stack in
//     internal/hostos, serving the Native and Gramine baselines and the
//     kernel TCP sockets RAKIS reaches through io_uring.
//   - Trimmed (UDP/IP only): the in-enclave Service Module stack — the
//     paper's LWIP cut from >80K LoC down to <5K (§4.2). The trimmed
//     configuration compiles the same code but refuses to register TCP or
//     ICMP handling, keeping the enclave attack surface minimal.
//
// Concurrency follows §4.2's implementation note: instead of one global
// stack lock, shared state uses fine-grained per-socket and per-table
// locks, and the demux is sharded per RSS queue (hash.go is the one
// definition of the flow hash and of the frame parser that feeds it).
// The retired global-lock ablation's last measurement is recorded in
// EXPERIMENTS.md.
//
//rakis:role enclave
package netstack

import (
	"errors"
	"fmt"

	"rakis/internal/vtime"
)

// IP4 is an IPv4 address.
type IP4 [4]byte

// String renders the address in dotted-quad form.
func (ip IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Addr is a UDP/TCP endpoint.
type Addr struct {
	IP   IP4
	Port uint16
}

// String renders the endpoint as ip:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// LinkDevice is the layer-2 output the stack transmits frames on. The
// kernel stack binds a netsim device; the enclave stack binds the XSK
// FastPath Module's transmit path.
type LinkDevice interface {
	// SendFrame transmits one Ethernet frame, charging transmit work to
	// the caller's clock, and returns the virtual time the frame
	// finished serializing.
	SendFrame(data []byte, clk *vtime.Clock) (uint64, error)
	// MAC returns the interface hardware address.
	MAC() [6]byte
	// MTU returns the link MTU (IP payload capacity).
	MTU() int
}

// BatchLinkDevice is a LinkDevice that can also transmit a run of frames
// in one call, letting the device amortize its per-call costs (ring lock,
// certification pass, wakeup) across the run. The stack's batched send
// path uses it when present and falls back to per-frame SendFrame
// otherwise.
type BatchLinkDevice interface {
	LinkDevice
	// SendFrames transmits the frames in order and returns how many
	// leading frames the device accepted. The error is the one that
	// stopped the run and is nil when every frame went out.
	SendFrames(frames [][]byte, clk *vtime.Clock) (int, error)
}

// Protocol numbers and EtherTypes used by the stack.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806

	ProtoICMP byte = 1
	ProtoTCP  byte = 6
	ProtoUDP  byte = 17
)

// Common errors.
var (
	// ErrTrimmed reports use of a protocol compiled out of the trimmed
	// enclave configuration.
	ErrTrimmed = errors.New("netstack: protocol not present in trimmed stack")
	// ErrPortInUse reports a bind conflict.
	ErrPortInUse = errors.New("netstack: port in use")
	// ErrClosed reports an operation on a closed socket or stack.
	ErrClosed = errors.New("netstack: closed")
	// ErrNoRoute reports an unresolvable destination.
	ErrNoRoute = errors.New("netstack: no route to host")
	// ErrTimeout reports a timed-out blocking operation.
	ErrTimeout = errors.New("netstack: timed out")
	// ErrRefused reports a connection refused by the peer.
	ErrRefused = errors.New("netstack: connection refused")
	// ErrWouldBlock reports a non-blocking operation that found no data.
	ErrWouldBlock = errors.New("netstack: operation would block")
	// ErrMsgSize reports a datagram too large for the socket or link.
	ErrMsgSize = errors.New("netstack: message too long")
)

// checksum computes the Internet checksum (RFC 1071) over data, starting
// from the given partial sum.
func checksumPartial(sum uint32, data []byte) uint32 {
	n := len(data)
	i := 0
	for ; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < n {
		sum += uint32(data[i]) << 8
	}
	return sum
}

func checksumFold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Checksum computes the Internet checksum of data.
func Checksum(data []byte) uint16 {
	return checksumFold(checksumPartial(0, data))
}

// pseudoHeaderSum computes the TCP/UDP pseudo-header partial sum.
func pseudoHeaderSum(src, dst IP4, proto byte, length int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func put16(b []byte, v uint16) {
	b[0], b[1] = byte(v>>8), byte(v)
}
func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
