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
// stack lock, shared state uses fine-grained locks, and what the packet
// path touches is partitioned per RSS queue (hash.go is the one
// definition of the flow hash and of the frame parser that feeds it).
// Every binding lives in exactly one map: a UDP port or TCP listener in
// a copy-on-write portMap the packet path reads without a lock, a TCP
// connection in its home shard's tcpShard; the other per-shard state
// (socket receive queues, timer sets) holds per-flow order, not copies.
// The retired global-lock ablation's last measurement is in EXPERIMENTS.md.
//
//rakis:role enclave
package netstack

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rakis/internal/mem"
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

// Link is what every layer-2 output has: a hardware address and an MTU
// (IP payload capacity).
type Link interface {
	MAC() [6]byte
	MTU() int
}

// LendingDevice is the layer-2 output the stack transmits on: it lends
// the buffers frames leave from, so each frame is built once, in place.
// The enclave stack binds the XSK FastPath Modules (sm.XskLink lends
// UMem frames); New wraps a plain LinkDevice. lane is the TX queue,
// which the stack derives from the flow tuple with TXShard.
type LendingDevice interface {
	Link
	// Lend reserves a buffer of at least size bytes for each element of
	// bufs, charging the caller's clock, and returns how many leading
	// ones it filled (an error when none). A B whose capacity already
	// suffices may be kept. Every lent buffer must be published.
	Lend(lane, size int, bufs []mem.TxBuf, clk *vtime.Clock) (int, error)
	// Publish transmits the buffers in order, each B cut by the caller
	// to the frame built in it, and returns how many leading frames
	// went out; the error is nil exactly when all did. Either way no
	// buffer is the caller's any longer.
	Publish(lane int, bufs []mem.TxBuf, clk *vtime.Clock) (int, error)
}

// LinkDevice is a plain layer-2 output that takes whole frames: the
// kernel stack's netsim device, and most test links.
type LinkDevice interface {
	Link
	// SendFrame transmits one Ethernet frame, charging transmit work to
	// the caller's clock, and returns the virtual time the frame
	// finished serializing. It must not retain data.
	SendFrame(data []byte, clk *vtime.Clock) (uint64, error)
}

// frameLender adapts a LinkDevice to the one TX path: it lends heap
// buffers — made once per slot of the stack's pooled TxBuf arrays,
// found there again ever after — and publishes through SendFrame.
type frameLender struct{ LinkDevice }

func (d frameLender) Lend(_, size int, bufs []mem.TxBuf, _ *vtime.Clock) (int, error) {
	for i := range bufs {
		if cap(bufs[i].B) < size {
			bufs[i].B = make([]byte, size)
		}
		bufs[i].B = bufs[i].B[:size]
	}
	return len(bufs), nil
}

func (d frameLender) Publish(_ int, bufs []mem.TxBuf, clk *vtime.Clock) (int, error) {
	for i := range bufs {
		if _, err := d.SendFrame(bufs[i].B, clk); err != nil {
			return i, err
		}
	}
	return len(bufs), nil
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

// Poll event bits, as poll(2), epoll and io_uring's poll_add spell them.
// This is their one definition: a socket's Ready answers in them, sys
// re-exports them to applications, and an OpPollAdd SQE carries them.
const (
	PollIn  uint32 = 1 << 0
	PollOut uint32 = 1 << 2
	PollErr uint32 = 1 << 3
)

// condWait waits on cond, whose lock the caller holds, until pred holds
// or d of real time passes; it reports whether pred held.
func condWait(cond *sync.Cond, d time.Duration, pred func() bool) bool {
	if pred() {
		return true
	}
	timedOut := false
	timer := time.AfterFunc(d, func() {
		cond.L.Lock()
		timedOut = true
		cond.L.Unlock()
		cond.Broadcast()
	})
	defer timer.Stop()
	for !pred() {
		if timedOut {
			return false
		}
		cond.Wait()
	}
	return true
}

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
