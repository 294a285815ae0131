// Package sys defines the POSIX-ish syscall interface the evaluation
// workloads are written against. One workload binary runs unmodified on
// all five environments (§6: Native, Gramine-Direct, Gramine-SGX,
// RAKIS-Direct, RAKIS-SGX) — only the Sys implementation bound at startup
// differs, which is precisely the paper's "unmodified applications" claim
// translated to Go.
//
// A Sys value represents one application *thread*: it carries the
// thread's virtual clock, and for RAKIS its per-thread io_uring FastPath
// Module (§4.1). Additional threads are created with Clone.
package sys

import (
	"time"

	"rakis/internal/netstack"
	"rakis/internal/vtime"
)

// SockType mirrors hostos socket types at the workload level.
type SockType int

const (
	// UDP is SOCK_DGRAM.
	UDP SockType = iota
	// TCP is SOCK_STREAM.
	TCP
)

// Open flags (matching hostos).
const (
	ORdonly = 0
	OWronly = 1
	ORdwr   = 2
	OCreate = 1 << 6
	OTrunc  = 1 << 9
)

// Poll events (netstack defines the bits; its sockets answer in them).
const (
	PollIn  = netstack.PollIn
	PollOut = netstack.PollOut
	PollErr = netstack.PollErr
)

// PollFD is one poll slot; Revents is filled on return. It, EpollEvent
// and the ctl ops below are defined here only: the host kernel and the
// LibOS use them by alias, so no layer converts between twins.
type PollFD struct {
	FD      int
	Events  uint32
	Revents uint32
}

// Epoll ctl ops.
const (
	EpollCtlAdd = 1
	EpollCtlDel = 2
	EpollCtlMod = 3
)

// EpollEvent is one epoll readiness report.
type EpollEvent struct {
	FD     int
	Events uint32
}

// Addr re-exports the network address type workloads use.
type Addr = netstack.Addr

// IP4 re-exports the address type.
type IP4 = netstack.IP4

// Mmsg is one message slot of a vectored SendToN/RecvFromN call,
// mirroring struct mmsghdr: the caller supplies Buf (and Addr for
// sends); the implementation fills N (bytes moved) and, for receives,
// Addr (the datagram source).
type Mmsg struct {
	Buf  []byte
	Addr Addr
	N    int
}

// Sys is the syscall surface available to workloads.
type Sys interface {
	// Clock returns this thread's virtual clock.
	Clock() *vtime.Clock
	// Clone creates a Sys for a new application thread sharing this
	// one's process state (fd namespace, runtime) with a fresh clock.
	Clone() Sys

	// Sockets.
	Socket(typ SockType) (int, error)
	Bind(fd int, port uint16) error
	Connect(fd int, addr Addr) error
	Listen(fd int, backlog int) error
	Accept(fd int, block bool) (int, Addr, error)
	SendTo(fd int, p []byte, addr Addr) (int, error)
	RecvFrom(fd int, p []byte, block bool) (int, Addr, error)

	// Vectored datagram I/O with sendmmsg/recvmmsg semantics: up to
	// len(msgs) messages move in one call, amortizing the per-call
	// boundary cost (one enclave exit instead of len(msgs) on the
	// LibOS path). Both return the number of messages completed and
	// report an error only when the first message fails; a partial
	// batch is success. RecvFromN blocks (if requested) only for the
	// first message, then drains whatever is queued without waiting.
	SendToN(fd int, msgs []Mmsg) (int, error)
	RecvFromN(fd int, msgs []Mmsg, block bool) (int, error)
	Send(fd int, p []byte) (int, error)
	Recv(fd int, p []byte, block bool) (int, error)

	// Files.
	Open(path string, flags int) (int, error)
	Read(fd int, p []byte) (int, error)
	Write(fd int, p []byte) (int, error)
	Pread(fd int, p []byte, off int64) (int, error)
	Pwrite(fd int, p []byte, off int64) (int, error)
	Lseek(fd int, off int64, whence int) (int64, error)
	Fstat(fd int) (int64, error)
	Fsync(fd int) error

	// Multiplexing. Timeout is real time; <0 blocks indefinitely.
	Poll(fds []PollFD, timeout time.Duration) (int, error)

	// Epoll-style readiness notification: the extension beyond the
	// paper's prototype (§6.2 notes RAKIS lacked epoll; this build adds
	// it, implemented over armed io_uring polls in the RAKIS case).
	EpollCreate() (int, error)
	EpollCtl(epfd, op, fd int, events uint32) error
	EpollWait(epfd int, events []EpollEvent, timeout time.Duration) (int, error)

	// Misc.
	Close(fd int) error
	Futex()
}
