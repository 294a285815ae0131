package rakis

// Epoll support: the extension the paper's evaluation explicitly lacked
// (§6.2 compiled Redis against select because "RAKIS does not currently
// support epoll"). The API submodule already owns everything needed: an
// enclave-side registry of interest plus the armed-io_uring-poll cache
// give epoll semantics — O(ready) virtual cost per wait and no re-arming
// of quiet descriptors — without any new kernel surface and without
// enclave exits.

import (
	"errors"
	"sync"
	"time"

	"rakis/internal/sm"
	"rakis/internal/sys"
	"rakis/internal/telemetry"
)

// repoll is an enclave-side epoll instance: the registered descriptors,
// each stored as the poll source EpollWait hands to the aggregation.
type repoll struct {
	mu       sync.Mutex
	interest map[int]sm.PollSource
}

// ErrBadEpoll reports epoll ops on a non-epoll descriptor.
var ErrBadEpoll = errors.New("rakis: not an epoll descriptor")

// EpollCreate installs an enclave-side epoll instance. No host resources
// are involved: interest lives in trusted memory.
func (t *Thread) EpollCreate() (int, error) {
	t.probe.Begin(telemetry.SpanEpollCreate)
	defer t.probe.End()
	t.hook()
	ep := &repoll{interest: make(map[int]sm.PollSource)}
	return t.rt.registerEntry(&entry{kind: kindEpoll, ep: ep}), nil
}

// EpollCtl updates interest in fd.
func (t *Thread) EpollCtl(epfd, op, fd int, events uint32) error {
	t.probe.Begin(telemetry.SpanEpollCtl)
	defer t.probe.End()
	t.hook()
	e, ok := t.rt.lookup(epfd)
	if !ok || e.kind != kindEpoll {
		return ErrBadEpoll
	}
	ep := e.ep
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if op == sys.EpollCtlDel {
		delete(ep.interest, fd)
		return nil
	}
	target, ok := t.rt.lookup(fd)
	if !ok {
		return errors.New("rakis: bad fd")
	}
	src := sm.PollSource{Events: events}
	switch target.kind {
	case kindUDP:
		src.UDP = target.udp
	case kindTCP:
		if target.tcp == nil {
			return errors.New("rakis: epoll on unconnected TCP fd")
		}
		src.TCP = target.tcp
	case kindHost:
		src.HostFD = target.host
	default:
		return ErrBadEpoll
	}
	switch op {
	case sys.EpollCtlAdd, sys.EpollCtlMod:
		ep.interest[fd] = src
	default:
		return errors.New("rakis: bad epoll op")
	}
	return nil
}

// dropFromEpolls purges fd from every epoll interest set. Epoll
// semantics remove a closed descriptor from all sets watching it; if the
// registration survived close, the next wait would re-arm an io_uring
// poll on a descriptor the application no longer owns — reporting a
// stale PollErr event, or readiness of an unrelated descriptor once the
// host reuses the number.
func (rt *Runtime) dropFromEpolls(fd int) {
	rt.mu.Lock()
	var eps []*repoll
	for _, e := range rt.fds {
		if e.kind == kindEpoll {
			eps = append(eps, e.ep)
		}
	}
	rt.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		delete(ep.interest, fd)
		ep.mu.Unlock()
	}
}

// EpollWait reports ready descriptors via the cross-provider aggregation
// (§4.2), reusing the thread's armed-poll cache so quiet host
// descriptors stay armed between waits — the epoll advantage.
func (t *Thread) EpollWait(epfd int, events []sys.EpollEvent, timeout time.Duration) (int, error) {
	t.probe.Begin(telemetry.SpanEpollWait)
	defer t.probe.End()
	e, ok := t.rt.lookup(epfd)
	if !ok || e.kind != kindEpoll {
		return 0, ErrBadEpoll
	}
	ep := e.ep
	ep.mu.Lock()
	srcs := make([]sm.PollSource, 0, len(ep.interest))
	fds := make([]int, 0, len(ep.interest))
	for fd, src := range ep.interest {
		srcs = append(srcs, src)
		fds = append(fds, fd)
	}
	ep.mu.Unlock()

	clk := t.lt.Clock()
	n, err := sm.PollCached(srcs, timeout, t.proxy, t.rt.cfg.Model, clk, t.pollCache)
	if err != nil {
		return 0, err
	}
	out := 0
	for i := range srcs {
		if out == len(events) {
			break
		}
		if srcs[i].Revents != 0 {
			events[out] = sys.EpollEvent{FD: fds[i], Events: srcs[i].Revents}
			out++
		}
	}
	_ = n
	return out, nil
}
