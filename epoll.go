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
	"slices"
	"sync"
	"time"

	"rakis/internal/sm"
	"rakis/internal/sys"
	"rakis/internal/telemetry"
)

// repoll is an enclave-side epoll instance: the registered descriptors in
// registration order (sets are small, and a map's iteration order would
// make the order connections are served in differ run to run), each with
// the poll source EpollWait hands to the aggregation.
type repoll struct {
	mu       sync.Mutex
	fds      []int
	interest []sm.PollSource // interest[i] watches fds[i]
	// next is where the following wait starts reporting: just past the
	// last descriptor of a wait that filled its events, so a short events
	// slice cannot starve the tail of the set.
	next int
	// scratch is the copy of interest the last wait polled. A waiter
	// takes it and puts it back; a concurrent one makes its own.
	scratch []sm.PollSource
}

// drop removes fd, keeping the order of the rest. fds is rebuilt, never
// shifted in place: a wait in flight reports from the slice it saw.
// Caller holds ep.mu.
func (ep *repoll) drop(fd int) {
	if i := slices.Index(ep.fds, fd); i >= 0 {
		ep.fds = slices.Delete(slices.Clone(ep.fds), i, i+1)
		ep.interest = slices.Delete(ep.interest, i, i+1)
	}
}

// ErrBadEpoll reports epoll ops on a non-epoll descriptor.
var ErrBadEpoll = errors.New("rakis: not an epoll descriptor")

// EpollCreate installs an enclave-side epoll instance. No host resources
// are involved: interest lives in trusted memory.
func (t *Thread) EpollCreate() (int, error) {
	t.probe.Begin(telemetry.SpanEpollCreate)
	defer t.probe.End()
	t.hook()
	return t.rt.registerEntry(&entry{kind: kindEpoll, ep: &repoll{}}), nil
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
		ep.drop(fd)
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
	if op != sys.EpollCtlAdd && op != sys.EpollCtlMod {
		return errors.New("rakis: bad epoll op")
	}
	if i := slices.Index(ep.fds, fd); i >= 0 {
		ep.interest[i] = src
	} else {
		ep.fds, ep.interest = append(ep.fds, fd), append(ep.interest, src)
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
		ep.drop(fd)
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
	fds, start := ep.fds, ep.next
	srcs := append(ep.scratch[:0], ep.interest...)
	ep.scratch = nil
	ep.mu.Unlock()

	clk := t.lt.Clock()
	if _, err := sm.PollCached(srcs, timeout, t.proxy, t.rt.cfg.Model, clk, t.pollCache); err != nil {
		return 0, err
	}
	out, next := 0, 0
	for k := 0; k < len(srcs) && out < len(events); k++ {
		i := (start + k) % len(srcs)
		if srcs[i].Revents != 0 {
			events[out] = sys.EpollEvent{FD: fds[i], Events: srcs[i].Revents}
			if out++; out == len(events) {
				next = i + 1
			}
		}
	}
	ep.mu.Lock()
	ep.next, ep.scratch = next, srcs
	ep.mu.Unlock()
	return out, nil
}
