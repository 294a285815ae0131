package hostos

import (
	"slices"
	"sync"
	"time"

	"rakis/internal/sys"
	"rakis/internal/vtime"
)

// epoll: the readiness-notification interface the paper's evaluation had
// to avoid ("As RAKIS does not currently support epoll, we compiled Redis
// to use the select syscall instead", §6.2). The host kernel provides it
// for the baselines; the RAKIS extension in the root package builds its
// enclave-side equivalent over armed io_uring polls.

// epollObj is the kernel object behind an epoll descriptor. Interest is
// kept in registration order (sets are small; a map's iteration order
// would make the ready list differ run to run).
type epollObj struct {
	mu       sync.Mutex
	interest []sys.PollFD // FD and Events; Revents unused
	// next is where the following wait starts scanning: just past the
	// last descriptor reported by a wait that filled its events, so a
	// short events slice cannot starve the tail of the set.
	next int
}

// EpollCreate installs an epoll instance and returns its descriptor.
func (p *Proc) EpollCreate(clk *vtime.Clock) (int, error) {
	p.enter(clk)
	return p.kern.installFD(&epollObj{}), nil
}

// EpollCtl adds, removes, or modifies interest in fd.
func (p *Proc) EpollCtl(epfd, op, fd int, events uint32, clk *vtime.Clock) error {
	p.enter(clk)
	ep, err := lookupAs[*epollObj](p.kern, epfd, ErrInval)
	if err != nil {
		return err
	}
	if _, err := p.kern.lookupFD(fd); err != nil && op != sys.EpollCtlDel {
		return err
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	i := slices.IndexFunc(ep.interest, func(in sys.PollFD) bool { return in.FD == fd })
	switch op {
	case sys.EpollCtlAdd, sys.EpollCtlMod:
		if i < 0 {
			ep.interest = append(ep.interest, sys.PollFD{FD: fd, Events: events})
		} else {
			ep.interest[i].Events = events
		}
	case sys.EpollCtlDel:
		if i >= 0 {
			ep.interest = slices.Delete(ep.interest, i, i+1)
		}
	default:
		return ErrInval
	}
	return nil
}

// EpollWait reports ready descriptors, waiting up to timeout (in real
// time; < 0 blocks). Unlike poll, the virtual cost scales with the
// *ready* set plus a constant, which is epoll's entire point.
func (p *Proc) EpollWait(epfd int, events []sys.EpollEvent, timeout time.Duration, clk *vtime.Clock) (int, error) {
	p.enter(clk)
	ep, err := lookupAs[*epollObj](p.kern, epfd, ErrInval)
	if err != nil {
		return 0, err
	}
	n := 0
	vtime.Until(timeout, kernelPark, func(time.Duration) bool {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		start := ep.next
		ep.next = 0
		for k := 0; k < len(ep.interest) && n < len(events); k++ {
			i := (start + k) % len(ep.interest)
			in := ep.interest[i]
			if re := p.kern.readiness(in.FD, in.Events); re != 0 {
				events[n] = sys.EpollEvent{FD: in.FD, Events: re}
				if n++; n == len(events) {
					ep.next = i + 1
				}
			}
		}
		return n > 0
	})
	if n > 0 && !p.Free {
		clk.Advance(uint64(n) * p.kern.Model.PollPerFD)
	}
	return n, nil
}
