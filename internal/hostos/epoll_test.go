package hostos

import (
	"errors"
	"testing"
	"time"

	"rakis/internal/netstack"
	"rakis/internal/sys"
	"rakis/internal/vtime"
)

func TestEpollKernelObject(t *testing.T) {
	w := newTestWorld(t)
	var clk vtime.Clock

	epfd, err := w.sproc.EpollCreate(&clk)
	if err != nil {
		t.Fatal(err)
	}
	ufd, _ := w.sproc.Socket(SockUDP, &clk)
	w.sproc.Bind(ufd, 8300, &clk)
	ffd, _ := w.sproc.Open("/epoll-file", OCreate|ORdwr, &clk)

	if err := w.sproc.EpollCtl(epfd, sys.EpollCtlAdd, ufd, sys.PollIn, &clk); err != nil {
		t.Fatal(err)
	}
	if err := w.sproc.EpollCtl(epfd, sys.EpollCtlAdd, ffd, sys.PollIn|sys.PollOut, &clk); err != nil {
		t.Fatal(err)
	}

	// The file is immediately ready; the socket is not.
	evs := make([]sys.EpollEvent, 4)
	n, err := w.sproc.EpollWait(epfd, evs, 0, &clk)
	if err != nil || n != 1 || evs[0].FD != ffd {
		t.Fatalf("wait = %d, %v, %+v", n, err, evs[:1])
	}

	// Remove the file; now an idle wait times out.
	if err := w.sproc.EpollCtl(epfd, sys.EpollCtlDel, ffd, 0, &clk); err != nil {
		t.Fatal(err)
	}
	if n, _ := w.sproc.EpollWait(epfd, evs, 10*time.Millisecond, &clk); n != 0 {
		t.Fatalf("idle wait fired %d", n)
	}

	// A datagram wakes a blocking wait.
	go func() {
		var cclk vtime.Clock
		cfd, _ := w.cproc.Socket(SockUDP, &cclk)
		time.Sleep(5 * time.Millisecond)
		w.cproc.SendTo(cfd, []byte("x"), netstack.Addr{IP: netstack.IP4{10, 0, 0, 2}, Port: 8300}, &cclk)
	}()
	n, err = w.sproc.EpollWait(epfd, evs, 2*time.Second, &clk)
	if err != nil || n != 1 || evs[0].FD != ufd || evs[0].Events&sys.PollIn == 0 {
		t.Fatalf("blocking wait = %d, %v, %+v", n, err, evs[:1])
	}

	// Error paths.
	if _, err := w.sproc.EpollWait(ufd, evs, 0, &clk); !errors.Is(err, ErrInval) {
		t.Fatal("epoll_wait on a non-epoll fd must be EINVAL")
	}
	if err := w.sproc.EpollCtl(epfd, 99, ufd, 0, &clk); !errors.Is(err, ErrInval) {
		t.Fatal("bad ctl op must be EINVAL")
	}
	if err := w.sproc.EpollCtl(epfd, sys.EpollCtlAdd, 9999, sys.PollIn, &clk); !errors.Is(err, ErrBadFD) {
		t.Fatal("adding a bad fd must fail")
	}
	if err := w.sproc.Close(epfd, &clk); err != nil {
		t.Fatal(err)
	}
}
