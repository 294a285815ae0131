package hostos_test

// One readiness rule, four doors: a table of descriptor states × interest
// masks, each asked through poll(2), epoll, an io_uring poll_add SQE and
// the enclave's cross-provider aggregation (over the host descriptor,
// and — for sockets — over the very same netstack socket watched
// directly). All must give the one answer netstack's Ready gives.

import (
	"fmt"
	"testing"
	"time"

	"rakis/internal/fm"
	"rakis/internal/hostos"
	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/mm"
	"rakis/internal/netsim"
	"rakis/internal/netstack"
	"rakis/internal/sm"
	"rakis/internal/sys"
	"rakis/internal/vtime"
)

func TestFourDoorsAgree(t *testing.T) {
	m := vtime.Default()
	kern := hostos.NewKernel(mem.NewSpace(1<<20, 1<<24), m)
	devA, devB := netsim.NewPair(m, netsim.Config{Name: "a"}, netsim.Config{Name: "b"})
	ipA, ipB := netstack.IP4{10, 0, 0, 1}, netstack.IP4{10, 0, 0, 2}
	nsA, err := kern.AddNetNS("a", devA, ipA, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nsB, err := kern.AddNetNS("b", devB, ipB, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(kern.Close)
	a, b := kern.NewProc(nsA, nil), kern.NewProc(nsB, nil)
	var clk, bclk vtime.Clock

	setup, err := a.IoUringSetup(64, &clk)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := iouring.Attach(iouring.Config{Space: kern.Space, Setup: setup, Entries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ufm, err := fm.NewUringFM(ring, kern.Space, m, 4096)
	if err != nil {
		t.Fatal(err)
	}
	proxy := sm.NewSyncProxy(ufm, m)
	mon := mm.New(a)
	mon.WatchUring(kern.Space, setup)
	mon.Start()
	t.Cleanup(mon.Close)

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// settle waits for fd to report want through poll(2): the state under
	// test has then reached the socket.
	settle := func(fd int, want uint32) {
		t.Helper()
		fds := []sys.PollFD{{FD: fd, Events: want}}
		if n, _ := a.Poll(fds, 2*time.Second, &clk); n != 1 || fds[0].Revents != want {
			t.Fatalf("fd %d never reported %#x (got %#x)", fd, want, fds[0].Revents)
		}
	}
	udpOn := func(p *hostos.Proc, port uint16) int {
		fd, err := p.Socket(hostos.SockUDP, &clk)
		must(err)
		must(p.Bind(fd, port, &clk))
		return fd
	}
	lfd, err := a.Socket(hostos.SockTCP, &clk)
	must(err)
	must(a.Bind(lfd, 80, &clk))
	must(a.Listen(lfd, 8, &clk))
	dial := func() int {
		bfd, err := b.Socket(hostos.SockTCP, &bclk)
		must(err)
		must(b.Connect(bfd, netstack.Addr{IP: ipA, Port: 80}, &bclk))
		return bfd
	}
	// conn establishes b → a:80 and returns both ends' descriptors and
	// the client's address.
	conn := func() (afd, bfd int, peer netstack.Addr) {
		bfd = dial()
		afd, peer, err := a.Accept(lfd, &clk, true)
		must(err)
		return afd, bfd, peer
	}

	udpEmpty := udpOn(a, 7001)
	udpQueued := udpOn(a, 7002)
	_, err = b.SendTo(udpOn(b, 7100), []byte("x"), netstack.Addr{IP: ipA, Port: 7002}, &bclk)
	must(err)
	settle(udpQueued, sys.PollIn)
	udpClosed := udpOn(a, 7003)
	usock, _ := a.SockForTest(udpClosed)
	usock.Close() // the socket is gone, the descriptor is not

	tcpWritable, _, _ := conn()
	tcpReadable, bfd, _ := conn()
	_, err = b.Send(bfd, []byte("data"), &bclk)
	must(err)
	settle(tcpReadable, sys.PollIn)
	tcpEOF, bfd, _ := conn()
	must(b.Close(bfd, &bclk))
	settle(tcpEOF, sys.PollIn)
	tcpReset, _, peer := conn()
	rst := netstack.MarshalTCP(peer.IP, ipA, peer.Port, 80, 0, 0, netstack.TCPFlagRST, 0, nil)
	nsA.Stack.Input(netstack.MarshalEth(
		netstack.EthHeader{Dst: devA.MAC(), Src: devB.MAC(), Type: netstack.EtherTypeIPv4},
		netstack.MarshalIPv4(netstack.IPv4Header{TTL: 64, Proto: netstack.ProtoTCP, Src: peer.IP, Dst: ipA}, rst)), &clk)
	settle(tcpReset, sys.PollIn)
	dial() // left in the backlog
	settle(lfd, sys.PollIn)
	lfdEmpty, err := a.Socket(hostos.SockTCP, &clk)
	must(err)
	must(a.Bind(lfdEmpty, 81, &clk))
	must(a.Listen(lfdEmpty, 8, &clk))
	file, err := a.Open("/f", hostos.OCreate|hostos.ORdwr, &clk)
	must(err)

	in, out := sys.PollIn, sys.PollOut
	for _, c := range []struct {
		name string
		fd   int
		// ready is what the descriptor has; each mask must get ready&mask
		// (PollErr whatever the mask, for a descriptor that is none).
		ready uint32
	}{
		{"udp empty", udpEmpty, out},
		{"udp queued", udpQueued, in | out},
		{"udp closed", udpClosed, out},
		{"tcp writable", tcpWritable, out},
		{"tcp readable", tcpReadable, in | out},
		{"tcp EOF", tcpEOF, in | out},
		{"tcp reset", tcpReset, in},
		{"listener empty", lfdEmpty, 0},
		{"listener backlogged", lfd, in},
		{"file", file, in | out},
		{"bad fd", 9999, sys.PollErr},
	} {
		for _, mask := range []uint32{in, out, in | out} {
			want := c.ready & mask
			if c.ready == sys.PollErr {
				want = sys.PollErr
			}
			name := fmt.Sprintf("%s/mask %#x", c.name, mask)

			fds := []sys.PollFD{{FD: c.fd, Events: mask}}
			a.Poll(fds, 0, &clk)
			if fds[0].Revents != want {
				t.Errorf("%s: poll reports %#x, want %#x", name, fds[0].Revents, want)
			}

			if want != sys.PollErr { // epoll_ctl refuses a bad fd outright
				ep, err := a.EpollCreate(&clk)
				must(err)
				must(a.EpollCtl(ep, sys.EpollCtlAdd, c.fd, mask, &clk))
				evs := make([]sys.EpollEvent, 1)
				var got uint32
				if n, _ := a.EpollWait(ep, evs, 0, &clk); n == 1 {
					got = evs[0].Events
				}
				if got != want {
					t.Errorf("%s: epoll reports %#x, want %#x", name, got, want)
				}
				must(a.Close(ep, &clk))
			}

			// The raw SQE: ready completes with the mask, a bad fd with an
			// errno, and a quiet descriptor stays armed.
			tok, err := ufm.SubmitPoll(c.fd, mask, &clk)
			must(err)
			var res int32
			done := false
			wait := 2 * time.Second
			if want == 0 {
				wait = 3 * time.Millisecond
			}
			for deadline := time.Now().Add(wait); !done && time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
				res, done, err = ufm.TryPoll(tok, &clk)
				must(err)
			}
			switch {
			case want == 0 && done:
				t.Errorf("%s: poll_add completed %d on a quiet descriptor", name, res)
			case want == sys.PollErr && (!done || res >= 0):
				t.Errorf("%s: poll_add = %d (done %v), want an errno", name, res, done)
			case want != 0 && want != sys.PollErr && (!done || uint32(res) != want):
				t.Errorf("%s: poll_add = %d (done %v), want %#x", name, res, done, want)
			}
			if !done {
				ufm.CancelPoll(tok, &clk)
			}

			srcs := []sm.PollSource{{HostFD: c.fd, Events: mask}}
			if udp, tcp := a.SockForTest(c.fd); udp != nil || tcp != nil {
				srcs = append(srcs, sm.PollSource{UDP: udp, TCP: tcp, Events: mask})
			}
			timeout := 2 * time.Second
			if want == 0 {
				timeout = 0
			}
			for _, src := range srcs {
				one := []sm.PollSource{src}
				if _, err := sm.Poll(one, timeout, proxy, m, &clk); err != nil {
					t.Fatal(err)
				}
				if one[0].Revents != want {
					t.Errorf("%s: sm.Poll (enclave socket: %v) reports %#x, want %#x",
						name, src.UDP != nil || src.TCP != nil, one[0].Revents, want)
				}
			}
		}
	}
}
