package rakis_test

// Tests for the epoll extension (the capability §6.2 notes the paper's
// prototype lacked): enclave-side epoll over armed io_uring polls under
// RAKIS, host epoll under the baselines — same unmodified caller code.

import (
	"testing"
	"time"

	"rakis/internal/experiments"
	"rakis/internal/sys"
	"rakis/internal/workloads"
)

func TestEpollAllEnvironments(t *testing.T) {
	for _, env := range []experiments.Environment{
		experiments.Native, experiments.GramineSGX, experiments.RakisSGX,
	} {
		t.Run(env.String(), func(t *testing.T) {
			w := newWorld(t, env, nil)
			srv, err := w.ServerThread()
			if err != nil {
				t.Fatal(err)
			}
			ufd, _ := srv.Socket(sys.UDP)
			if err := srv.Bind(ufd, 7100); err != nil {
				t.Fatal(err)
			}
			epfd, err := srv.EpollCreate()
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.EpollCtl(epfd, sys.EpollCtlAdd, ufd, sys.PollIn); err != nil {
				t.Fatal(err)
			}

			// Nothing ready: zero-timeout wait reports nothing.
			evs := make([]sys.EpollEvent, 4)
			if n, err := srv.EpollWait(epfd, evs, 0); err != nil || n != 0 {
				t.Fatalf("idle wait = %d, %v", n, err)
			}

			// A datagram arrives: the wait fires with the right fd.
			cli := w.ClientThread()
			cfd, _ := cli.Socket(sys.UDP)
			go func() {
				time.Sleep(5 * time.Millisecond)
				cli.SendTo(cfd, []byte("wake"), sys.Addr{IP: w.ServerIP, Port: 7100})
			}()
			n, err := srv.EpollWait(epfd, evs, 2*time.Second)
			if err != nil || n != 1 {
				t.Fatalf("wait = %d, %v", n, err)
			}
			if evs[0].FD != ufd || evs[0].Events&sys.PollIn == 0 {
				t.Fatalf("event = %+v", evs[0])
			}
			buf := make([]byte, 64)
			if rn, _, err := srv.RecvFrom(ufd, buf, false); err != nil || rn != 4 {
				t.Fatalf("recv after epoll = %d, %v", rn, err)
			}

			// Deregistration stops delivery.
			if err := srv.EpollCtl(epfd, sys.EpollCtlDel, ufd, 0); err != nil {
				t.Fatal(err)
			}
			cli.SendTo(cfd, []byte("silent"), sys.Addr{IP: w.ServerIP, Port: 7100})
			time.Sleep(20 * time.Millisecond)
			if n, _ := srv.EpollWait(epfd, evs, 0); n != 0 {
				t.Fatal("deleted fd must not fire")
			}
			if err := srv.Close(epfd); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEpollReadyOrderIsDeterministic: with eight descriptors ready, every
// wait reports them in registration order — in the enclave epoll and in
// the host kernel's — so which connection an epoll server serves first is
// not a coin flip; and when events is shorter than the ready set, the
// next wait carries on after the last descriptor reported, so the tail of
// the set is served before the head is served twice.
func TestEpollReadyOrderIsDeterministic(t *testing.T) {
	for _, env := range []experiments.Environment{experiments.Native, experiments.RakisSGX} {
		t.Run(env.String(), func(t *testing.T) {
			w := newWorld(t, env, nil)
			srv, err := w.ServerThread()
			if err != nil {
				t.Fatal(err)
			}
			epfd, err := srv.EpollCreate()
			if err != nil {
				t.Fatal(err)
			}
			cli := w.ClientThread()
			cfd, _ := cli.Socket(sys.UDP)
			const nfds = 8
			var fds [nfds]int
			for i := range fds {
				fds[i], _ = srv.Socket(sys.UDP)
				if err := srv.Bind(fds[i], uint16(7300+i)); err != nil {
					t.Fatal(err)
				}
				if err := srv.EpollCtl(epfd, sys.EpollCtlAdd, fds[i], sys.PollIn); err != nil {
					t.Fatal(err)
				}
				cli.SendTo(cfd, []byte("ready"), sys.Addr{IP: w.ServerIP, Port: uint16(7300 + i)})
			}
			evs := make([]sys.EpollEvent, 2*nfds)
			deadline := time.Now().Add(5 * time.Second)
			for n := 0; n < nfds; {
				if n, _ = srv.EpollWait(epfd, evs, 10*time.Millisecond); time.Now().After(deadline) {
					t.Fatalf("only %d of %d descriptors became ready", n, nfds)
				}
			}
			for round := 0; round < 20; round++ {
				n, err := srv.EpollWait(epfd, evs, 0)
				if err != nil || n != nfds {
					t.Fatalf("wait %d = %d, %v", round, n, err)
				}
				for i := range fds {
					if evs[i].FD != fds[i] {
						t.Fatalf("wait %d reported %+v, want registration order %v", round, evs[:n], fds)
					}
				}
			}
			// Three waits of three cover all eight: 0-2, 3-5, 6-7 and 0.
			want := []int{0, 1, 2, 3, 4, 5, 6, 7, 0}
			for round := 0; round < 3; round++ {
				n, err := srv.EpollWait(epfd, evs[:3], 0)
				if err != nil || n != 3 {
					t.Fatalf("short wait %d = %d, %v", round, n, err)
				}
				for i, ev := range evs[:3] {
					if ev.FD != fds[want[3*round+i]] {
						t.Fatalf("short wait %d reported %+v, want to resume after the last fd reported", round, evs[:3])
					}
				}
			}
		})
	}
}

func TestEpollMixedProvidersUnderRakis(t *testing.T) {
	// One epoll instance spanning an enclave UDP socket and a host TCP
	// connection — the cross-provider scenario of §4.2, now with epoll
	// semantics (quiet descriptors stay armed between waits).
	w := newWorld(t, experiments.RakisSGX, nil)
	srv, err := w.ServerThread()
	if err != nil {
		t.Fatal(err)
	}
	ufd, _ := srv.Socket(sys.UDP)
	srv.Bind(ufd, 7101)
	lfd, _ := srv.Socket(sys.TCP)
	srv.Bind(lfd, 6400)
	srv.Listen(lfd, 4)

	cli := w.ClientThread()
	tfd, _ := cli.Socket(sys.TCP)
	if err := cli.Connect(tfd, sys.Addr{IP: experiments.KernelIP, Port: 6400}); err != nil {
		t.Fatal(err)
	}
	sfd, _, err := srv.Accept(lfd, true)
	if err != nil {
		t.Fatal(err)
	}

	epfd, _ := srv.EpollCreate()
	srv.EpollCtl(epfd, sys.EpollCtlAdd, ufd, sys.PollIn)
	srv.EpollCtl(epfd, sys.EpollCtlAdd, sfd, sys.PollIn)

	before := w.Counters.Snapshot()
	// TCP data fires the host-side entry.
	cli.Send(tfd, []byte("tcp"))
	evs := make([]sys.EpollEvent, 4)
	n, err := srv.EpollWait(epfd, evs, 2*time.Second)
	if err != nil || n != 1 || evs[0].FD != sfd {
		t.Fatalf("tcp wait = %d, %v, %+v", n, err, evs[0])
	}
	buf := make([]byte, 64)
	srv.Recv(sfd, buf, true)

	// UDP data fires the enclave-side entry.
	cfd, _ := cli.Socket(sys.UDP)
	cli.SendTo(cfd, []byte("udp"), sys.Addr{IP: w.ServerIP, Port: 7101})
	n, err = srv.EpollWait(epfd, evs, 2*time.Second)
	if err != nil || n != 1 || evs[0].FD != ufd {
		t.Fatalf("udp wait = %d, %v, %+v", n, err, evs[0])
	}
	// The whole dance happened without enclave exits.
	diff := w.Counters.Snapshot().Sub(before)
	if diff.EnclaveExits != 0 {
		t.Fatalf("epoll path caused %d exits, want 0", diff.EnclaveExits)
	}
}

func TestEpollCloseWhileArmed(t *testing.T) {
	// Regression: closing a descriptor while it sits armed in the
	// io_uring-poll cache must cancel the armed poll (PollCancels) and
	// purge it from every epoll interest set — otherwise the next wait
	// re-arms a poll on a descriptor the application no longer owns and
	// reports a stale event for it.
	w := newWorld(t, experiments.RakisSGX, nil)
	srv, err := w.ServerThread()
	if err != nil {
		t.Fatal(err)
	}
	lfd, _ := srv.Socket(sys.TCP)
	srv.Bind(lfd, 6500)
	srv.Listen(lfd, 4)
	cli := w.ClientThread()
	tfd, _ := cli.Socket(sys.TCP)
	if err := cli.Connect(tfd, sys.Addr{IP: experiments.KernelIP, Port: 6500}); err != nil {
		t.Fatal(err)
	}
	sfd, _, err := srv.Accept(lfd, true)
	if err != nil {
		t.Fatal(err)
	}

	epfd, _ := srv.EpollCreate()
	if err := srv.EpollCtl(epfd, sys.EpollCtlAdd, sfd, sys.PollIn); err != nil {
		t.Fatal(err)
	}
	// A quiet zero-timeout wait arms the poll and leaves it cached.
	evs := make([]sys.EpollEvent, 4)
	if n, err := srv.EpollWait(epfd, evs, 0); err != nil || n != 0 {
		t.Fatalf("idle wait = %d, %v", n, err)
	}

	before := w.Counters.Snapshot()
	if err := srv.Close(sfd); err != nil {
		t.Fatal(err)
	}
	diff := w.Counters.Snapshot().Sub(before)
	if diff.PollCancels == 0 {
		t.Fatal("close of an armed descriptor cancelled no polls")
	}

	// Data that would have fired the old arm must not surface: the
	// closed fd is out of the interest set, so the wait sees nothing —
	// neither readiness nor a stale PollErr from re-arming a poll on the
	// dead descriptor. The window is long enough for the kernel worker
	// to answer any such re-arm.
	cli.Send(tfd, []byte("late"))
	mid := w.Counters.Snapshot()
	if n, err := srv.EpollWait(epfd, evs, 50*time.Millisecond); err != nil || n != 0 {
		t.Fatalf("wait after close = %d, %v (event %+v)", n, err, evs[0])
	}
	// And the wait over the now-empty set must not have touched the
	// ring at all — an arm submitted for the closed descriptor is the
	// leaked poll this test guards against.
	if ops := w.Counters.Snapshot().Sub(mid).IoUringOps; ops != 0 {
		t.Fatalf("wait over purged set submitted %d ring ops", ops)
	}
}

func TestRedisWithEpollAllEnvironments(t *testing.T) {
	// The full Redis workload on the epoll event loop — exercising the
	// extension end to end in three environments.
	for _, env := range []experiments.Environment{
		experiments.Native, experiments.RakisSGX,
	} {
		t.Run(env.String(), func(t *testing.T) {
			w := newWorld(t, env, nil)
			res, err := workloads.Redis(w.WorkloadEnv(), workloads.RedisParams{
				Command: "GET", Ops: 200, Connections: 10, UseEpoll: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 200 || res.OpsPerSec <= 0 {
				t.Fatalf("res = %+v", res)
			}
		})
	}
}
