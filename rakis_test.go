package rakis_test

// End-to-end tests of the full RAKIS runtime against the simulated host:
// unmodified workload code (the sys.Sys surface) exercising UDP over
// XSKs, TCP and files over io_uring, cross-provider poll, and the
// Figure 2 exit-count claim.

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"rakis"
	"rakis/internal/experiments"
	"rakis/internal/netstack"
	"rakis/internal/sys"
)

func newWorld(t *testing.T, env experiments.Environment, mutate func(*experiments.Options)) *experiments.World {
	t.Helper()
	opt := experiments.Options{Env: env}
	if mutate != nil {
		mutate(&opt)
	}
	w, err := experiments.NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// udpEcho runs one echo round trip from the client through the server
// environment and back.
func udpEcho(t *testing.T, w *experiments.World, port uint16, payload []byte) {
	t.Helper()
	srv, err := w.ServerThread()
	if err != nil {
		t.Fatal(err)
	}
	sfd, err := srv.Socket(sys.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(sfd, port); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 2048)
		n, src, err := srv.RecvFrom(sfd, buf, true)
		if err != nil {
			done <- err
			return
		}
		_, err = srv.SendTo(sfd, buf[:n], src)
		done <- err
	}()

	cli := w.ClientThread()
	cfd, err := cli.Socket(sys.UDP)
	if err != nil {
		t.Fatal(err)
	}
	dst := sys.Addr{IP: w.ServerIP, Port: port}
	if _, err := cli.SendTo(cfd, payload, dst); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	n, src, err := cli.RecvFrom(cfd, buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], payload) {
		t.Fatalf("echo corrupted: %d bytes back, want %d", n, len(payload))
	}
	if src.IP != w.ServerIP {
		t.Fatalf("reply from %v, want %v", src.IP, w.ServerIP)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestUDPEchoAllEnvironments(t *testing.T) {
	payload := []byte("the same unmodified workload bytes on every environment")
	for _, env := range experiments.Environments {
		t.Run(env.String(), func(t *testing.T) {
			w := newWorld(t, env, nil)
			udpEcho(t, w, 7000, payload)
		})
	}
}

func TestRakisUDPDataPathHasNoExits(t *testing.T) {
	w := newWorld(t, experiments.RakisSGX, nil)
	srv, err := w.ServerThread()
	if err != nil {
		t.Fatal(err)
	}
	sfd, _ := srv.Socket(sys.UDP)
	srv.Bind(sfd, 7001)

	cli := w.ClientThread()
	cfd, _ := cli.Socket(sys.UDP)
	dst := sys.Addr{IP: w.ServerIP, Port: 7001}

	// Warm up (ARP, steering) then snapshot.
	cli.SendTo(cfd, []byte("warm"), dst)
	buf := make([]byte, 2048)
	if n, _, err := srv.RecvFrom(sfd, buf, true); err != nil || n != 4 {
		t.Fatalf("warmup recv: %d %v", n, err)
	}
	before := w.Counters.Snapshot()

	const rounds = 500
	payload := make([]byte, 64) // not buf: the receive loop below writes that
	go func() {
		for i := 0; i < rounds; i++ {
			cli.SendTo(cfd, payload, dst)
		}
	}()
	got := 0
	for got < rounds {
		n, _, err := srv.RecvFrom(sfd, buf, true)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			got++
		}
	}
	diff := w.Counters.Snapshot().Sub(before)
	if diff.EnclaveExits != 0 {
		t.Fatalf("UDP data path caused %d enclave exits, want 0 (Figure 2 claim)", diff.EnclaveExits)
	}
	if diff.RingViolations != 0 || diff.UMemViolations != 0 {
		t.Fatalf("benign run reported violations: %+v", diff)
	}
}

func TestGramineSGXPaysExitsPerSyscall(t *testing.T) {
	w := newWorld(t, experiments.GramineSGX, nil)
	srv, _ := w.ServerThread()
	sfd, _ := srv.Socket(sys.UDP)
	srv.Bind(sfd, 7002)
	cli := w.ClientThread()
	cfd, _ := cli.Socket(sys.UDP)
	dst := sys.Addr{IP: w.ServerIP, Port: 7002}

	before := w.Counters.Snapshot()
	const rounds = 100
	buf := make([]byte, 256)
	for i := 0; i < rounds; i++ {
		cli.SendTo(cfd, buf[:32], dst)
		if _, _, err := srv.RecvFrom(sfd, buf, true); err != nil {
			t.Fatal(err)
		}
	}
	diff := w.Counters.Snapshot().Sub(before)
	if diff.EnclaveExits < rounds {
		t.Fatalf("Gramine-SGX exits = %d for %d recvfrom syscalls, want >= %d",
			diff.EnclaveExits, rounds, rounds)
	}
}

func TestRakisTCPThroughIoUring(t *testing.T) {
	for _, env := range []experiments.Environment{experiments.RakisSGX, experiments.RakisDirect} {
		t.Run(env.String(), func(t *testing.T) {
			w := newWorld(t, env, nil)
			srv, err := w.ServerThread()
			if err != nil {
				t.Fatal(err)
			}
			lfd, err := srv.Socket(sys.TCP)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Bind(lfd, 6379); err != nil {
				t.Fatal(err)
			}
			if err := srv.Listen(lfd, 8); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				cfd, _, err := srv.Accept(lfd, true)
				if err != nil {
					done <- err
					return
				}
				buf := make([]byte, 128)
				n, err := srv.Recv(cfd, buf, true)
				if err != nil {
					done <- err
					return
				}
				_, err = srv.Send(cfd, bytes.ToUpper(buf[:n]))
				done <- err
			}()

			// RAKIS TCP sockets live on the *kernel* stack: clients reach
			// them at the kernel IP, not the enclave stack IP.
			cli := w.ClientThread()
			cfd, _ := cli.Socket(sys.TCP)
			if err := cli.Connect(cfd, sys.Addr{IP: experiments.KernelIP, Port: 6379}); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Send(cfd, []byte("ping over uring")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 128)
			n, err := cli.Recv(cfd, buf, true)
			if err != nil || string(buf[:n]) != "PING OVER URING" {
				t.Fatalf("reply = %q, %v", buf[:n], err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if w.Counters.IoUringOps.Load() == 0 {
				t.Fatal("TCP data ops must flow through io_uring")
			}
		})
	}
}

func TestRakisFileIOThroughIoUring(t *testing.T) {
	w := newWorld(t, experiments.RakisSGX, nil)
	w.VFS().WriteFile("/data/input", bytes.Repeat([]byte("0123456789"), 1000))
	srv, err := w.ServerThread()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := srv.Open("/data/input", sys.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	before := w.Counters.Snapshot()
	buf := make([]byte, 4096)
	total := 0
	for {
		n, err := srv.Read(fd, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total != 10000 {
		t.Fatalf("read %d bytes, want 10000", total)
	}
	diff := w.Counters.Snapshot().Sub(before)
	if diff.EnclaveExits != 0 {
		t.Fatalf("file reads caused %d exits, want 0", diff.EnclaveExits)
	}
	if diff.IoUringOps == 0 {
		t.Fatal("file reads must flow through io_uring")
	}

	// Write a new file through the io_uring path and verify contents.
	out, err := srv.Open("/data/output", sys.OCreate|sys.OWronly)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("written from inside the enclave without exits")
	if n, err := srv.Write(out, msg); err != nil || n != len(msg) {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := srv.Fsync(out); err != nil {
		t.Fatal(err)
	}
	data, err := w.VFS().ReadFile("/data/output")
	if err != nil || !bytes.Equal(data, msg) {
		t.Fatalf("file = %q, %v", data, err)
	}
}

func TestRakisCrossProviderPoll(t *testing.T) {
	// The §4.2 scenario: one poll covering a RAKIS UDP socket and a host
	// TCP socket; events on either must surface promptly.
	w := newWorld(t, experiments.RakisSGX, nil)
	srv, err := w.ServerThread()
	if err != nil {
		t.Fatal(err)
	}
	ufd, _ := srv.Socket(sys.UDP)
	srv.Bind(ufd, 7003)
	lfd, _ := srv.Socket(sys.TCP)
	srv.Bind(lfd, 6380)
	srv.Listen(lfd, 4)

	acc := make(chan int, 1)
	go func() {
		cfd, _, err := srv.Clone().Accept(lfd, true)
		if err == nil {
			acc <- cfd
		}
	}()

	cli := w.ClientThread()
	tfd, _ := cli.Socket(sys.TCP)
	if err := cli.Connect(tfd, sys.Addr{IP: experiments.KernelIP, Port: 6380}); err != nil {
		t.Fatal(err)
	}
	sfd := <-acc

	// Case 1: TCP data arrives; poll over {UDP, TCP} flags the TCP fd.
	cli.Send(tfd, []byte("tcp data"))
	fds := []sys.PollFD{
		{FD: ufd, Events: sys.PollIn},
		{FD: sfd, Events: sys.PollIn},
	}
	n, err := srv.Poll(fds, 2*time.Second)
	if err != nil || n != 1 {
		t.Fatalf("poll = %d, %v", n, err)
	}
	if fds[1].Revents&sys.PollIn == 0 || fds[0].Revents != 0 {
		t.Fatalf("revents = %v/%v, want TCP only", fds[0].Revents, fds[1].Revents)
	}
	buf := make([]byte, 64)
	srv.Recv(sfd, buf, true)

	// Case 2: UDP datagram arrives; the UDP source fires.
	ucl, _ := cli.Socket(sys.UDP)
	cli.SendTo(ucl, []byte("udp data"), sys.Addr{IP: w.ServerIP, Port: 7003})
	fds[0].Revents, fds[1].Revents = 0, 0
	n, err = srv.Poll(fds, 2*time.Second)
	if err != nil || n < 1 {
		t.Fatalf("poll2 = %d, %v", n, err)
	}
	if fds[0].Revents&sys.PollIn == 0 {
		t.Fatal("UDP source must be flagged")
	}
	// Case 3: timeout with no events.
	if n, _, err := srv.RecvFrom(ufd, buf, true); err != nil || n == 0 {
		t.Fatal("drain udp")
	}
	fds[0].Revents, fds[1].Revents = 0, 0
	n, err = srv.Poll(fds, 50*time.Millisecond)
	if err != nil || n != 0 {
		t.Fatalf("empty poll = %d, %v; want timeout 0", n, err)
	}
}

// TestPollBadFDNeverReachesTheFM: a descriptor the runtime does not know
// is reported PollErr at once and counted, like POLLNVAL — and is never
// armed as an io_uring poll on whatever host descriptor a zero value
// happens to name.
func TestPollBadFDNeverReachesTheFM(t *testing.T) {
	w := newWorld(t, experiments.RakisSGX, nil)
	srv, err := w.ServerThread()
	if err != nil {
		t.Fatal(err)
	}
	ufd, _ := srv.Socket(sys.UDP)
	srv.Bind(ufd, 7004)
	ops, inFlight := w.Counters.IoUringOps.Load(), srv.(*rakis.Thread).OutstandingForTest()
	fds := []sys.PollFD{
		{FD: 12345, Events: sys.PollIn},
		{FD: ufd, Events: sys.PollIn, Revents: sys.PollOut}, // stale: must be cleared
	}
	start := time.Now()
	n, err := srv.Poll(fds, 2*time.Second)
	if got := w.Counters.IoUringOps.Load(); got != ops {
		t.Fatalf("the poll submitted %d io_uring operations", got-ops)
	}
	if got := srv.(*rakis.Thread).OutstandingForTest(); got != inFlight {
		t.Fatalf("%d requests in flight after the poll, %d before", got, inFlight)
	}
	if err != nil || n != 1 {
		t.Fatalf("poll = %d, %v, want the bad descriptor counted", n, err)
	}
	if fds[0].Revents != sys.PollErr || fds[1].Revents != 0 {
		t.Fatalf("revents = %#x/%#x, want PollErr/0", fds[0].Revents, fds[1].Revents)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("a poll with a bad descriptor waited %v", el)
	}
}

func TestRakisNonblockingRecv(t *testing.T) {
	w := newWorld(t, experiments.RakisSGX, nil)
	srv, _ := w.ServerThread()
	ufd, _ := srv.Socket(sys.UDP)
	srv.Bind(ufd, 7004)
	buf := make([]byte, 64)
	if _, _, err := srv.RecvFrom(ufd, buf, false); !errors.Is(err, netstack.ErrWouldBlock) {
		t.Fatalf("empty nonblocking recv = %v, want ErrWouldBlock", err)
	}
}

// TestScalarUDPCallsAllocateNothing pins the scalar Thread calls now that
// they run the vectored calls' bodies at width one: a SendTo and a
// RecvFrom of a queued datagram cost no heap object, as when they were
// functions of their own (0 and 0 at 43969f9), and they are not batch
// calls.
func TestScalarUDPCallsAllocateNothing(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates on its own")
	}
	w := newWorld(t, experiments.RakisSGX, nil)
	srv, err := w.ServerThread()
	if err != nil {
		t.Fatal(err)
	}
	sfd, _ := srv.Socket(sys.UDP)
	if err := srv.Bind(sfd, 7400); err != nil {
		t.Fatal(err)
	}
	cli := w.ClientThread()
	cfd, _ := cli.Socket(sys.UDP)
	if err := cli.Bind(cfd, 7401); err != nil {
		t.Fatal(err)
	}
	// One XSK, one pump, frames handled in arrival order: once a sentinel
	// sent after the datagrams is receivable, they are all queued.
	gfd, _ := srv.Socket(sys.UDP)
	if err := srv.Bind(gfd, 7402); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	payload, buf := make([]byte, 64), make([]byte, 128)
	for i := 0; i <= runs+1; i++ { // AllocsPerRun makes one warm-up call
		dst := sys.Addr{IP: w.ServerIP, Port: 7400}
		if i == runs+1 {
			dst.Port = 7402
		}
		if _, err := cli.SendTo(cfd, payload, dst); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := srv.RecvFrom(gfd, buf, true); err != nil {
		t.Fatal(err)
	}
	recv := testing.AllocsPerRun(runs, func() {
		if n, _, err := srv.RecvFrom(sfd, buf, false); err != nil || n != len(payload) {
			t.Fatalf("RecvFrom = %d, %v", n, err)
		}
	})
	dst := sys.Addr{IP: experiments.ClientIP, Port: 7401}
	mid := w.Counters.Snapshot()
	send := testing.AllocsPerRun(runs, func() {
		if n, err := srv.SendTo(sfd, payload, dst); err != nil || n != len(payload) {
			t.Fatalf("SendTo = %d, %v", n, err)
		}
	})
	if recv != 0 || send != 0 {
		t.Fatalf("scalar RecvFrom allocates %v objects per call, SendTo %v; want 0 and 0", recv, send)
	}
	// The same sends through the vectored call count one batch call and
	// one batched message each on top of what the layers below count for
	// either form.
	scalar := w.Counters.Snapshot().Sub(mid)
	for i := 0; i < runs+1; i++ {
		if n, err := srv.SendToN(sfd, []sys.Mmsg{{Buf: payload, Addr: dst}}); err != nil || n != 1 {
			t.Fatalf("SendToN = %d, %v", n, err)
		}
	}
	vector := w.Counters.Snapshot().Sub(mid).Sub(scalar)
	if vector.BatchCalls-scalar.BatchCalls != runs+1 || vector.BatchedMsgs-scalar.BatchedMsgs != runs+1 {
		t.Fatalf("%d sends counted %d batch calls / %d msgs scalar, %d / %d vectored; want the API to add %d vectored only",
			runs+1, scalar.BatchCalls, scalar.BatchedMsgs, vector.BatchCalls, vector.BatchedMsgs, runs+1)
	}
}

func TestRakisMultiXSK(t *testing.T) {
	// Four XSKs on four queues, many flows: all datagrams arrive, spread
	// across the FM pumps (the Memcached configuration, §6.1).
	w := newWorld(t, experiments.RakisSGX, func(o *experiments.Options) { o.NumXSKs = 4 })
	srv, _ := w.ServerThread()
	sfd, _ := srv.Socket(sys.UDP)
	srv.Bind(sfd, 7005)

	const flows, per = 16, 25
	go func() {
		for f := 0; f < flows; f++ {
			cli := w.ClientThread()
			cfd, _ := cli.Socket(sys.UDP)
			for i := 0; i < per; i++ {
				cli.SendTo(cfd, []byte("multiflow"), sys.Addr{IP: w.ServerIP, Port: 7005})
			}
		}
	}()
	buf := make([]byte, 256)
	for got := 0; got < flows*per; got++ {
		if _, _, err := srv.RecvFrom(sfd, buf, true); err != nil {
			t.Fatal(err)
		}
	}
	// More than one pump thread did work.
	busy := 0
	for _, p := range w.Rakis().Pumps() {
		if p.Clock().Now() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 XSK pumps saw traffic; RSS not spreading", busy)
	}
}

func TestRakisVirtualThroughputBeatsGramineSGX(t *testing.T) {
	// A coarse end-to-end sanity check of the headline claim: pushing the
	// same number of datagrams through each environment, the RAKIS-SGX
	// server's virtual receive clock advances far less than
	// Gramine-SGX's (higher throughput).
	run := func(env experiments.Environment) uint64 {
		w := newWorld(t, env, nil)
		srv, err := w.ServerThread()
		if err != nil {
			t.Fatal(err)
		}
		sfd, _ := srv.Socket(sys.UDP)
		srv.Bind(sfd, 7006)
		cli := w.ClientThread()
		cfd, _ := cli.Socket(sys.UDP)
		dst := sys.Addr{IP: w.ServerIP, Port: 7006}
		const rounds = 300
		go func() {
			payload := make([]byte, 1400)
			for i := 0; i < rounds; i++ {
				cli.SendTo(cfd, payload, dst)
			}
		}()
		buf := make([]byte, 2048)
		start := srv.Clock().Now()
		for got := 0; got < rounds; got++ {
			if _, _, err := srv.RecvFrom(sfd, buf, true); err != nil {
				t.Fatal(err)
			}
		}
		return srv.Clock().Now() - start
	}
	rakisCycles := run(experiments.RakisSGX)
	gramineCycles := run(experiments.GramineSGX)
	if gramineCycles < rakisCycles*2 {
		t.Fatalf("Gramine-SGX %d cycles vs RAKIS-SGX %d: expected >2x gap",
			gramineCycles, rakisCycles)
	}
}

// TestClosedWorldIsReleased: Close must retire everything a runtime
// started, including each application thread's io_uring kernel worker —
// a worker left running keeps its world's whole simulated address space
// reachable. Boot, open a thread, close, three times: the goroutine
// count and the live heap return to where they started.
func TestClosedWorldIsReleased(t *testing.T) {
	const spaceBytes = 64 << 20
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	baseGoroutines, baseHeap := runtime.NumGoroutine(), liveHeap()
	for i := 0; i < 3; i++ {
		w, err := experiments.NewWorld(experiments.Options{
			Env: experiments.RakisSGX, TrustedBytes: 4 << 20, UntrustedBytes: spaceBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.ServerThread(); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	// Stopped goroutines exit on their own schedule: wait for them.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Errorf("%d goroutines after three closed worlds, %d before", n, baseGoroutines)
	}
	if heap := liveHeap(); heap > baseHeap+spaceBytes/2 {
		t.Errorf("live heap %d MiB after three closed worlds, %d MiB before: a closed world's %d MiB space is still reachable",
			heap>>20, baseHeap>>20, spaceBytes>>20)
	}
}
