package hostos

// End-to-end FIOKP tests: the enclave-side FastPath Module handles from
// internal/xsk and internal/iouring against this package's kernel sides,
// over genuinely shared untrusted memory.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"rakis/internal/iouring"
	"rakis/internal/mem"
	"rakis/internal/netstack"
	"rakis/internal/ring"
	"rakis/internal/sys"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

// attachXSK sets up one XSK on the server's queue 0 with a redirect-all
// XDP program and returns the FM-side socket.
func attachXSK(t *testing.T, w *testWorld, verdict func([]byte) Verdict) *xsk.Socket {
	t.Helper()
	var clk vtime.Clock
	res, err := w.sproc.XSKSetup(w.server, 0, 64, 2048, 256, &clk)
	if err != nil {
		t.Fatal(err)
	}
	if verdict == nil {
		// Redirect everything except ARP, which the kernel stack must
		// answer for the client's resolution to succeed.
		verdict = func(frame []byte) Verdict {
			if eth, _, err := netstack.ParseEth(frame); err == nil && eth.Type == netstack.EtherTypeARP {
				return VerdictPass
			}
			return VerdictRedirect
		}
	}
	w.server.AttachXDP(verdict)
	ctrs := &vtime.Counters{}
	sock, err := xsk.Attach(xsk.Config{
		Space: w.kern.Space, Setup: res.Setup,
		RingSize: 64, FrameSize: 2048, FrameCount: 256,
		Counters: ctrs, Model: w.kern.Model,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sock
}

func TestXSKReceivePath(t *testing.T) {
	w := newTestWorld(t)
	w.server.Dev.SetRSS(func([]byte, int) int { return 0 }) // everything to queue 0
	sock := attachXSK(t, w, nil)

	var fmClk vtime.Clock
	if n := sock.Refill(&fmClk); n != 64-1 && n != 64 {
		// A ring of size 64 accepts 64 fill entries.
		t.Fatalf("refill = %d", n)
	}

	// The client sends raw UDP toward the server; XDP redirects to the XSK.
	var cclk vtime.Clock
	cfd, _ := w.cproc.Socket(SockUDP, &cclk)
	dst := netstack.Addr{IP: netstack.IP4{10, 0, 0, 3}, Port: 8125}
	// Destination 10.0.0.3 is not the kernel stack's IP: without the XSK
	// the frame would be discarded. ARP for 10.0.0.3 cannot resolve, so
	// use the kernel IP instead and rely on redirect-all.
	dst.IP = netstack.IP4{10, 0, 0, 2}
	payload := []byte("xdp redirect payload")
	if _, err := w.cproc.SendTo(cfd, payload, dst, &cclk); err != nil {
		t.Fatal(err)
	}

	// The FM polls xRX for the layer-2 frame.
	deadline := time.Now().Add(2 * time.Second)
	var views []mem.View
	for {
		if views = sock.RecvViews(&fmClk, 1); len(views) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame never reached the XSK")
		}
		time.Sleep(100 * time.Microsecond)
	}
	frame := make([]byte, views[0].Len())
	if _, err := views[0].CopyOut(frame, 0); err != nil {
		t.Fatal(err)
	}
	if err := views[0].Release(); err != nil {
		t.Fatal(err)
	}
	// It is a full Ethernet frame carrying our UDP payload.
	_, ipPayload, err := netstack.ParseEth(frame)
	if err != nil {
		t.Fatal(err)
	}
	h, l4, err := netstack.ParseIPv4(ipPayload)
	if err != nil || h.Proto != netstack.ProtoUDP {
		t.Fatalf("ip parse: %v proto=%d", err, h.Proto)
	}
	if !bytes.Contains(l4, payload) {
		t.Fatalf("payload missing from %q", l4)
	}
	if fmClk.Now() == 0 {
		t.Fatal("FM clock must advance")
	}
	// The consumed frame returned to the pool.
	if sock.UMem.FreeFrames() == 0 {
		t.Fatal("frame not recycled")
	}
	if !sock.UMem.InvariantHolds() {
		t.Fatal("UMem invariant broken")
	}
}

func TestXSKDropWithoutFill(t *testing.T) {
	w := newTestWorld(t)
	w.server.Dev.SetRSS(func([]byte, int) int { return 0 })
	sock := attachXSK(t, w, nil)
	// No Refill: the kernel has no frames, so packets drop (§4.1 QoS).
	var cclk vtime.Clock
	cfd, _ := w.cproc.Socket(SockUDP, &cclk)
	dst := netstack.Addr{IP: netstack.IP4{10, 0, 0, 2}, Port: 8125}
	for i := 0; i < 5; i++ {
		w.cproc.SendTo(cfd, []byte("lost"), dst, &cclk)
	}
	time.Sleep(20 * time.Millisecond)
	var fmClk vtime.Clock
	if views := sock.RecvViews(&fmClk, 1); len(views) != 0 {
		t.Fatal("nothing should arrive without fill entries")
	}
	// The kernel flagged need-wakeup on the fill ring.
	if sock.Fill.Flags()&1 == 0 {
		t.Fatal("kernel must set need-wakeup when fill is empty")
	}
	// The wakeup syscall clears it.
	var mmClk vtime.Clock
	if err := w.sproc.XSKRecvfrom(sock.FD(), &mmClk); err != nil {
		t.Fatal(err)
	}
	if sock.Fill.Flags() != 0 {
		t.Fatal("recvfrom wakeup must clear need-wakeup")
	}
}

func TestXSKTransmitPath(t *testing.T) {
	w := newTestWorld(t)
	sock := attachXSK(t, w, nil)

	// Build a raw Ethernet frame from the "enclave" and send it via xTX;
	// the client's kernel UDP socket should receive it.
	var cclk vtime.Clock
	cfd, _ := w.cproc.Socket(SockUDP, &cclk)
	if err := w.cproc.Bind(cfd, 9001, &cclk); err != nil {
		t.Fatal(err)
	}

	payload := []byte("from the enclave via xsk")
	frame := enclaveUDPFrame(w, payload)

	var fmClk vtime.Clock
	if n, err := sock.SendBatch([][]byte{frame}, &fmClk); err != nil || n != 1 {
		t.Fatalf("sent %d, %v", n, err)
	}
	if sock.TX.ProducerValue() != 1 {
		t.Fatal("TX producer must advance for the MM to notice")
	}
	// The Monitor Module notices the producer advance and issues sendto.
	var mmClk vtime.Clock
	n, err := w.sproc.XSKSendto(sock.FD(), &mmClk)
	if err != nil || n != 1 {
		t.Fatalf("sendto processed %d, %v", n, err)
	}

	buf := make([]byte, 128)
	rn, _, err := w.cproc.RecvFrom(cfd, buf, &cclk, true)
	if err != nil || !bytes.Equal(buf[:rn], payload) {
		t.Fatalf("client got %q, %v", buf[:rn], err)
	}

	// The completion recycles the frame.
	if reaped := sock.Reap(&fmClk); reaped != 1 {
		t.Fatalf("reaped %d completions, want 1", reaped)
	}
	if sock.UMem.FreeFrames() != int(sock.UMem.FrameCount()) {
		t.Fatal("TX frame not recycled")
	}
}

// enclaveUDPFrame builds the raw Ethernet frame an enclave would put on
// xTX: a UDP datagram from port 9000 to the client's port 9001.
func enclaveUDPFrame(w *testWorld, payload []byte) []byte {
	udp := make([]byte, 8+len(payload))
	udp[0], udp[1] = 0x23, 0x28 // src 9000
	udp[2], udp[3] = 0x23, 0x29 // dst 9001
	udp[4], udp[5] = byte(len(udp)>>8), byte(len(udp))
	copy(udp[8:], payload)
	ip := netstack.MarshalIPv4(netstack.IPv4Header{
		TTL: 64, Proto: netstack.ProtoUDP,
		Src: netstack.IP4{10, 0, 0, 3}, Dst: netstack.IP4{10, 0, 0, 1},
	}, udp)
	return netstack.MarshalEth(netstack.EthHeader{
		Dst: w.client.Dev.MAC(), Src: w.server.Dev.MAC(), Type: netstack.EtherTypeIPv4,
	}, ip)
}

func TestXSKHostileKernelScribbles(t *testing.T) {
	// A hostile kernel writes garbage over the shared rings; the FM must
	// refuse it all and keep its invariants.
	w := newTestWorld(t)
	sock := attachXSK(t, w, nil)
	var fmClk vtime.Clock
	sock.Refill(&fmClk)

	// Forge xRX descriptors pointing outside UMem and at frames the FM
	// never gave to the fill routine.
	var clk vtime.Clock
	res, _ := w.sproc.XSKSetup(w.server, 1, 64, 2048, 16, &clk) // scratch: unrelated
	_ = res
	// Directly scribble: host role writes into the RX ring of sock.
	rxBase := sock.RX.Base()
	hostBytes, err := w.kern.Space.Bytes(mem.RoleHost, rxBase, 16+64*16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hostBytes {
		hostBytes[i] = 0xFF
	}
	// Producer now claims 0xFFFFFFFF entries: certification rejects it.
	if views := sock.RecvViews(&fmClk, 1); len(views) != 0 {
		t.Fatal("hostile RX state must yield nothing")
	}
	if !sock.UMem.InvariantHolds() {
		t.Fatal("UMem invariant must survive scribbling")
	}
	if !sock.RX.InvariantHolds() {
		t.Fatal("ring invariant must survive scribbling")
	}
}

func TestIoUringFileIO(t *testing.T) {
	w := newTestWorld(t)
	w.kern.VFS().WriteFile("/data/in", []byte("io_uring file contents"))
	var clk vtime.Clock
	fd, err := w.sproc.Open("/data/in", ORdwr, &clk)
	if err != nil {
		t.Fatal(err)
	}

	setup, err := w.sproc.IoUringSetup(32, &clk)
	if err != nil {
		t.Fatal(err)
	}
	ctrs := &vtime.Counters{}
	fm, err := iouring.Attach(iouring.Config{
		Space: w.kern.Space, Setup: setup, Entries: 32,
		Counters: ctrs, Model: w.kern.Model,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Bounce buffer in untrusted memory, as the FM would allocate.
	bounceAddr, err := w.kern.Space.Alloc(mem.Untrusted, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}

	var fmClk vtime.Clock
	tok, err := fm.Submit(iouring.SQE{
		Op: iouring.OpRead, FD: int32(fd), Off: 0,
		Addr: bounceAddr, Len: 22,
	}, &fmClk)
	if err != nil {
		t.Fatal(err)
	}
	// The MM notices the iSub advance and issues io_uring_enter.
	var mmClk vtime.Clock
	if err := w.sproc.IoUringEnter(setup.FD, &mmClk); err != nil {
		t.Fatal(err)
	}
	res, err := fm.Wait(tok, &fmClk)
	if err != nil || res != 22 {
		t.Fatalf("read res = %d, %v", res, err)
	}
	got, _ := w.kern.Space.Bytes(mem.RoleEnclave, bounceAddr, 22)
	if string(got) != "io_uring file contents" {
		t.Fatalf("bounce buffer = %q", got)
	}
	// The completion's virtual time includes the wake latency.
	if fmClk.Now() < w.kern.Model.IoUringWakeLatency {
		t.Fatalf("FM clock %d must include wake latency", fmClk.Now())
	}

	// Write path.
	copy(got, []byte("REWRITTEN_CONTENT_HERE"))
	tok, err = fm.Submit(iouring.SQE{
		Op: iouring.OpWrite, FD: int32(fd), Off: 0,
		Addr: bounceAddr, Len: 22,
	}, &fmClk)
	if err != nil {
		t.Fatal(err)
	}
	w.sproc.IoUringEnter(setup.FD, &mmClk)
	if res, err := fm.Wait(tok, &fmClk); err != nil || res != 22 {
		t.Fatalf("write res = %d, %v", res, err)
	}
	data, _ := w.kern.VFS().ReadFile("/data/in")
	if string(data) != "REWRITTEN_CONTENT_HERE" {
		t.Fatalf("file = %q", data)
	}
	if fm.Outstanding() != 0 {
		t.Fatal("no requests should remain outstanding")
	}
}

// TestXSKWakeLatencyChargedOnWakeOnly pins the XSK twin of the io_uring
// wake-latency check above: a frame the Monitor Module's sendto wakes is
// transmitted and completed no earlier than its publish stamp plus
// Model.XskWakeLatency, while the busy-poll worker, which books the gap
// as spin itself and wakes nothing, drains the same frame without it.
func TestXSKWakeLatencyChargedOnWakeOnly(t *testing.T) {
	w := newTestWorld(t)
	sock := attachXSK(t, w, nil)
	x, err := lookupAs[*xskKernel](w.kern, sock.FD(), ErrNotSocket)
	if err != nil {
		t.Fatal(err)
	}
	var cclk vtime.Clock
	cfd, _ := w.cproc.Socket(SockUDP, &cclk)
	if err := w.cproc.Bind(cfd, 9001, &cclk); err != nil {
		t.Fatal(err)
	}
	m := w.kern.Model
	payload := []byte("wake lag")
	frame := enclaveUDPFrame(w, payload)
	buf := make([]byte, 64)

	// drain publishes the frame well after both kernel-side clocks,
	// drives it, and returns its publish stamp and completion stamp.
	var fmClk vtime.Clock
	drain := func(run func()) (published, completed uint64) {
		t.Helper()
		fmClk.Advance(100_000)
		if n, err := sock.SendBatch([][]byte{frame}, &fmClk); err != nil || n != 1 {
			t.Fatalf("sent %d, %v", n, err)
		}
		published = x.tx.SlotStamp(0)
		run()
		if avail, _ := sock.Compl.Available(); avail != 1 {
			t.Fatalf("%d completions, want 1", avail)
		}
		completed = sock.Compl.SlotStamp(0)
		if reaped := sock.Reap(&fmClk); reaped != 1 {
			t.Fatalf("reaped %d completions, want 1", reaped)
		}
		if rn, _, err := w.cproc.RecvFrom(cfd, buf, &cclk, true); err != nil || !bytes.Equal(buf[:rn], payload) {
			t.Fatalf("client got %q, %v", buf[:rn], err)
		}
		return published, completed
	}

	// The MM's doorbell, rung at a virtual time before the publish.
	var mmClk vtime.Clock
	s, woken := drain(func() {
		if n, err := w.sproc.XSKSendto(sock.FD(), &mmClk); err != nil || n != 1 {
			t.Fatalf("sendto processed %d, %v", n, err)
		}
	})
	if woken < s+m.XskWakeLatency {
		t.Fatalf("woken drain completed at %d, before publish %d + wake latency %d", woken, s, m.XskWakeLatency)
	}
	if cclk.Now() < s+m.XskWakeLatency {
		t.Fatalf("frame arrived at %d, before publish %d + wake latency %d", cclk.Now(), s, m.XskWakeLatency)
	}

	// One busy-poll pass: the same frame, the same drain work, no lag.
	s2, polled := drain(x.pollPass)
	if got, want := polled-s2, woken-s-m.XskWakeLatency; got != want {
		t.Fatalf("busy-poll drain took %d cycles after publish, want %d (the woken drain's %d less the wake latency)",
			got, want, woken-s)
	}
}

// TestIoUringFileRoundTripAllocatesNothing pins the kernel worker's
// steady state: a 4 KiB Pwrite and Pread, each from submit through
// io_uring_enter and the worker's inline completion to Ring.Wait,
// allocate nothing — no timer per wake, no goroutine per read, no clock
// per SQE.
func TestIoUringFileRoundTripAllocatesNothing(t *testing.T) {
	w := newTestWorld(t)
	w.kern.VFS().WriteFile("/data/blk", make([]byte, 8192))
	var clk vtime.Clock
	fd, err := w.sproc.Open("/data/blk", ORdwr, &clk)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := w.sproc.IoUringSetup(8, &clk)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := iouring.Attach(iouring.Config{Space: w.kern.Space, Setup: setup, Entries: 8, Model: w.kern.Model})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := w.kern.Space.Alloc(mem.Untrusted, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(op iouring.Op) {
		tok, err := fm.Submit(iouring.SQE{Op: op, FD: int32(fd), Off: 4096, Addr: buf, Len: 4096}, &clk)
		if err != nil {
			t.Fatal(err)
		}
		w.sproc.IoUringEnter(setup.FD, &clk)
		if res, err := fm.Wait(tok, &clk); err != nil || res != 4096 {
			t.Fatalf("%v res = %d, %v", op, res, err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		roundTrip(iouring.OpWrite)
		roundTrip(iouring.OpRead)
	})
	if allocs != 0 && !raceDetectorEnabled {
		t.Fatalf("a Pwrite + Pread round trip allocates %v times, want 0", allocs)
	}
}

func TestIoUringEnclaveBufferRejected(t *testing.T) {
	// Appendix A attack, inverted: an SQE whose buffer points into
	// enclave memory must never cross the trust boundary. The FM refuses
	// it at Submit; and should one reach the kernel anyway, the simulated
	// SGX protection faults the host's access and the operation fails
	// with EFAULT.
	w := newTestWorld(t)
	w.kern.VFS().WriteFile("/data/secret", []byte("secret"))
	var clk vtime.Clock
	fd, _ := w.sproc.Open("/data/secret", ORdonly, &clk)
	setup, _ := w.sproc.IoUringSetup(8, &clk)
	fm, err := iouring.Attach(iouring.Config{Space: w.kern.Space, Setup: setup, Entries: 8})
	if err != nil {
		t.Fatal(err)
	}
	trustedAddr, _ := w.kern.Space.Alloc(mem.Trusted, 4096, 64)

	// First line of defense: the FM refuses to expose an enclave pointer.
	var fmClk vtime.Clock
	if _, err := fm.Submit(iouring.SQE{
		Op: iouring.OpRead, FD: int32(fd), Addr: trustedAddr, Len: 6,
	}, &fmClk); !errors.Is(err, iouring.ErrBufferPlacement) {
		t.Fatalf("Submit with enclave buffer: err = %v, want ErrBufferPlacement", err)
	}
	if fm.Outstanding() != 0 {
		t.Fatal("refused request must not be outstanding")
	}

	// Second line of defense: bypass the FM and write the hostile SQE
	// straight into iSub through a raw host-side handle, as compromised
	// enclave code linked against a pointer-trusting liburing would. The
	// kernel's own access then hits the SGX protection and EFAULTs.
	rawSub, err := ring.New(ring.Config{
		Space: w.kern.Space, Access: mem.RoleHost, Base: setup.SubBase,
		Size: 8, EntrySize: iouring.SQEBytes, Side: ring.Producer,
	})
	if err != nil {
		t.Fatal(err)
	}
	slot, err := rawSub.SlotBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	iouring.PutSQE(slot, iouring.SQE{
		Op: iouring.OpRead, FD: int32(fd), Addr: trustedAddr, Len: 6, UserData: 42,
	})
	rawSub.Submit(1, 0)
	var mmClk vtime.Clock
	w.sproc.IoUringEnter(setup.FD, &mmClk)

	rawCompl, err := ring.New(ring.Config{
		Space: w.kern.Space, Access: mem.RoleHost, Base: setup.ComplBase,
		Size: 8, EntrySize: iouring.CQEBytes, Side: ring.Consumer,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		avail, _ := rawCompl.Available()
		if avail > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no completion for bypassed SQE")
		}
		time.Sleep(time.Millisecond)
	}
	cslot, err := rawCompl.SlotBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	cqe := iouring.GetCQE(cslot)
	if cqe.UserData != 42 || cqe.Res != -14 { // EFAULT
		t.Fatalf("cqe = %+v, want UserData=42 Res=-14 (EFAULT)", cqe)
	}
}

func TestIoUringHostileCompletions(t *testing.T) {
	// The kernel forges completions: unknown tokens are refused; a
	// plausible-token-but-impossible-result completion yields -EPERM.
	w := newTestWorld(t)
	var clk vtime.Clock
	setup, _ := w.sproc.IoUringSetup(8, &clk)
	fm, err := iouring.Attach(iouring.Config{
		Space: w.kern.Space, Setup: setup, Entries: 8,
		Counters: &vtime.Counters{},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.kern.VFS().WriteFile("/f", bytes.Repeat([]byte("a"), 100))
	ffd, _ := w.sproc.Open("/f", ORdonly, &clk)
	bounce, _ := w.kern.Space.Alloc(mem.Untrusted, 4096, 64)

	// Submit a read of 10 bytes but have a hostile kernel complete it
	// with res=4096 (more than requested) and also inject a foreign CQE.
	tok, _ := fm.Submit(iouring.SQE{Op: iouring.OpRead, FD: int32(ffd), Addr: bounce, Len: 10}, &clk)

	// Hostile kernel: write CQEs directly instead of running the worker.
	uobj, _ := w.kern.lookupFD(setup.FD)
	u := uobj.(*uringKernel)
	u.stop() // silence the real worker
	time.Sleep(10 * time.Millisecond)

	cslot, _ := u.compl.SlotBytes(0)
	iouring.PutCQE(cslot, iouring.CQE{UserData: 9999, Res: 1}) // foreign token
	u.compl.Submit(1, 0)
	cslot, _ = u.compl.SlotBytes(0)
	iouring.PutCQE(cslot, iouring.CQE{UserData: tok, Res: 4096}) // impossible result
	u.compl.Submit(1, 0)

	if _, err := fm.Wait(tok, &clk); !errors.Is(err, iouring.EPERM) {
		t.Fatalf("hostile completion err = %v, want EPERM", err)
	}
}

// TestPollRemoveEndsTheArmedPoll: a poll_remove must end the kernel-side
// wait it names, not merely forget it — the armed poll completes
// -ECANCELED at once, leaves nothing registered, and posts nothing later
// (it used to keep re-polling the socket to its ten-second deadline and
// then complete 0 to nobody).
func TestPollRemoveEndsTheArmedPoll(t *testing.T) {
	w := newTestWorld(t)
	var clk vtime.Clock
	setup, err := w.sproc.IoUringSetup(8, &clk)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := iouring.Attach(iouring.Config{Space: w.kern.Space, Setup: setup, Entries: 8})
	if err != nil {
		t.Fatal(err)
	}
	uobj, _ := w.kern.lookupFD(setup.FD)
	u := uobj.(*uringKernel)
	armed := func() int {
		u.pollMu.Lock()
		defer u.pollMu.Unlock()
		return len(u.pollCancels)
	}
	// within spins until cond holds, failing the test after a second.
	within := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	fd, _ := w.sproc.Socket(SockUDP, &clk) // quiet: nothing ever arrives
	poll, err := fm.Submit(iouring.SQE{Op: iouring.OpPollAdd, FD: int32(fd), OpFlags: sys.PollIn}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	w.sproc.IoUringEnter(setup.FD, &clk)
	within("the poll to arm", func() bool { return armed() == 1 })

	rm, err := fm.Submit(iouring.SQE{Op: iouring.OpPollRemove, Off: poll}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	w.sproc.IoUringEnter(setup.FD, &clk)
	results := map[uint64]int32{}
	within("both completions", func() bool {
		for _, tok := range []uint64{poll, rm} {
			if res, done, _ := fm.TryWait(tok, &clk); done {
				results[tok] = res
			}
		}
		return len(results) == 2
	})
	if results[rm] != 0 || results[poll] != errnoECANCELED {
		t.Fatalf("poll_remove = %d, cancelled poll = %d, want 0 and %d", results[rm], results[poll], errnoECANCELED)
	}
	if n := armed(); n != 0 {
		t.Fatalf("%d polls still registered after the cancel", n)
	}
	time.Sleep(5 * time.Millisecond)
	if avail, _ := fm.Compl.Available(); avail != 0 {
		t.Fatalf("%d completions nobody asked for followed the cancel", avail)
	}
}
