package hostos

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"rakis/internal/mem"
	"rakis/internal/netsim"
	"rakis/internal/netstack"
	"rakis/internal/sys"
	"rakis/internal/vtime"
)

type testWorld struct {
	kern   *Kernel
	client *NetNS
	server *NetNS
	cproc  *Proc
	sproc  *Proc
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	m := vtime.Default()
	space := mem.NewSpace(1<<24, 1<<26)
	kern := NewKernel(space, m)
	cd, sd := netsim.NewPair(m,
		netsim.Config{Name: "veth0", MAC: [6]byte{2, 0, 0, 0, 0, 1}, Queues: 4},
		netsim.Config{Name: "veth1", MAC: [6]byte{2, 0, 0, 0, 0, 2}, Queues: 4},
	)
	client, err := kern.AddNetNS("client", cd, netstack.IP4{10, 0, 0, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	server, err := kern.AddNetNS("server", sd, netstack.IP4{10, 0, 0, 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(kern.Close)
	return &testWorld{
		kern:   kern,
		client: client,
		server: server,
		cproc:  kern.NewProc(client, &vtime.Counters{}),
		sproc:  kern.NewProc(server, &vtime.Counters{}),
	}
}

func TestVFSBasics(t *testing.T) {
	v := NewVFS()
	v.WriteFile("/data/a.txt", []byte("hello"))
	got, err := v.ReadFile("/data/a.txt")
	if err != nil || string(got) != "hello" {
		t.Fatalf("%q %v", got, err)
	}
	if _, err := v.Lookup("/missing"); !errors.Is(err, ErrNoEnt) {
		t.Fatal("missing file must be ErrNoEnt")
	}
	ino := v.Create("/data/a.txt") // create truncates
	if ino.Size() != 0 {
		t.Fatal("Create must truncate")
	}
	ino.WriteAt([]byte("xyz"), 5)
	if ino.Size() != 8 {
		t.Fatalf("sparse write size = %d, want 8", ino.Size())
	}
	buf := make([]byte, 8)
	if n := ino.ReadAt(buf, 0); n != 8 || !bytes.Equal(buf[:5], make([]byte, 5)) {
		t.Fatalf("sparse read = %d %q", n, buf)
	}
	ino.Truncate(2)
	if ino.Size() != 2 {
		t.Fatal("truncate failed")
	}
	if err := v.Unlink("/data/a.txt"); err != nil {
		t.Fatal(err)
	}
	if err := v.Unlink("/data/a.txt"); !errors.Is(err, ErrNoEnt) {
		t.Fatal("double unlink must fail")
	}
	if len(v.List()) != 0 {
		t.Fatal("List after unlink")
	}
}

func TestFileSyscalls(t *testing.T) {
	w := newTestWorld(t)
	var clk vtime.Clock
	fd, err := w.sproc.Open("/tmp/f", OCreate|ORdwr, &clk)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := w.sproc.Write(fd, []byte("0123456789"), &clk); n != 10 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if off, err := w.sproc.Lseek(fd, 2, 0, &clk); off != 2 || err != nil {
		t.Fatalf("lseek = %d, %v", off, err)
	}
	buf := make([]byte, 4)
	if n, err := w.sproc.Read(fd, buf, &clk); n != 4 || string(buf) != "2345" || err != nil {
		t.Fatalf("read = %d %q %v", n, buf, err)
	}
	if n, err := w.sproc.Pread(fd, buf, 6, &clk); n != 4 || string(buf) != "6789" || err != nil {
		t.Fatalf("pread = %d %q %v", n, buf, err)
	}
	if n, err := w.sproc.Pwrite(fd, []byte("XX"), 0, &clk); n != 2 || err != nil {
		t.Fatalf("pwrite = %d %v", n, err)
	}
	if size, err := w.sproc.Fstat(fd, &clk); size != 10 || err != nil {
		t.Fatalf("fstat = %d %v", size, err)
	}
	if err := w.sproc.Fsync(fd, &clk); err != nil {
		t.Fatal(err)
	}
	if err := w.sproc.Close(fd, &clk); err != nil {
		t.Fatal(err)
	}
	if _, err := w.sproc.Read(fd, buf, &clk); !errors.Is(err, ErrBadFD) {
		t.Fatal("read after close must be ErrBadFD")
	}
	data, _ := w.kern.VFS().ReadFile("/tmp/f")
	if string(data) != "XX23456789" {
		t.Fatalf("final contents %q", data)
	}
	if clk.Now() == 0 {
		t.Fatal("syscalls must cost virtual time")
	}
	if w.sproc.Counters.Syscalls.Load() == 0 {
		t.Fatal("syscall counter must advance")
	}
}

func TestUDPSyscallsAcrossNamespaces(t *testing.T) {
	w := newTestWorld(t)
	var cclk, sclk vtime.Clock

	sfd, err := w.sproc.Socket(SockUDP, &sclk)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.sproc.Bind(sfd, 7777, &sclk); err != nil {
		t.Fatal(err)
	}
	cfd, err := w.cproc.Socket(SockUDP, &cclk)
	if err != nil {
		t.Fatal(err)
	}
	dst := netstack.Addr{IP: netstack.IP4{10, 0, 0, 2}, Port: 7777}
	if _, err := w.cproc.SendTo(cfd, []byte("ping"), dst, &cclk); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, src, err := w.sproc.RecvFrom(sfd, buf, &sclk, true)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("recvfrom = %q %v", buf[:n], err)
	}
	if src.IP != (netstack.IP4{10, 0, 0, 1}) {
		t.Fatalf("src = %v", src)
	}
	// Reply via connect/send.
	if err := w.sproc.Connect(sfd, src, &sclk); err != nil {
		t.Fatal(err)
	}
	if _, err := w.sproc.Send(sfd, []byte("pong"), &sclk); err != nil {
		t.Fatal(err)
	}
	n, err = w.cproc.Recv(cfd, buf, &cclk, true)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("recv = %q %v", buf[:n], err)
	}
}

func TestTCPSyscallsAcrossNamespaces(t *testing.T) {
	w := newTestWorld(t)
	var sclk vtime.Clock
	lfd, err := w.sproc.Socket(SockTCP, &sclk)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.sproc.Bind(lfd, 6379, &sclk); err != nil {
		t.Fatal(err)
	}
	if err := w.sproc.Listen(lfd, 16, &sclk); err != nil {
		t.Fatal(err)
	}
	go func() {
		var clk vtime.Clock
		cfd, _, err := w.sproc.Accept(lfd, &clk, true)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, err := w.sproc.Recv(cfd, buf, &clk, true)
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		w.sproc.Send(cfd, bytes.ToUpper(buf[:n]), &clk)
	}()

	var cclk vtime.Clock
	cfd, err := w.cproc.Socket(SockTCP, &cclk)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cproc.Connect(cfd, netstack.Addr{IP: netstack.IP4{10, 0, 0, 2}, Port: 6379}, &cclk); err != nil {
		t.Fatal(err)
	}
	if _, err := w.cproc.Send(cfd, []byte("hello"), &cclk); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := w.cproc.Recv(cfd, buf, &cclk, true)
	if err != nil || string(buf[:n]) != "HELLO" {
		t.Fatalf("reply = %q %v", buf[:n], err)
	}
	if err := w.cproc.Close(cfd, &cclk); err != nil {
		t.Fatal(err)
	}
}

func TestPollSyscall(t *testing.T) {
	w := newTestWorld(t)
	var clk vtime.Clock
	ufd, _ := w.sproc.Socket(SockUDP, &clk)
	w.sproc.Bind(ufd, 8888, &clk)
	ffd, _ := w.sproc.Open("/f", OCreate|ORdwr, &clk)

	fds := []sys.PollFD{
		{FD: ufd, Events: sys.PollIn},
		{FD: ffd, Events: sys.PollIn | sys.PollOut},
	}
	n, err := w.sproc.Poll(fds, 0, &clk)
	if err != nil || n != 1 {
		t.Fatalf("poll = %d, %v; want file ready only", n, err)
	}
	if fds[0].Revents != 0 || fds[1].Revents == 0 {
		t.Fatalf("revents = %v / %v", fds[0].Revents, fds[1].Revents)
	}

	// Make the socket readable and poll again with a wait.
	go func() {
		var cclk vtime.Clock
		cfd, _ := w.cproc.Socket(SockUDP, &cclk)
		time.Sleep(5 * time.Millisecond)
		w.cproc.SendTo(cfd, []byte("x"), netstack.Addr{IP: netstack.IP4{10, 0, 0, 2}, Port: 8888}, &cclk)
	}()
	n, err = w.sproc.Poll([]sys.PollFD{{FD: ufd, Events: sys.PollIn}}, time.Second, &clk)
	if err != nil || n != 1 {
		t.Fatalf("blocking poll = %d, %v", n, err)
	}

	// Bad fd reports sys.PollErr.
	n, _ = w.sproc.Poll([]sys.PollFD{{FD: 999, Events: sys.PollIn}}, 0, &clk)
	if n != 1 {
		t.Fatal("bad fd must report an event")
	}
}

func TestFreeProcCostsNothing(t *testing.T) {
	w := newTestWorld(t)
	w.cproc.Free = true
	var clk vtime.Clock
	fd, _ := w.cproc.Open("/x", OCreate|ORdwr, &clk)
	w.cproc.Write(fd, make([]byte, 4096), &clk)
	if clk.Now() != 0 {
		t.Fatalf("free proc clock = %d, want 0", clk.Now())
	}
	// Counter still ticks: the work happened, it just costs nothing.
	if w.cproc.Counters.Syscalls.Load() == 0 {
		t.Fatal("syscalls still counted for free procs")
	}
}

func TestSyscallErrnoPaths(t *testing.T) {
	w := newTestWorld(t)
	var clk vtime.Clock
	if _, err := w.sproc.Read(42, nil, &clk); !errors.Is(err, ErrBadFD) {
		t.Fatal("read bad fd")
	}
	ufd, _ := w.sproc.Socket(SockUDP, &clk)
	if _, err := w.sproc.Read(ufd, nil, &clk); !errors.Is(err, ErrNotFile) {
		t.Fatal("read on socket must be ErrNotFile")
	}
	ffd, _ := w.sproc.Open("/f", OCreate, &clk)
	if _, err := w.sproc.Send(ffd, nil, &clk); !errors.Is(err, ErrNotSocket) {
		t.Fatal("send on file must be ErrNotSocket")
	}
	if _, err := w.sproc.Open("/nope", ORdonly, &clk); !errors.Is(err, ErrNoEnt) {
		t.Fatal("open missing must be ErrNoEnt")
	}
	if _, _, err := w.sproc.Accept(ufd, &clk, false); !errors.Is(err, ErrNotSocket) {
		t.Fatal("accept on udp must fail")
	}
	if err := w.sproc.Close(12345, &clk); !errors.Is(err, ErrBadFD) {
		t.Fatal("close bad fd")
	}
}

func TestXDPHookVerdicts(t *testing.T) {
	w := newTestWorld(t)
	// Attach a dropping XDP program on the server for UDP port 9999 and
	// verify the kernel stack no longer sees those datagrams.
	w.server.AttachXDP(func(frame []byte) Verdict {
		_, ipPayload, err := netstack.ParseEth(frame)
		if err != nil {
			return VerdictPass
		}
		h, l4, err := netstack.ParseIPv4(ipPayload)
		if err != nil || h.Proto != netstack.ProtoUDP || len(l4) < 4 {
			return VerdictPass
		}
		dport := uint16(l4[2])<<8 | uint16(l4[3])
		if dport == 9999 {
			return VerdictDrop
		}
		return VerdictPass
	})
	var sclk, cclk vtime.Clock
	drop, _ := w.sproc.Socket(SockUDP, &sclk)
	w.sproc.Bind(drop, 9999, &sclk)
	pass, _ := w.sproc.Socket(SockUDP, &sclk)
	w.sproc.Bind(pass, 9998, &sclk)

	cfd, _ := w.cproc.Socket(SockUDP, &cclk)
	w.cproc.SendTo(cfd, []byte("drop me"), netstack.Addr{IP: netstack.IP4{10, 0, 0, 2}, Port: 9999}, &cclk)
	w.cproc.SendTo(cfd, []byte("pass me"), netstack.Addr{IP: netstack.IP4{10, 0, 0, 2}, Port: 9998}, &cclk)

	buf := make([]byte, 64)
	n, _, err := w.sproc.RecvFrom(pass, buf, &sclk, true)
	if err != nil || string(buf[:n]) != "pass me" {
		t.Fatalf("pass socket = %q %v", buf[:n], err)
	}
	if _, _, err := w.sproc.RecvFrom(drop, buf, &sclk, false); !errors.Is(err, netstack.ErrWouldBlock) {
		t.Fatal("dropped datagram must never arrive")
	}
}
