package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rakis/internal/experiments"
	"rakis/internal/netstack"
	"rakis/internal/sys"
)

// A workload boots one world shape and starts its server threads and
// flows. Every workload runs a RAKIS environment and a closed loop.
type workload struct {
	name string
	opt  experiments.Options
	// procs is the GOMAXPROCS the workload runs under, fixed so a run
	// schedules the same way on any box. The network workloads get 2,
	// the core count they were sized on. file_rw_4k is one synchronous
	// thread handing each op to the MM and the kernel worker in turn: on
	// 2 Ps it measures futex wake-ups between Ps (18 % of its profile,
	// 42-67k ops/s run to run); on 1 P each hand-off is a goroutine
	// switch, and what is left is the io_uring path itself (155-160k
	// ops/s, within 2 %).
	procs int
	// warmOps is the warm-up length, all flows together. The first
	// ~200k ops of a process run 10-18 % slower than steady state, so
	// the warm-up is long enough to leave that behind and is billed to
	// setup_s.
	warmOps uint64
	start   func(w *experiments.World, rng *rand.Rand, traced bool) (*instance, error)
}

// instance is one started workload.
type instance struct {
	flows []flow
	// spans are the benchmark-side API spans, one per server thread.
	spans []*apiSpans
	// stop retires the server threads and waits for them.
	stop func() error
	// verify is the end-of-run output check beyond per-reply checks.
	verify func() error
}

// workloads lists the four in BENCHMARK.json order.
var workloads = []workload{
	{
		name:    "udp_echo_64",
		procs:   2,
		opt:     benchWorld(experiments.RakisSGX, 1),
		warmOps: 250_000,
		start: func(w *experiments.World, rng *rand.Rand, traced bool) (*instance, error) {
			return startUDP(w, rng, traced, udpShape{payload: 64, shards: 1, threads: 1, vector: 1})
		},
	},
	{
		name:    "udp_batch_1400",
		procs:   2,
		opt:     benchWorld(experiments.RakisSGX, 2),
		warmOps: 150_000,
		start: func(w *experiments.World, rng *rand.Rand, traced bool) (*instance, error) {
			return startUDP(w, rng, traced, udpShape{payload: 1400, shards: 2, threads: 2, vector: 32})
		},
	},
	{
		name:    "tcp_rr_256",
		procs:   2,
		opt:     benchWorld(experiments.RakisSGXXskTCP, 1),
		warmOps: 120_000,
		start:   startTCP,
	},
	{
		name:    "file_rw_4k",
		procs:   1,
		opt:     benchWorld(experiments.RakisSGX, 1),
		warmOps: 150_000,
		start:   startFile,
	},
}

// benchWorld is the world every workload boots. The simulated address
// space is cut from the default 16 MiB + 256 MiB to what the runtime
// uses (16 MiB of UMem per XSK, rings, bounce buffers). The space is one
// Go allocation, so its size sets the Go heap's GC goal: at the default,
// a GC cycle walks ~1 GB of fresh pages, first-touch page faults (slow
// and erratic in a microVM) land inside the timed window, and
// mem_peak_mb measures the simulator's slab, not the system.
func benchWorld(env experiments.Environment, xsks int) experiments.Options {
	return experiments.Options{Env: env, NumXSKs: xsks, TrustedBytes: 4 << 20, UntrustedBytes: 24<<20 + xsks*(20<<20)}
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

const (
	udpPort    = 7
	tcpPort    = 7007
	udpFlows   = 2
	udpWindow  = 64
	tcpConns   = 2
	tcpWindow  = 32
	tcpReqSize = 256
	fileBlock  = 4 << 10
	fileSize   = 8 << 20
	filePath   = "/bench/file_rw_4k.dat"

	// pillID in the flow-id field tells a server thread to exit. Flow
	// ids are tiny, so no request can carry it.
	pillID = 0xFFFF
)

func isPill(p []byte) bool {
	return len(p) >= 2 && binary.BigEndian.Uint16(p) == pillID
}

func pill(size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint16(p, pillID)
	return p
}

// pinPort finds a client source port, searching up from a seeded start,
// that no flow has taken and whose flow hashes to the wanted shard — the
// same netstack.RXShard the NIC steering, the enclave demux and the
// flow-affine TX lanes compute.
func pinPort(rng *rand.Rand, dst sys.Addr, shard, shards int, taken map[uint16]bool) (uint16, error) {
	start := 21000 + rng.Intn(20000)
	for p := start; p < 60000; p++ {
		port := uint16(p)
		if !taken[port] && netstack.RXShard(experiments.ClientIP, dst.IP, port, dst.Port, shards) == shard {
			taken[port] = true
			return port, nil
		}
	}
	return 0, fmt.Errorf("no free client port from %d hashes to shard %d/%d", start, shard, shards)
}

// udpShape is what differs between the two UDP workloads.
type udpShape struct {
	payload int
	shards  int
	threads int // server threads sharing the socket
	vector  int // messages per RecvFromN/SendToN; 1 selects RecvFrom/SendTo
}

func startUDP(w *experiments.World, rng *rand.Rand, traced bool, s udpShape) (*instance, error) {
	first, err := w.ServerThread()
	if err != nil {
		return nil, err
	}
	sfd, err := first.Socket(sys.UDP)
	if err != nil {
		return nil, err
	}
	if err := first.Bind(sfd, udpPort); err != nil {
		return nil, err
	}
	inst := &instance{}
	var wg sync.WaitGroup
	errs := make(chan error, s.threads)
	for i := 0; i < s.threads; i++ {
		t := first
		if i > 0 {
			t = first.Clone()
		}
		sp := &apiSpans{on: traced}
		inst.spans = append(inst.spans, sp)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.vector > 1 {
				errs <- udpVectorServer(t, sfd, s.vector, s.payload, sp)
			} else {
				errs <- udpScalarServer(t, sfd, s.payload, sp)
			}
		}()
	}

	dst := sys.Addr{IP: w.ServerIP, Port: udpPort}
	taken := make(map[uint16]bool)
	for i := 0; i < udpFlows; i++ {
		port, err := pinPort(rng, dst, i%s.shards, s.shards, taken)
		if err != nil {
			return nil, err
		}
		f, err := newUDPFlow(w.ClientThread(), uint16(i), port, dst, s.payload, udpWindow, s.threads == 1, rng)
		if err != nil {
			return nil, err
		}
		f.tal.sample = traced
		inst.flows = append(inst.flows, f)
	}

	inst.stop = func() error {
		// One pill retires one thread; every thread can pop every shard
		// queue, so pills from one port still reach them all. Resend
		// until the threads are gone: a pill can be eaten by a thread
		// that was already leaving.
		killer := w.ClientThread()
		kfd, err := killer.Socket(sys.UDP)
		if err != nil {
			return err
		}
		gone := make(chan struct{})
		go func() { wg.Wait(); close(gone) }()
		deadline := time.Now().Add(opTimeout)
		for {
			if _, err := killer.SendTo(kfd, pill(hdrLen), dst); err != nil {
				return err
			}
			select {
			case <-gone:
				close(errs)
				for err := range errs {
					if err != nil {
						return err
					}
				}
				return nil
			case <-time.After(5 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				return errors.New("udp server threads did not exit")
			}
		}
	}
	return inst, nil
}

// udpScalarServer echoes one datagram per RecvFrom/SendTo pair. It tries
// a non-blocking receive first and blocks only when the queue is empty,
// so a traced run can tell time spent receiving from time spent idle.
func udpScalarServer(t sys.Sys, fd, payload int, sp *apiSpans) error {
	buf := make([]byte, payload+64)
	for {
		t0 := sp.begin()
		n, src, err := t.RecvFrom(fd, buf, false)
		sp.end(spanRecv, t0)
		if err != nil {
			t0 = sp.begin()
			n, src, err = t.RecvFrom(fd, buf, true)
			sp.end(spanWait, t0)
			if err != nil {
				return fmt.Errorf("server recvfrom: %w", err)
			}
		}
		if isPill(buf[:n]) {
			return nil
		}
		t0 = sp.begin()
		_, err = t.SendTo(fd, buf[:n], src)
		sp.end(spanSend, t0)
		if err != nil {
			return fmt.Errorf("server sendto: %w", err)
		}
	}
}

// udpVectorServer echoes up to width datagrams per RecvFromN/SendToN
// pair, the shape of a recvmmsg/sendmmsg server.
func udpVectorServer(t sys.Sys, fd, width, payload int, sp *apiSpans) error {
	in := make([]sys.Mmsg, width)
	out := make([]sys.Mmsg, width)
	for i := range in {
		in[i].Buf = make([]byte, payload+64)
	}
	for {
		t0 := sp.begin()
		got, err := t.RecvFromN(fd, in, false)
		sp.end(spanRecv, t0)
		if err != nil || got == 0 {
			t0 = sp.begin()
			got, err = t.RecvFromN(fd, in, true)
			sp.end(spanWait, t0)
			if err != nil {
				return fmt.Errorf("server recvfromn: %w", err)
			}
		}
		n := 0
		exit := false
		for i := 0; i < got; i++ {
			if isPill(in[i].Buf[:in[i].N]) {
				exit = true
				continue
			}
			out[n] = sys.Mmsg{Buf: in[i].Buf[:in[i].N], Addr: in[i].Addr}
			n++
		}
		for sent := 0; sent < n; {
			t0 = sp.begin()
			k, err := t.SendToN(fd, out[sent:n])
			sp.end(spanSend, t0)
			if err != nil {
				return fmt.Errorf("server sendton: %w", err)
			}
			sent += k
		}
		if exit {
			return nil
		}
	}
}

func startTCP(w *experiments.World, rng *rand.Rand, traced bool) (*instance, error) {
	srv, err := w.ServerThread()
	if err != nil {
		return nil, err
	}
	lfd, err := srv.Socket(sys.TCP)
	if err != nil {
		return nil, err
	}
	if err := srv.Bind(lfd, tcpPort); err != nil {
		return nil, err
	}
	if err := srv.Listen(lfd, 16); err != nil {
		return nil, err
	}
	sp := &apiSpans{on: traced}
	inst := &instance{spans: []*apiSpans{sp}}
	done := make(chan error, 1)
	go func() { done <- tcpServer(srv, lfd, sp) }()

	dst := sys.Addr{IP: w.ServerIP, Port: tcpPort}
	for i := 0; i < tcpConns; i++ {
		f, err := newTCPFlow(w.ClientThread(), uint16(i), dst, tcpReqSize, tcpWindow, rng)
		if err != nil {
			return nil, err
		}
		f.tal.sample = traced
		inst.flows = append(inst.flows, f)
	}
	inst.stop = func() error {
		killer := w.ClientThread()
		kfd, err := killer.Socket(sys.TCP)
		if err != nil {
			return err
		}
		if err := killer.Connect(kfd, dst); err != nil {
			return err
		}
		if err := sendFull(killer, kfd, pill(tcpReqSize)); err != nil {
			return err
		}
		select {
		case err := <-done:
			return err
		case <-time.After(opTimeout):
			return errors.New("tcp server thread did not exit")
		}
	}
	return inst, nil
}

// tcpServer is a single-threaded epoll loop: accept, read whatever a
// ready connection holds, and answer each complete request with its own
// bytes in one Send.
func tcpServer(t sys.Sys, lfd int, sp *apiSpans) error {
	epfd, err := t.EpollCreate()
	if err != nil {
		return err
	}
	if err := t.EpollCtl(epfd, sys.EpollCtlAdd, lfd, sys.PollIn); err != nil {
		return err
	}
	pending := make(map[int][]byte) // per connection: bytes of an incomplete request
	evs := make([]sys.EpollEvent, 16)
	rd := make([]byte, 64<<10)
	for {
		t0 := sp.begin()
		n, err := t.EpollWait(epfd, evs, time.Second)
		sp.end(spanWait, t0)
		if err != nil {
			return fmt.Errorf("server epoll_wait: %w", err)
		}
		for _, ev := range evs[:n] {
			if ev.FD == lfd {
				t0 = sp.begin()
				cfd, _, err := t.Accept(lfd, false)
				sp.end(spanRecv, t0)
				if err != nil {
					continue
				}
				if err := t.EpollCtl(epfd, sys.EpollCtlAdd, cfd, sys.PollIn); err != nil {
					return err
				}
				pending[cfd] = nil
				continue
			}
			t0 = sp.begin()
			got, err := t.Recv(ev.FD, rd, false)
			if err != nil {
				sp.end(spanRecv, t0)
				continue
			}
			if got == 0 { // the peer closed
				sp.end(spanRecv, t0)
				if err := t.EpollCtl(epfd, sys.EpollCtlDel, ev.FD, 0); err != nil {
					return err
				}
				if err := t.Close(ev.FD); err != nil {
					return err
				}
				delete(pending, ev.FD)
				continue
			}
			data := rd[:got]
			if rest := pending[ev.FD]; len(rest) > 0 {
				data = append(rest, data...)
			}
			sp.end(spanRecv, t0)
			for len(data) >= tcpReqSize {
				req := data[:tcpReqSize]
				data = data[tcpReqSize:]
				if isPill(req) {
					return nil
				}
				t0 = sp.begin()
				err := sendFull(t, ev.FD, req)
				sp.end(spanSend, t0)
				if err != nil {
					return fmt.Errorf("server send: %w", err)
				}
			}
			pending[ev.FD] = append(pending[ev.FD][:0], data...)
		}
	}
}

func startFile(w *experiments.World, rng *rand.Rand, traced bool) (*instance, error) {
	// Pre-size the file: appending would measure the simulated inode
	// regrowing the whole file on every write, not the io_uring path.
	shadow := make([]byte, fileSize)
	rng.Read(shadow)
	w.VFS().WriteFile(filePath, bytes.Clone(shadow))

	t, err := w.ServerThread()
	if err != nil {
		return nil, err
	}
	f, err := newFileFlow(t, filePath, shadow, fileBlock, rng)
	if err != nil {
		return nil, err
	}
	f.tal.sample = traced
	f.sp = &apiSpans{on: traced}
	return &instance{
		flows: []flow{f},
		spans: []*apiSpans{f.sp},
		stop: func() error {
			if err := t.Fsync(f.fd); err != nil {
				return err
			}
			return t.Close(f.fd)
		},
		verify: func() error {
			got, err := w.VFS().ReadFile(filePath)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, shadow) {
				return errors.New("file contents differ from the shadow copy")
			}
			return nil
		},
	}, nil
}
