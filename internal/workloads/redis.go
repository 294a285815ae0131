package workloads

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"rakis/internal/sys"
	"rakis/internal/vtime"
)

// Redis is a TCP in-memory store in the style of the §6.2 experiment: a
// single-threaded event-loop server multiplexing connections with the
// select/poll syscall (the paper compiled Redis with select because
// RAKIS lacks epoll), benchmarked per command (PING, SET, GET) by a
// redis-benchmark-style client with 50 parallel connections.
//
// Protocol (inline commands, like real Redis accepts):
//
//	PING\r\n            -> +PONG\r\n
//	SET key value\r\n   -> +OK\r\n
//	GET key\r\n         -> $<len>\r\n<value>\r\n  or  $-1\r\n
//	SHUTDOWN\r\n        -> server exits

// RedisParams configures one run.
type RedisParams struct {
	// Command is PING, SET, or GET.
	Command string
	// Ops is the total request count.
	Ops int
	// Connections is the parallel client count (50 in §6.2).
	Connections int
	// ValueBytes is the SET/GET payload size (redis-benchmark default 3;
	// use something visible).
	ValueBytes int
	// Port is the server port (default 6379).
	Port uint16
	// UseEpoll selects the epoll event loop instead of poll/select —
	// the extension the paper's prototype lacked (§6.2).
	UseEpoll bool
}

func (p *RedisParams) fill() {
	if p.Command == "" {
		p.Command = "PING"
	}
	if p.Ops <= 0 {
		p.Ops = 2000
	}
	if p.Connections <= 0 {
		p.Connections = 50
	}
	if p.ValueBytes <= 0 {
		p.ValueBytes = 64
	}
	if p.Port == 0 {
		p.Port = 6379
	}
}

// RedisResult is one measurement.
type RedisResult struct {
	Ops       int
	Cycles    uint64
	OpsPerSec float64
}

// redisConn is one client connection's server-side state.
type redisConn struct {
	fd  int
	buf []byte
}

// redisServer runs the event loop until SHUTDOWN, multiplexing over the
// listener and every live connection with poll (the paper's select) or,
// with useEpoll, the epoll variant the paper could not run (§6.2: "RAKIS
// does not currently support epoll").
func redisServer(t sys.Sys, port uint16, ready chan<- struct{}, useEpoll bool) error {
	lfd, err := t.Socket(sys.TCP)
	if err != nil {
		return err
	}
	if err := t.Bind(lfd, port); err != nil {
		return err
	}
	if err := t.Listen(lfd, 128); err != nil {
		return err
	}
	var epfd int
	if useEpoll {
		epfd, err = t.EpollCreate()
		if err != nil {
			return err
		}
		if err := t.EpollCtl(epfd, sys.EpollCtlAdd, lfd, sys.PollIn); err != nil {
			return err
		}
	}
	if ready != nil {
		close(ready)
	}
	store := make(map[string][]byte)
	conns := make(map[int]*redisConn)
	// fail tears the server down on an event-loop error: every live
	// connection gets a close (so blocked clients see EOF rather than
	// hanging on a reply that will never come) before the error surfaces.
	fail := func(err error) error {
		for fd := range conns {
			t.Close(fd)
		}
		t.Close(lfd)
		if useEpoll {
			t.Close(epfd)
		}
		return err
	}
	rbuf := make([]byte, 65536)
	evs := make([]sys.EpollEvent, 128)
	// The event loop normally exits via SHUTDOWN; the wall-clock cap only
	// matters under fault injection, where the host may deny service
	// indefinitely and the run must still terminate.
	giveUp := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(giveUp) {
			return fail(fmt.Errorf("redis server: no shutdown within 60s"))
		}
		var fds []sys.PollFD
		if useEpoll {
			n, err := t.EpollWait(epfd, evs, time.Second)
			if err != nil {
				return fail(err)
			}
			fds = fds[:0]
			for i := 0; i < n; i++ {
				fds = append(fds, sys.PollFD{FD: evs[i].FD, Revents: evs[i].Events})
			}
		} else {
			fds = make([]sys.PollFD, 0, len(conns)+1)
			fds = append(fds, sys.PollFD{FD: lfd, Events: sys.PollIn})
			for fd := range conns {
				fds = append(fds, sys.PollFD{FD: fd, Events: sys.PollIn})
			}
			if _, err := t.Poll(fds, time.Second); err != nil {
				return fail(err)
			}
		}
		for _, pf := range fds {
			if pf.Revents == 0 {
				continue
			}
			if pf.FD == lfd {
				nfd, _, err := t.Accept(lfd, false)
				if err == nil {
					conns[nfd] = &redisConn{fd: nfd}
					if useEpoll {
						t.EpollCtl(epfd, sys.EpollCtlAdd, nfd, sys.PollIn)
					}
				}
				continue
			}
			c := conns[pf.FD]
			if c == nil {
				continue
			}
			n, err := t.Recv(c.fd, rbuf, false)
			if err != nil || n == 0 {
				if err == nil && n == 0 { // EOF
					if useEpoll {
						t.EpollCtl(epfd, sys.EpollCtlDel, c.fd, 0)
					}
					t.Close(c.fd)
					delete(conns, c.fd)
				}
				continue
			}
			c.buf = append(c.buf, rbuf[:n]...)
			for {
				nl := bytes.Index(c.buf, []byte("\r\n"))
				if nl < 0 {
					break
				}
				line := c.buf[:nl]
				c.buf = c.buf[nl+2:]
				t.Clock().Advance(RedisOpCycles)
				reply, shutdown := redisExec(store, line)
				if shutdown {
					t.Close(c.fd)
					t.Close(lfd)
					if useEpoll {
						t.Close(epfd)
					}
					return nil
				}
				if _, err := t.Send(c.fd, reply); err != nil {
					t.Close(c.fd)
					delete(conns, c.fd)
					break
				}
			}
		}
	}
}

// redisExec applies one command to the store.
func redisExec(store map[string][]byte, line []byte) (reply []byte, shutdown bool) {
	parts := bytes.SplitN(line, []byte(" "), 3)
	switch {
	case bytes.EqualFold(parts[0], []byte("PING")):
		return []byte("+PONG\r\n"), false
	case bytes.EqualFold(parts[0], []byte("SET")) && len(parts) == 3:
		v := make([]byte, len(parts[2]))
		copy(v, parts[2])
		store[string(parts[1])] = v
		return []byte("+OK\r\n"), false
	case bytes.EqualFold(parts[0], []byte("GET")) && len(parts) >= 2:
		v, ok := store[string(parts[1])]
		if !ok {
			return []byte("$-1\r\n"), false
		}
		return []byte(fmt.Sprintf("$%d\r\n%s\r\n", len(v), v)), false
	case bytes.EqualFold(parts[0], []byte("SHUTDOWN")):
		return nil, true
	default:
		return []byte("-ERR unknown command\r\n"), false
	}
}

// redisClientTimeout bounds one reply wait: under fault injection the
// server may be denied service entirely, and the benchmark client must
// report that rather than block forever on a reply that never comes.
const redisClientTimeout = 10 * time.Second

// redisReadReply reads one complete reply from the stream, giving up
// after redisClientTimeout.
func redisReadReply(t sys.Sys, fd int, buf *[]byte, scratch []byte) error {
	deadline := time.Now().Add(redisClientTimeout)
	for {
		if complete, rest := redisReplyComplete(*buf); complete {
			*buf = rest
			return nil
		}
		n, err := t.Recv(fd, scratch, false)
		if err == nil {
			if n == 0 {
				return fmt.Errorf("redis: connection closed mid-reply")
			}
			*buf = append(*buf, scratch[:n]...)
			continue
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("redis: no reply within %v", redisClientTimeout)
		}
		if remain > 50*time.Millisecond {
			remain = 50 * time.Millisecond
		}
		t.Poll([]sys.PollFD{{FD: fd, Events: sys.PollIn}}, remain)
	}
}

// redisReplyComplete reports whether buf starts with one full reply and
// returns the remainder.
func redisReplyComplete(buf []byte) (bool, []byte) {
	if len(buf) == 0 {
		return false, buf
	}
	nl := bytes.Index(buf, []byte("\r\n"))
	if nl < 0 {
		return false, buf
	}
	switch buf[0] {
	case '+', '-':
		return true, buf[nl+2:]
	case '$':
		var n int
		fmt.Sscanf(string(buf[1:nl]), "%d", &n)
		if n < 0 {
			return true, buf[nl+2:]
		}
		need := nl + 2 + n + 2
		if len(buf) >= need {
			return true, buf[need:]
		}
		return false, buf
	default:
		return true, buf[nl+2:]
	}
}

// Redis runs the full experiment for one command type and reports
// client-observed throughput.
func Redis(env Env, p RedisParams) (RedisResult, error) {
	p.fill()
	srv, err := env.ServerThread()
	if err != nil {
		return RedisResult{}, err
	}
	ready := make(chan struct{})
	serverErr := make(chan error, 1)
	go func() { serverErr <- redisServer(srv, p.Port, ready, p.UseEpoll) }()
	<-ready

	dst := sys.Addr{IP: env.TCPServerIP(), Port: p.Port}
	value := bytes.Repeat([]byte("v"), p.ValueBytes)
	opsPerConn := p.Ops / p.Connections
	if opsPerConn == 0 {
		opsPerConn = 1
	}

	var wg sync.WaitGroup
	clocks := make([]*vtime.Clock, p.Connections)
	errs := make(chan error, p.Connections)
	for ci := 0; ci < p.Connections; ci++ {
		cli := env.ClientThread()
		clocks[ci] = cli.Clock()
		wg.Add(1)
		go func(ci int, cli sys.Sys) {
			defer wg.Done()
			fd, err := cli.Socket(sys.TCP)
			if err != nil {
				errs <- err
				return
			}
			if err := cli.Connect(fd, dst); err != nil {
				errs <- fmt.Errorf("redis conn %d: %w", ci, err)
				return
			}
			var cmd []byte
			key := fmt.Sprintf("key:%04d", ci)
			switch p.Command {
			case "SET":
				cmd = []byte(fmt.Sprintf("SET %s %s\r\n", key, value))
			case "GET":
				cmd = []byte(fmt.Sprintf("GET %s\r\n", key))
			default:
				cmd = []byte("PING\r\n")
			}
			if p.Command == "GET" {
				// Seed the key so GETs hit.
				seed := []byte(fmt.Sprintf("SET %s %s\r\n", key, value))
				cli.Send(fd, seed)
				var rb []byte
				if err := redisReadReply(cli, fd, &rb, make([]byte, 4096)); err != nil {
					errs <- err
					return
				}
			}
			var rb []byte
			scratch := make([]byte, 8192)
			for op := 0; op < opsPerConn; op++ {
				if _, err := cli.Send(fd, cmd); err != nil {
					errs <- fmt.Errorf("redis conn %d send: %w", ci, err)
					return
				}
				if err := redisReadReply(cli, fd, &rb, scratch); err != nil {
					errs <- fmt.Errorf("redis conn %d reply: %w", ci, err)
					return
				}
			}
			cli.Close(fd)
		}(ci, cli)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return RedisResult{}, err
	default:
	}

	// Shut the server down.
	stopper := env.ClientThread()
	sfd, _ := stopper.Socket(sys.TCP)
	if err := stopper.Connect(sfd, dst); err == nil {
		stopper.Send(sfd, []byte("SHUTDOWN\r\n"))
	}
	if err := <-serverErr; err != nil {
		return RedisResult{}, fmt.Errorf("redis server: %w", err)
	}

	var makespan uint64
	for _, c := range clocks {
		if c.Now() > makespan {
			makespan = c.Now()
		}
	}
	ops := opsPerConn * p.Connections
	return RedisResult{
		Ops:       ops,
		Cycles:    makespan,
		OpsPerSec: float64(ops) / env.Model.Seconds(makespan),
	}, nil
}
