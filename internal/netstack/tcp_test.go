package netstack

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"rakis/internal/vtime"
)

func TestTCPConnectAcceptEcho(t *testing.T) {
	w := newWorld(t, nil)
	l, err := w.b.TCPListen(6379, 8)
	if err != nil {
		t.Fatal(err)
	}

	serverErr := make(chan error, 1)
	go func() {
		var clk vtime.Clock
		c, err := l.Accept(&clk, true)
		if err != nil {
			serverErr <- err
			return
		}
		buf := make([]byte, 64)
		n, err := c.Recv(buf, &clk, true)
		if err != nil {
			serverErr <- err
			return
		}
		if _, err := c.Send(buf[:n], &clk); err != nil {
			serverErr <- err
			return
		}
		serverErr <- nil
	}()

	var clk vtime.Clock
	c, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 6379}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != "ESTABLISHED" {
		t.Fatalf("client state = %s", c.State())
	}
	if _, err := c.Send([]byte("PING"), &clk); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := c.Recv(buf, &clk, true)
	if err != nil || string(buf[:n]) != "PING" {
		t.Fatalf("echo = %q, %v", buf[:n], err)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	if clk.Now() == 0 {
		t.Fatal("client clock did not advance")
	}
}

func TestTCPLargeTransfer(t *testing.T) {
	w := newWorld(t, nil)
	l, _ := w.b.TCPListen(9000, 4)

	const total = 2 << 20 // 2 MiB: forces many windows
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i*31 + i>>11)
	}

	recvDone := make(chan []byte, 1)
	go func() {
		var clk vtime.Clock
		c, err := l.Accept(&clk, true)
		if err != nil {
			t.Errorf("accept: %v", err)
			recvDone <- nil
			return
		}
		var got []byte
		buf := make([]byte, 32768)
		for {
			n, err := c.Recv(buf, &clk, true)
			if err != nil {
				t.Errorf("recv: %v", err)
				break
			}
			if n == 0 {
				break // EOF
			}
			got = append(got, buf[:n]...)
		}
		recvDone <- got
	}()

	var clk vtime.Clock
	c, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 9000}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Send(want, &clk); err != nil || n != total {
		t.Fatalf("send = %d, %v", n, err)
	}
	c.Close(&clk)
	got := <-recvDone
	if !bytes.Equal(got, want) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", len(got), total)
	}
}

func TestTCPBidirectional(t *testing.T) {
	w := newWorld(t, nil)
	l, _ := w.b.TCPListen(9001, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var clk vtime.Clock
		c, err := l.Accept(&clk, true)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		// Server both reads and writes concurrently.
		var inner sync.WaitGroup
		inner.Add(2)
		go func() {
			defer inner.Done()
			var k vtime.Clock
			buf := make([]byte, 1024)
			total := 0
			for total < 100*1024 {
				n, err := c.Recv(buf, &k, true)
				if err != nil || n == 0 {
					t.Errorf("server recv: n=%d err=%v", n, err)
					return
				}
				total += n
			}
		}()
		go func() {
			defer inner.Done()
			var k vtime.Clock
			chunk := make([]byte, 4096)
			for i := 0; i < 25; i++ {
				if _, err := c.Send(chunk, &k); err != nil {
					t.Errorf("server send: %v", err)
					return
				}
			}
		}()
		inner.Wait()
	}()

	var clk vtime.Clock
	c, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 9001}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	var inner sync.WaitGroup
	inner.Add(2)
	go func() {
		defer inner.Done()
		var k vtime.Clock
		chunk := make([]byte, 4096)
		for i := 0; i < 25; i++ {
			if _, err := c.Send(chunk, &k); err != nil {
				t.Errorf("client send: %v", err)
				return
			}
		}
	}()
	go func() {
		defer inner.Done()
		var k vtime.Clock
		buf := make([]byte, 1024)
		total := 0
		for total < 100*1024 {
			n, err := c.Recv(buf, &k, true)
			if err != nil || n == 0 {
				t.Errorf("client recv: n=%d err=%v", n, err)
				return
			}
			total += n
		}
	}()
	inner.Wait()
	wg.Wait()
}

func TestTCPConnectRefused(t *testing.T) {
	w := newWorld(t, nil)
	var clk vtime.Clock
	_, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 81}, &clk)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("connect to closed port = %v, want ErrRefused", err)
	}
}

func TestTCPCloseEOF(t *testing.T) {
	w := newWorld(t, nil)
	l, _ := w.b.TCPListen(9002, 4)
	accepted := make(chan *TCPSocket, 1)
	go func() {
		var clk vtime.Clock
		c, err := l.Accept(&clk, true)
		if err == nil {
			accepted <- c
		}
	}()
	var clk vtime.Clock
	c, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 9002}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	c.Send([]byte("bye"), &clk)
	c.Close(&clk)

	var sclk vtime.Clock
	buf := make([]byte, 16)
	n, err := srv.Recv(buf, &sclk, true)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("final data = %q, %v", buf[:n], err)
	}
	// Next read is EOF.
	n, err = srv.Recv(buf, &sclk, true)
	if err != nil || n != 0 {
		t.Fatalf("EOF read = %d, %v; want 0, nil", n, err)
	}
	srv.Close(&sclk)
	// Client eventually reaches a terminal state; sends now fail.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Send([]byte("x"), &clk); err == nil {
		t.Fatal("send after close must fail")
	}
}

func TestTCPNonblockingRecv(t *testing.T) {
	w := newWorld(t, nil)
	l, _ := w.b.TCPListen(9003, 4)
	go func() {
		var clk vtime.Clock
		l.Accept(&clk, true)
	}()
	var clk vtime.Clock
	c, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 9003}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := c.Recv(buf, &clk, false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty nonblocking recv = %v, want ErrWouldBlock", err)
	}
	if c.Ready(PollIn) != 0 {
		t.Fatal("Readable on empty connection")
	}
	if c.Ready(PollOut) == 0 {
		t.Fatal("fresh connection must be writable")
	}
}

func TestTCPAcceptNonblocking(t *testing.T) {
	w := newWorld(t, nil)
	l, _ := w.b.TCPListen(9004, 4)
	var clk vtime.Clock
	if _, err := l.Accept(&clk, false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty accept = %v, want ErrWouldBlock", err)
	}
	if l.Ready(PollIn) != 0 {
		t.Fatal("listener with empty backlog must not be readable")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cclk vtime.Clock
		if _, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 9004}, &cclk); err != nil {
			t.Errorf("connect: %v", err)
		}
	}()
	<-done
	for deadline := time.Now().Add(time.Second); l.Ready(PollIn) == 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("listener must become readable after connect")
		}
	}
	if _, err := l.Accept(&clk, false); err != nil {
		t.Fatalf("accept after connect = %v", err)
	}
}

func TestTCPListenConflictAndClose(t *testing.T) {
	w := newWorld(t, nil)
	l, err := w.b.TCPListen(9005, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.b.TCPListen(9005, 4); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("dup listen = %v, want ErrPortInUse", err)
	}
	var clk vtime.Clock
	acceptErr := make(chan error, 1)
	go func() {
		_, err := l.Accept(&clk, true)
		acceptErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close(&clk)
	if err := <-acceptErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("accept on closed listener = %v, want ErrClosed", err)
	}
	// Port is free again.
	if _, err := w.b.TCPListen(9005, 4); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestTCPManyConnections(t *testing.T) {
	w := newWorld(t, nil)
	l, _ := w.b.TCPListen(9006, 64)
	const conns = 50 // the redis-benchmark parallelism
	go func() {
		var clk vtime.Clock
		for i := 0; i < conns; i++ {
			c, err := l.Accept(&clk, true)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			go func(c *TCPSocket) {
				var k vtime.Clock
				buf := make([]byte, 64)
				for {
					n, err := c.Recv(buf, &k, true)
					if err != nil || n == 0 {
						return
					}
					c.Send(buf[:n], &k)
				}
			}(c)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var clk vtime.Clock
			c, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 9006}, &clk)
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
			msg := []byte{byte(i), byte(i >> 8), 7, 7}
			for round := 0; round < 10; round++ {
				if _, err := c.Send(msg, &clk); err != nil {
					t.Errorf("conn %d send: %v", i, err)
					return
				}
				buf := make([]byte, 8)
				n, err := c.Recv(buf, &clk, true)
				if err != nil || !bytes.Equal(buf[:n], msg) {
					t.Errorf("conn %d echo: %q %v", i, buf[:n], err)
					return
				}
			}
			c.Close(&clk)
		}(i)
	}
	wg.Wait()
}

func TestTCPVirtualTimeAccumulates(t *testing.T) {
	// A request/response exchange accumulates client virtual time: each
	// round trip includes wire + kernel segments in both directions.
	w := newWorld(t, nil)
	l, _ := w.b.TCPListen(9007, 4)
	go func() {
		var clk vtime.Clock
		c, err := l.Accept(&clk, true)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		for {
			n, err := c.Recv(buf, &clk, true)
			if err != nil || n == 0 {
				return
			}
			c.Send(buf[:n], &clk)
		}
	}()
	var clk vtime.Clock
	c, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 9007}, &clk)
	if err != nil {
		t.Fatal(err)
	}
	after1 := uint64(0)
	buf := make([]byte, 8)
	for i := 0; i < 100; i++ {
		c.Send([]byte("req"), &clk)
		if _, err := c.Recv(buf, &clk, true); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			after1 = clk.Now()
		}
	}
	if clk.Now() < after1*50 {
		t.Fatalf("100 RTTs = %d cycles, first = %d; time must accumulate per round trip",
			clk.Now(), after1)
	}
}
