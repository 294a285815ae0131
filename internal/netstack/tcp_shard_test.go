package netstack

// The -race TCP shard suite: TCP connections demuxing through their
// RSS home shards, as the UDP battery's datagrams do, but with connection
// lifecycle on top — concurrent accept/close/rebind across shard widths
// 1..64, cross-shard port collisions, retransmit-timer vs. close races
// over a lossy wire, and the hostile-scribble certification test. The
// race detector is the oracle for the churn tests; the invariants
// asserted here are the ones the detector cannot see: home-shard
// affinity, byte-exact streams, and deterministic refusal of scribbled
// frames.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rakis/internal/netsim"
	"rakis/internal/vtime"
)

// tcpShardWorld wires a 1-shard client stack to a width-sharded server
// stack (enclave configuration: SYN cookies on) across a netsim pair
// whose RSS function is the demux hash — the same steering contract
// installRSS gives the XSK queues, so a flow's frames always enter the
// stack through its home shard.
type tcpShardWorld struct {
	client, server *Stack
	serverIP       IP4
}

func newTCPShardWorld(t testing.TB, width int, dropEvery int64) *tcpShardWorld {
	t.Helper()
	m := vtime.Default()
	da, db := netsim.NewPair(m,
		netsim.Config{Name: "tca", MAC: [6]byte{2, 0, 0, 0, 3, 1}},
		netsim.Config{Name: "tcb", MAC: [6]byte{2, 0, 0, 0, 3, 2}, Queues: width},
	)
	clientIP, serverIP := IP4{10, 3, 0, 1}, IP4{10, 3, 0, 2}
	var dev LinkDevice = devLink{da}
	if dropEvery > 0 {
		dev = &periodicLossLink{devLink: devLink{da}, every: dropEvery}
	}
	sa, err := New(Config{Name: "tc-client", Dev: dev, IP: clientIP, Model: m, EnableTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := New(Config{Name: "tc-server", Dev: devLink{db}, IP: serverIP, Model: m,
		EnableTCP: true, TCPCookies: true, Shards: width})
	if err != nil {
		t.Fatal(err)
	}
	// RSS = the demux hash over the parsed 4-tuple, exactly as installRSS
	// steers the XSK queues.
	db.SetRSS(func(data []byte, queues int) int {
		if len(data) < EthHeaderBytes+IPv4HeaderBytes+4 {
			return 0
		}
		ihl := int(data[EthHeaderBytes]&0x0F) * 4
		if data[EthHeaderBytes+9] != ProtoTCP || len(data) < EthHeaderBytes+ihl+4 {
			return 0
		}
		var src, dst IP4
		copy(src[:], data[EthHeaderBytes+12:EthHeaderBytes+16])
		copy(dst[:], data[EthHeaderBytes+16:EthHeaderBytes+20])
		sport := be16(data[EthHeaderBytes+ihl : EthHeaderBytes+ihl+2])
		dport := be16(data[EthHeaderBytes+ihl+2 : EthHeaderBytes+ihl+4])
		return RXShard(src, dst, sport, dport, queues)
	})
	da.Start(func(q int, f netsim.Frame, clk *vtime.Clock) { sa.Input(f.Data, clk) })
	db.Start(func(q int, f netsim.Frame, clk *vtime.Clock) { sb.InputShard(f.Data, clk, q) })
	t.Cleanup(func() { sa.Close(); sb.Close(); da.Close(); db.Close() })
	return &tcpShardWorld{client: sa, server: sb, serverIP: serverIP}
}

// periodicLossLink drops every Nth outbound frame — steady loss, so the
// RTO engine stays busy for the whole test instead of healing once.
type periodicLossLink struct {
	devLink
	every   int64
	counter atomic.Int64
}

func (l *periodicLossLink) SendFrame(data []byte, clk *vtime.Clock) (uint64, error) {
	if l.counter.Add(1)%l.every == 0 {
		return clk.Now(), nil
	}
	return l.devLink.SendFrame(data, clk)
}

// TestTCPShardWidths runs concurrent echo connections at every width
// 1..64 and checks the home-shard invariant: the shard a connection is
// published on equals the RSS queue its frames arrive through, so the
// handshake, data, ACKs, and close of one flow all stay on one shard.
func TestTCPShardWidths(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8, 16, 32, 64} {
		width := width
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			t.Parallel()
			const conns = 8
			w := newTCPShardWorld(t, width, 0)
			l, err := w.server.TCPListen(7000, conns)
			if err != nil {
				t.Fatal(err)
			}
			// Server: accept and echo until the listener closes.
			var swg sync.WaitGroup
			swg.Add(1)
			go func() {
				defer swg.Done()
				var clk vtime.Clock
				var ewg sync.WaitGroup
				defer ewg.Wait()
				for {
					c, err := l.Accept(&clk, true)
					if err != nil {
						return
					}
					want := RXShard(c.RemoteAddr().IP, w.serverIP,
						c.RemoteAddr().Port, c.LocalAddr().Port, width)
					if c.Shard() != want {
						t.Errorf("conn %v published on shard %d, home shard %d",
							c.RemoteAddr(), c.Shard(), want)
					}
					ewg.Add(1)
					go func(c *TCPSocket) {
						defer ewg.Done()
						var eclk vtime.Clock
						buf := make([]byte, 2048)
						for {
							n, err := c.Recv(buf, &eclk, true)
							if err != nil || n == 0 {
								c.Close(&eclk)
								return
							}
							if _, err := c.Send(buf[:n], &eclk); err != nil {
								return
							}
						}
					}(c)
				}
			}()
			var cwg sync.WaitGroup
			for i := 0; i < conns; i++ {
				cwg.Add(1)
				go func(i int) {
					defer cwg.Done()
					var clk vtime.Clock
					c, err := w.client.TCPConnect(Addr{w.serverIP, 7000}, &clk)
					if err != nil {
						t.Errorf("conn %d: %v", i, err)
						return
					}
					msg := bytes.Repeat([]byte{byte(i)}, 1500+37*i)
					if _, err := c.Send(msg, &clk); err != nil {
						t.Errorf("conn %d send: %v", i, err)
						return
					}
					got := make([]byte, 0, len(msg))
					buf := make([]byte, 2048)
					for len(got) < len(msg) {
						n, err := c.Recv(buf, &clk, true)
						if err != nil || n == 0 {
							t.Errorf("conn %d recv: n=%d err=%v", i, n, err)
							return
						}
						got = append(got, buf[:n]...)
					}
					if !bytes.Equal(got, msg) {
						t.Errorf("conn %d: echo differs", i)
					}
					c.Close(&clk)
				}(i)
			}
			cwg.Wait()
			l.Close(nil)
			swg.Wait()
		})
	}
}

// TestTCPShardPortCollision pins global port ownership across shards: a
// port can be listened on exactly once, under concurrent contention
// exactly one listen wins, and every shard finds the winner.
func TestTCPShardPortCollision(t *testing.T) {
	w := newTCPShardWorld(t, 8, 0)
	l, err := w.server.TCPListen(7100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.server.TCPListen(7100, 4); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("second listen = %v, want ErrPortInUse", err)
	}
	l.Close(nil)

	const contenders = 16
	var wins atomic.Int32
	var wg sync.WaitGroup
	winners := make(chan *TCPSocket, contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lw, err := w.server.TCPListen(7101, 4); err == nil {
				wins.Add(1)
				winners <- lw
			} else if !errors.Is(err, ErrPortInUse) {
				t.Errorf("listen: %v", err)
			}
		}()
	}
	wg.Wait()
	close(winners)
	if wins.Load() != 1 {
		t.Fatalf("%d concurrent listens won port 7101, want exactly 1", wins.Load())
	}
	// The surviving listener is reachable through every shard: a connect
	// (whose SYN lands on the flow's RSS queue) must succeed repeatedly,
	// with different ephemeral ports steering to different shards.
	lw := <-winners
	go func() {
		var clk vtime.Clock
		for {
			if _, err := lw.Accept(&clk, true); err != nil {
				return
			}
		}
	}()
	var clk vtime.Clock
	for i := 0; i < 8; i++ {
		c, err := w.client.TCPConnect(Addr{w.serverIP, 7101}, &clk)
		if err != nil {
			t.Fatalf("connect %d across shards: %v", i, err)
		}
		c.Close(&clk)
	}
	lw.Close(nil)
}

// TestTCPDuplicateCookieACKsMintOneConnection: eight copies of one valid
// cookie ACK arrive at once, one on each shard of a width-8 stack — the
// home shard's own and seven a hostile host delivered on the wrong queue.
// The connection lives only in its home shard's map, where the duplicate
// check and the insert are one critical section: exactly one copy mints
// state, and a reset through the home shard leaves nothing behind.
func TestTCPDuplicateCookieACKsMintOneConnection(t *testing.T) {
	const width = 8
	s, err := New(Config{Name: "dup-ack", Dev: nullLink{}, IP: IP4{10, 3, 0, 2},
		EnableTCP: true, TCPCookies: true, Shards: width})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	l, err := s.TCPListen(7400, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := connKey{IP4{10, 3, 0, 1}, 45000, 7400}
	mac := [6]byte{2, 0, 0, 0, 3, 1}
	ack := tcpSeg{srcPort: key.remotePort, dstPort: key.localPort, seq: 0x7001,
		ack: s.tcp.cookieISS(key) + 1, flags: TCPFlagACK, wnd: rcvBufCap}
	var wg sync.WaitGroup
	for sh := 0; sh < width; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			var clk vtime.Clock
			s.tcp.inputSeg(key.remoteIP, ack, &clk, sh, &mac)
		}(sh)
	}
	wg.Wait()
	if st := s.TCPStats(); st.Conns != 1 {
		t.Fatalf("after 8 duplicate cookie ACKs: %+v, want exactly one connection", st)
	}
	var clk vtime.Clock
	c, err := l.Accept(&clk, false)
	if err != nil {
		t.Fatalf("no connection to accept: %v", err)
	}
	if c2, err := l.Accept(&clk, false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("a second connection was queued for one 4-tuple: %v, %v", c2, err)
	}
	if home := s.tcp.homeShard(key); c.Shard() != home || s.tcp.shards[home].conns[key] != c {
		t.Fatalf("connection on shard %d, home shard %d", c.Shard(), home)
	}
	// An established-flow segment finds the connection, and costs the
	// demux no heap object.
	if n := testing.AllocsPerRun(100, func() {
		s.tcp.inputSeg(key.remoteIP, ack, &clk, c.Shard(), &mac)
	}); n != 0 && !raceDetectorEnabled {
		t.Fatalf("inputSeg on an established connection allocates %v objects, want 0", n)
	}
	rst := tcpSeg{srcPort: key.remotePort, dstPort: key.localPort, seq: 0x7001, flags: TCPFlagRST}
	s.tcp.inputSeg(key.remoteIP, rst, &clk, c.Shard(), &mac)
	if st := s.TCPStats(); st.Conns != 0 || c.State() != "CLOSED" {
		t.Fatalf("after the reset: %+v, state %s, want no connection", st, c.State())
	}
}

// TestTCPShardAcceptCloseRebindRace churns listeners while clients
// connect: each port is repeatedly listened, accepted from, closed, and
// rebound while connects race against the lifecycle from the other
// stack. Connects may be refused (the port is down between rounds) but
// must never hang past their timeout, and the stack must survive under
// the race detector.
func TestTCPShardAcceptCloseRebindRace(t *testing.T) {
	const (
		width  = 16
		ports  = 3
		rounds = 6
	)
	w := newTCPShardWorld(t, width, 0)
	var cwg sync.WaitGroup
	stop := make(chan struct{})
	// Clients: hammer every churned port with connects; refusals and
	// timeouts are expected outcomes, hangs and races are not.
	for p := 0; p < ports; p++ {
		cwg.Add(1)
		go func(p int) {
			defer cwg.Done()
			var clk vtime.Clock
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c, err := w.client.TCPConnect(Addr{w.serverIP, uint16(7200 + p)}, &clk); err == nil {
					c.Send([]byte("ping"), &clk)
					c.Close(&clk)
				}
			}
		}(p)
	}
	var lwg sync.WaitGroup
	for p := 0; p < ports; p++ {
		lwg.Add(1)
		go func(p int) {
			defer lwg.Done()
			var clk vtime.Clock
			for r := 0; r < rounds; r++ {
				l, err := w.server.TCPListen(uint16(7200+p), 2)
				if err != nil {
					t.Errorf("port %d round %d: %v", 7200+p, r, err)
					return
				}
				deadline := time.Now().Add(50 * time.Millisecond)
				for time.Now().Before(deadline) {
					c, err := l.Accept(&clk, false)
					if errors.Is(err, ErrWouldBlock) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						break
					}
					c.Close(&clk)
				}
				l.Close(&clk)
			}
		}(p)
	}
	lwg.Wait()
	close(stop)
	cwg.Wait()
}

// TestTCPShardRetransmitCloseRace keeps the RTO engine busy (a steadily
// lossy wire arms and fires retransmit timers throughout) while the
// application closes connections from another goroutine — the
// timer-wheel service path and teardown race the detector watches.
// Streams that complete before close must be byte-exact.
func TestTCPShardRetransmitCloseRace(t *testing.T) {
	const (
		width = 8
		conns = 6
	)
	w := newTCPShardWorld(t, width, 9) // drop every 9th frame
	l, err := w.server.TCPListen(7300, conns)
	if err != nil {
		t.Fatal(err)
	}
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		var clk vtime.Clock
		var ewg sync.WaitGroup
		defer ewg.Wait()
		for {
			c, err := l.Accept(&clk, true)
			if err != nil {
				return
			}
			ewg.Add(1)
			go func(c *TCPSocket) {
				defer ewg.Done()
				var eclk vtime.Clock
				buf := make([]byte, 4096)
				var total int
				for {
					n, err := c.Recv(buf, &eclk, true)
					if err != nil || n == 0 {
						break
					}
					total += n
				}
				c.Close(&eclk)
			}(c)
		}
	}()
	var cwg sync.WaitGroup
	for i := 0; i < conns; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			var clk vtime.Clock
			c, err := w.client.TCPConnect(Addr{w.serverIP, 7300}, &clk)
			if err != nil {
				return // SYN/SYN|ACK losses can exhaust the handshake; fine
			}
			payload := bytes.Repeat([]byte{byte(i + 1)}, 30000)
			done := make(chan struct{})
			go func() {
				defer close(done)
				c.Send(payload, &clk)
			}()
			// Half the connections close mid-stream — racing teardown
			// against in-flight retransmit timers.
			if i%2 == 0 {
				time.Sleep(time.Duration(5+i) * time.Millisecond)
				var cclk vtime.Clock
				c.Close(&cclk)
			}
			<-done
			if i%2 != 0 {
				var cclk vtime.Clock
				c.Close(&cclk)
			}
		}(i)
	}
	cwg.Wait()
	l.Close(nil)
	swg.Wait()
}

// TestTCPViewScribbleRefusal is the certification pin for the TCP view
// path: a host that rewrites a queued segment after the enclave
// certified it gets a deterministic refusal — the single trusted-copy
// checksum no longer verifies, the frame returns to the pool, and the
// stream never sees a corrupt byte. The unmodified retransmission of the
// same segment is then delivered exactly once.
func TestTCPViewScribbleRefusal(t *testing.T) {
	h, l := fuzzTCPWorld(t)
	var clk vtime.Clock

	// Handshake, playing the client by hand: SYN in, cookie SYN|ACK out.
	syn := tcpSeg{srcPort: 45000, dstPort: fuzzTCPPort, seq: 0x7000, flags: TCPFlagSYN, wnd: rcvBufCap}
	v, _ := h.mintView(t, buildTCPFrame(peerIP, harnessIP, syn))
	h.stack.InputView(v, &clk)
	h.link.mu.Lock()
	if len(h.link.frames) != 1 {
		h.link.mu.Unlock()
		t.Fatalf("SYN answered with %d frames, want 1 cookie SYN|ACK", len(h.link.frames))
	}
	synack := h.link.frames[0]
	h.link.frames = h.link.frames[:0]
	h.link.mu.Unlock()
	seg, ok := parseTCP(synack[EthHeaderBytes+IPv4HeaderBytes:])
	if !ok || seg.flags&(TCPFlagSYN|TCPFlagACK) != TCPFlagSYN|TCPFlagACK {
		t.Fatalf("reply is not a SYN|ACK: flags=%02x", seg.flags)
	}
	// Third segment: ACK the cookie; the connection is minted now.
	ack := tcpSeg{srcPort: 45000, dstPort: fuzzTCPPort, seq: 0x7001, ack: seg.seq + 1,
		flags: TCPFlagACK, wnd: rcvBufCap}
	v, _ = h.mintView(t, buildTCPFrame(peerIP, harnessIP, ack))
	h.stack.InputView(v, &clk)
	c, err := l.Accept(&clk, false)
	if err != nil {
		t.Fatalf("cookie ACK minted no connection: %v", err)
	}

	// A data segment, certified — then scribbled by the host before the
	// parse. The frozen header's checksum no longer covers the rewritten
	// payload: deterministic refusal.
	data := tcpSeg{srcPort: 45000, dstPort: fuzzTCPPort, seq: 0x7001, ack: seg.seq + 1,
		flags: TCPFlagACK | TCPFlagPSH, wnd: rcvBufCap, payload: []byte("SET k honest-value")}
	frame := buildTCPFrame(peerIP, harnessIP, data)
	v, idx := h.mintView(t, frame)
	h.scribble(t, idx, EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes, []byte("SET k EVIL"))
	h.stack.InputView(v, &clk)
	buf := make([]byte, 64)
	if n, err := c.Recv(buf, &clk, false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("scribbled segment reached the stream: n=%d err=%v buf=%q", n, err, buf[:n])
	}
	if free := h.u.FreeFrames(); free != int(h.u.FrameCount()) {
		t.Fatalf("refused frame not released: free=%d want %d", free, h.u.FrameCount())
	}

	// The honest retransmission of the same segment delivers exactly the
	// original bytes — the drop was a refusal, not a corruption.
	v, _ = h.mintView(t, buildTCPFrame(peerIP, harnessIP, data))
	h.stack.InputView(v, &clk)
	n, err := c.Recv(buf, &clk, false)
	if err != nil {
		t.Fatalf("honest retransmission not delivered: %v", err)
	}
	if got := string(buf[:n]); got != "SET k honest-value" {
		t.Fatalf("stream corrupted: %q", got)
	}
	if free := h.u.FreeFrames(); free != int(h.u.FrameCount()) {
		t.Fatalf("delivered frame not released: free=%d want %d", free, h.u.FrameCount())
	}
}
