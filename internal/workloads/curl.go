package workloads

import (
	"fmt"
	"sync/atomic"
	"time"

	"rakis/internal/sys"
)

// The Curl experiment (§6.1) downloads files over QUIC: UDP datagrams
// carrying a reliable stream. This is a deliberately small QUIC-like
// protocol ("sQUIC") with connection-less requests, sequenced 1200-byte
// data packets, cumulative ACKs every ackEvery packets, and a 64-packet
// flow-control window — enough to reproduce the experiment's shape: the
// *client* (curl) runs in the environment under test, the web server
// runs natively, and the measured quantity is total download time.
const (
	quicDataBytes = 1200
	quicWindow    = 64
	quicAckEvery  = 16
	quicHdrBytes  = 8
	quicFlagEOF   = 1
)

// CurlParams configures one download.
type CurlParams struct {
	// Path is the file served from the native host's VFS via the server
	// callback below.
	Path string
	// Port is the server port (default 4433).
	Port uint16
}

// CurlResult is one measurement.
type CurlResult struct {
	// Bytes downloaded.
	Bytes uint64
	// Cycles of virtual time on the curl thread, request to EOF.
	Cycles uint64
	// Seconds is the download duration, Figure 4(b)'s unit.
	Seconds float64
}

// QuicFileServer runs the native web server: it answers each "REQ path"
// datagram by streaming the file contents (fetched through the provided
// reader) with sQUIC flow control. It returns when stop is closed.
func QuicFileServer(cli sys.Sys, port uint16, readFile func(string) ([]byte, error), stop <-chan struct{}) error {
	fd, err := cli.Socket(sys.UDP)
	if err != nil {
		return err
	}
	if err := cli.Bind(fd, port); err != nil {
		return err
	}
	defer cli.Close(fd)
	buf := make([]byte, 2048)
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		n, src, ok := pollRecv(cli, fd, buf, 50*time.Millisecond)
		if !ok {
			continue
		}
		if n < 4 || string(buf[:4]) != "REQ " {
			continue
		}
		data, err := readFile(string(buf[4:n]))
		if err != nil {
			continue
		}
		streamFile(cli, fd, src, data)
	}
}

// streamFile pushes one file to a client with windowed delivery.
func streamFile(t sys.Sys, fd int, dst sys.Addr, data []byte) {
	total := (len(data) + quicDataBytes - 1) / quicDataBytes
	pkt := make([]byte, quicHdrBytes+quicDataBytes)
	acked := 0
	next := 0
	ackBuf := make([]byte, 64)
	deadline := time.Now().Add(30 * time.Second)
	for acked < total+1 { // +1 for the EOF packet
		for next < total+1 && next-acked < quicWindow {
			t.Clock().Advance(QuicServerPacePerPacket)
			if next < total {
				off := next * quicDataBytes
				end := off + quicDataBytes
				if end > len(data) {
					end = len(data)
				}
				putU32(pkt[0:4], uint32(next))
				putU32(pkt[4:8], 0)
				copy(pkt[quicHdrBytes:], data[off:end])
				t.SendTo(fd, pkt[:quicHdrBytes+end-off], dst)
			} else {
				putU32(pkt[0:4], uint32(next))
				putU32(pkt[4:8], quicFlagEOF)
				t.SendTo(fd, pkt[:quicHdrBytes], dst)
			}
			next++
		}
		n, _, ok := pollRecv(t, fd, ackBuf, 2*time.Second)
		if !ok || time.Now().After(deadline) {
			return // client went away
		}
		if n >= 4 {
			a := int(getU32(ackBuf[0:4]))
			if a > acked {
				acked = a
			}
		}
	}
}

// Curl downloads Path from the native sQUIC server, running the client
// inside the environment under test, and reports the download duration.
// The established stream has no loss recovery (§6.1 runs it on a lossless
// wire), so once it makes no progress for curlStallTimeout the download
// is abandoned: Curl returns an error instead of blocking for ever.
func Curl(env Env, p CurlParams, readFile func(string) ([]byte, error)) (CurlResult, error) {
	if p.Port == 0 {
		p.Port = 4433
	}
	stop := make(chan struct{})
	defer close(stop)
	go QuicFileServer(env.ClientThread(), p.Port, readFile, stop)

	curl, err := env.ServerThread()
	if err != nil {
		return CurlResult{}, err
	}
	// The download owns the curl thread; this goroutine only watches its
	// progress, because a thread is not safe to touch while it is blocked
	// in a receive. An abandoned download stays parked there until the
	// world closes its socket, as a failed UDPEcho's server does.
	var (
		got  atomic.Uint64
		res  CurlResult
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		res, err = curlDownload(env, curl, p, &got)
	}()
	tick := time.NewTicker(curlStallTimeout)
	defer tick.Stop()
	for last := uint64(0); ; {
		select {
		case <-done:
			return res, err
		case <-tick.C:
			g := got.Load()
			if g > 0 && g == last { // the handshake (g == 0) bounds itself
				return CurlResult{}, fmt.Errorf("curl: stream stalled at %d bytes", g)
			}
			last = g
		}
	}
}

// curlDownload is the client proper: request, receive to EOF, ACK. got
// publishes the bytes received so far.
func curlDownload(env Env, curl sys.Sys, p CurlParams, got *atomic.Uint64) (CurlResult, error) {
	fd, err := curl.Socket(sys.UDP)
	if err != nil {
		return CurlResult{}, err
	}
	defer curl.Close(fd)

	// The server address here is the *native* side: curl runs in the
	// environment and reaches out.
	dst := sys.Addr{IP: env.ClientIP, Port: p.Port}
	sp := startSpan(curl.Clock())
	if _, err := curl.SendTo(fd, []byte("REQ "+p.Path), dst); err != nil {
		return CurlResult{}, err
	}

	nextSeq := 0
	retries := 0
	buf := make([]byte, 4096)
	ack := make([]byte, 4)
	for {
		var n int
		var src sys.Addr
		if got.Load() == 0 {
			// The handshake phase polls so the request can be
			// retransmitted, like a QUIC Initial, until the server is up.
			var ok bool
			n, src, ok = pollRecv(curl, fd, buf, 2*time.Second)
			if !ok {
				if retries < 5 {
					retries++
					if _, err := curl.SendTo(fd, []byte("REQ "+p.Path), dst); err != nil {
						return CurlResult{}, err
					}
					continue
				}
				return CurlResult{}, fmt.Errorf("curl: stream stalled at %d bytes", got.Load())
			}
		} else {
			// Established stream on a lossless wire: blocking receive,
			// terminated by the EOF packet.
			var err error
			n, src, err = curl.RecvFrom(fd, buf, true)
			if err != nil {
				return CurlResult{}, err
			}
		}
		if n < quicHdrBytes {
			continue
		}
		seq := int(getU32(buf[0:4]))
		flags := getU32(buf[4:8])
		curl.Clock().Advance(QuicPerPacketCycles)
		consumed := false
		if seq == nextSeq { // the wire is in-order and lossless
			nextSeq++
			got.Add(uint64(n - quicHdrBytes))
			consumed = true
		}
		if flags&quicFlagEOF != 0 || nextSeq%quicAckEvery == 0 {
			putU32(ack, uint32(nextSeq))
			curl.SendTo(fd, ack, src)
		}
		if flags&quicFlagEOF != 0 && consumed {
			break
		}
	}
	cycles := sp.cycles()
	return CurlResult{
		Bytes:   got.Load(),
		Cycles:  cycles,
		Seconds: env.Model.Seconds(cycles),
	}, nil
}
