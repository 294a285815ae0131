package workloads

import (
	"fmt"
	"time"

	"rakis/internal/sys"
)

// EchoParams configures one UDP echo run: the client offers Count
// datagrams in windows of Batch, and the server echoes each window back
// using the vectored RecvFromN/SendToN calls when Batch > 1, or the
// scalar RecvFrom/SendTo pair when Batch == 1. Everything else about the
// two modes is identical, which makes this the workload under both the
// batched-vs-scalar figure and the differential tests.
type EchoParams struct {
	// PacketSize is the UDP payload size in bytes.
	PacketSize int
	// Count is the total number of datagrams to echo.
	Count int
	// Batch is the vector width; <= 1 selects the scalar path.
	Batch int
	// Port is the server port (default 7, the echo service).
	Port uint16
}

// EchoResult is one measurement.
type EchoResult struct {
	// Echoed is how many datagrams made the full round trip.
	Echoed int
	// Cycles is the server's virtual busy span over the run.
	Cycles uint64
	// Payloads, when Record was set, holds every echoed payload in
	// arrival order at the client — the byte stream the differential
	// tests compare.
	Payloads [][]byte
}

// echoTimeout bounds each real-time wait so a lost datagram fails the
// run instead of hanging it.
const echoTimeout = 5 * time.Second

// curlStallTimeout is how long Curl's established stream may go without
// a new in-order byte before the download is abandoned. It is longer than
// streamFile's 2 s ACK wait, so the client never gives up on a stream the
// server has not; a stall is reported within twice this.
const curlStallTimeout = 3 * time.Second

// UDPEcho runs an echo server in the environment under test and drives
// it with a windowed native client: the client sends one window of Batch
// datagrams, waits for all of them to come back, then sends the next —
// so the server always has a full window queued for its vectored recv
// and the wire never drops for lack of buffers. When record is true the
// client's received payloads are returned in order.
func UDPEcho(env Env, p EchoParams, record bool) (EchoResult, error) {
	if p.Port == 0 {
		p.Port = 7
	}
	if p.PacketSize <= 0 {
		p.PacketSize = 256
	}
	if p.Count <= 0 {
		p.Count = 256
	}
	if p.Batch <= 0 {
		p.Batch = 1
	}
	srv, err := env.ServerThread()
	if err != nil {
		return EchoResult{}, err
	}
	sfd, err := srv.Socket(sys.UDP)
	if err != nil {
		return EchoResult{}, err
	}
	if err := srv.Bind(sfd, p.Port); err != nil {
		return EchoResult{}, err
	}

	srvErr := make(chan error, 1)
	go func() { srvErr <- echoServer(srv, sfd, p) }()

	res := EchoResult{}
	cli := env.ClientThread()
	cfd, err := cli.Socket(sys.UDP)
	if err != nil {
		return res, err
	}
	dst := sys.Addr{IP: env.ServerIP, Port: p.Port}
	buf := make([]byte, p.PacketSize+64)
	seq := uint32(0)
	for sent := 0; sent < p.Count; {
		w := p.Batch
		if rem := p.Count - sent; w > rem {
			w = rem
		}
		for i := 0; i < w; i++ {
			payload := make([]byte, p.PacketSize)
			putU32(payload, seq)
			seq++
			if _, err := cli.SendTo(cfd, payload, dst); err != nil {
				return res, err
			}
		}
		sent += w
		for i := 0; i < w; i++ {
			n, _, ok := pollRecv(cli, cfd, buf, echoTimeout)
			if !ok {
				return res, fmt.Errorf("udpecho: echo %d/%d never returned", res.Echoed+1, p.Count)
			}
			if record {
				res.Payloads = append(res.Payloads, append([]byte(nil), buf[:n]...))
			}
			res.Echoed++
		}
	}
	if err := <-srvErr; err != nil {
		return res, err
	}
	res.Cycles = srv.Clock().Now()
	return res, nil
}

// echoServer echoes Count datagrams back to their senders, vectored when
// the window is wider than one.
func echoServer(srv sys.Sys, sfd int, p EchoParams) error {
	if p.Batch <= 1 {
		buf := make([]byte, p.PacketSize+64)
		for done := 0; done < p.Count; done++ {
			n, src, err := srv.RecvFrom(sfd, buf, true)
			if err != nil {
				return err
			}
			if _, err := srv.SendTo(sfd, buf[:n], src); err != nil {
				return err
			}
		}
		return nil
	}
	msgs := make([]sys.Mmsg, p.Batch)
	for i := range msgs {
		msgs[i].Buf = make([]byte, p.PacketSize+64)
	}
	for done := 0; done < p.Count; {
		got, err := srv.RecvFromN(sfd, msgs, true)
		if err != nil {
			return err
		}
		out := make([]sys.Mmsg, got)
		for i := 0; i < got; i++ {
			out[i] = sys.Mmsg{Buf: msgs[i].Buf[:msgs[i].N], Addr: msgs[i].Addr}
		}
		sent := 0
		for sent < got {
			n, err := srv.SendToN(sfd, out[sent:])
			if err != nil {
				return err
			}
			sent += n
		}
		done += got
	}
	return nil
}
