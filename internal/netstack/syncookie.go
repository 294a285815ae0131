package netstack

// Stateless SYN cookies for the enclave listen path.
//
// A hostile internet peer can spray SYNs at 10^5/s with spoofed source
// addresses; a stateful listener would mint a SYN_RCVD socket (and an
// ARP-cache entry, and a timer) for each one, growing enclave memory
// without bound. The cookie listen path holds *zero* per-SYN state: the
// listener answers every SYN with a SYN|ACK whose initial sequence
// number is a keyed hash of the flow's 4-tuple and a coarse time epoch.
// Only when the third handshake segment arrives — an ACK whose
// acknowledgment number round-trips that exact cookie — does the stack
// allocate a connection. Everything an attacker can send without
// completing the round trip is answered from stack memory alone.
//
// Cookie layout (32 bits of ISS):
//
//	bits 31..30  epoch & 3       — which 64 s window minted the cookie
//	bits 29..0   keyed hash      — FNV-1a over (secret, 4-tuple, epoch)
//
// Validation accepts the current epoch and the previous one, giving a
// client between 64 and 128 seconds to complete the handshake. MSS is
// not encoded: both ends of the simulation use the fixed 1460-byte MSS,
// so the usual 3-bit MSS table would carry no information.
//
// The epoch advances with host real time (time.Now), matching the RTO
// engine's pacing domain: virtual clocks only advance when threads do
// work, so a virtual-time epoch would never expire cookies on an idle
// stack.

import (
	"time"

	"rakis/internal/vtime"
)

const (
	// cookieEpochShift makes one epoch 2^6 = 64 seconds.
	cookieEpochShift = 6
	cookieHashBits   = 30
	cookieHashMask   = 1<<cookieHashBits - 1
)

func cookieEpoch() uint32 { return uint32(time.Now().Unix() >> cookieEpochShift) }

// cookieHash is FNV-1a over the secret, the flow 4-tuple, and the epoch,
// truncated to the cookie's hash field.
func (t *tcpTable) cookieHash(key connKey, epoch uint32) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xFF
			h *= prime32
			v >>= 8
		}
	}
	mix(t.cookieSecret[0])
	mix(uint32(key.remoteIP[0])<<24 | uint32(key.remoteIP[1])<<16 |
		uint32(key.remoteIP[2])<<8 | uint32(key.remoteIP[3]))
	mix(uint32(key.remotePort)<<16 | uint32(key.localPort))
	mix(epoch)
	mix(t.cookieSecret[1])
	return h & cookieHashMask
}

// cookieISS mints the initial sequence number for a SYN|ACK answering
// the given flow's SYN in the current epoch.
func (t *tcpTable) cookieISS(key connKey) uint32 {
	e := cookieEpoch()
	return (e&3)<<cookieHashBits | t.cookieHash(key, e)
}

// validCookie reports whether iss is a cookie this stack minted for the
// flow within the last two epochs.
func (t *tcpTable) validCookie(key connKey, iss uint32) bool {
	tag := iss >> cookieHashBits
	h := iss & cookieHashMask
	e := cookieEpoch()
	for _, epoch := range [2]uint32{e, e - 1} {
		if epoch&3 == tag && t.cookieHash(key, epoch) == h {
			return true
		}
	}
	return false
}

// acceptCookie handles the third handshake segment on the cookie listen
// path: an ACK (no SYN, no RST) that matches a listener but no
// connection. seg.ack-1 must be a cookie we minted; if it is, this is
// the moment — and the only moment — connection state is created. An
// invalid cookie is refused with a deterministic RST, and so is a valid
// one that arrives while the accept queue is full: under backpressure
// the client sees a clean connection reset, never a half-open mystery.
func (t *tcpTable) acceptCookie(l *TCPSocket, key connKey, seg tcpSeg, clk *vtime.Clock, ethSrc *[6]byte) {
	iss := seg.ack - 1
	if !t.validCookie(key, iss) {
		t.refuse()
		t.sendRST(key.remoteIP, ethSrc, seg, clk)
		return
	}

	c := newTCPSocket(t)
	c.local = Addr{IP: t.stack.ip, Port: key.localPort}
	c.remote = Addr{IP: key.remoteIP, Port: key.remotePort}
	// Reconstruct the state the SYN|ACK implied: our ISS was the cookie,
	// the client's ACK covers it, and seg.seq is the byte after its SYN.
	c.sndUna, c.sndNxt = seg.ack, seg.ack
	c.rcvNxt = seg.seq
	c.sndWnd = uint32(seg.wnd)
	c.state = stateEstablished
	if !t.register(key, c) {
		// A concurrent ACK (duplicate or retransmitted) won the race and
		// registered the connection; this copy carries nothing new.
		return
	}
	c.noteMAC(ethSrc)

	if !l.offerBacklog(c) {
		// Accept-queue backpressure (or a listener that closed under
		// us): deterministic refusal. The cookie was honest, but the
		// application is not draining accepts; a RST now is strictly
		// kinder than a connection that would stall.
		t.refuse()
		c.mu.Lock()
		c.teardownLocked(ErrRefused)
		c.mu.Unlock()
		t.sendRST(key.remoteIP, ethSrc, seg, clk)
		return
	}
	if ctr := t.stack.cfg.Counters; ctr != nil {
		ctr.TCPCookiesAccepted.Add(1)
	}
	c.stamp.Raise(clk.Now())

	// The ACK may carry ride-along data (TCP fast open is out of scope,
	// but a client that pipelines its first request with the handshake
	// ACK is normal); run it through the ordinary segment processor.
	if len(seg.payload) > 0 || seg.flags&TCPFlagFIN != 0 {
		c.segArrives(seg, clk)
	}
}
