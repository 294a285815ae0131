package fm

import (
	"testing"
	"time"

	"rakis/internal/mem"
	"rakis/internal/netstack"
	"rakis/internal/ring"
	"rakis/internal/vtime"
	"rakis/internal/xsk"
)

func TestErrno(t *testing.T) {
	if Errno(0) != nil || Errno(42) != nil {
		t.Fatal("non-negative results are not errors")
	}
	for _, res := range []int32{-9, -14, -22, -32, -99} {
		if Errno(res) == nil {
			t.Fatalf("res %d must be an error", res)
		}
	}
}

// sinkStack builds a trimmed stack whose output is discarded.
type sinkLink struct{}

func (sinkLink) SendFrame(data []byte, clk *vtime.Clock) (uint64, error) { return clk.Now(), nil }
func (sinkLink) MAC() [6]byte                                            { return [6]byte{2, 0, 0, 0, 0, 5} }
func (sinkLink) MTU() int                                                { return 1500 }

// recvWithin is a blocking RecvFrom with a real-time cap, so a pump that
// never delivers fails the test instead of hanging it.
func recvWithin(u *netstack.UDPSocket, clk *vtime.Clock, d time.Duration) (netstack.Datagram, error) {
	type result struct {
		d   netstack.Datagram
		err error
	}
	done := make(chan result, 1)
	go func() {
		dg, err := u.RecvFrom(clk, true)
		done <- result{dg, err}
	}()
	select {
	case r := <-done:
		return r.d, r.err
	case <-time.After(d):
		return netstack.Datagram{}, netstack.ErrTimeout
	}
}

// TestXskPumpDeliversToStack drives the pump with a hand-operated kernel
// side: frames placed via the fill/RX rings must surface in the stack's
// UDP socket, and the consumed frames must be recycled.
func TestXskPumpDeliversToStack(t *testing.T) {
	sp := mem.NewSpace(1<<20, 1<<22)
	alloc := func(n uint64) mem.Addr {
		a, err := sp.Alloc(mem.Untrusted, n, 64)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	setup := xsk.Setup{
		FD:        5,
		FillBase:  alloc(ring.TotalBytes(64, xsk.FillEntryBytes)),
		RXBase:    alloc(ring.TotalBytes(64, xsk.DescBytes)),
		TXBase:    alloc(ring.TotalBytes(64, xsk.DescBytes)),
		ComplBase: alloc(ring.TotalBytes(64, xsk.FillEntryBytes)),
		UMemBase:  alloc(2048 * 32),
	}
	sock, err := xsk.Attach(xsk.Config{Space: sp, Setup: setup, RingSize: 64, FrameSize: 2048, FrameCount: 32})
	if err != nil {
		t.Fatal(err)
	}
	stack, err := netstack.New(netstack.Config{Name: "encl", Dev: sinkLink{}, IP: netstack.IP4{10, 9, 9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	usock, err := stack.UDPBind(4242)
	if err != nil {
		t.Fatal(err)
	}

	pump := NewXskPump(sock, stack, nil)
	pump.Start()
	defer pump.Close()

	// Kernel side: wait for fill entries, then deliver a frame.
	kFill, _ := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: setup.FillBase,
		Size: 64, EntrySize: xsk.FillEntryBytes, Side: ring.Consumer})
	kRX, _ := ring.New(ring.Config{Space: sp, Access: mem.RoleHost, Base: setup.RXBase,
		Size: 64, EntrySize: xsk.DescBytes, Side: ring.Producer})

	deadline := time.Now().Add(2 * time.Second)
	for {
		if avail, _ := kFill.Available(); avail > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pump never stocked the fill ring")
		}
		time.Sleep(time.Millisecond)
	}
	off, _ := kFill.ReadU64(0)
	kFill.Release(1)

	// Write a UDP frame into the UMem slot and publish the descriptor.
	udp := make([]byte, 8+5)
	udp[0], udp[1] = 0x30, 0x39 // sport 12345
	udp[2], udp[3] = 0x10, 0x92 // dport 4242
	udp[4], udp[5] = 0, 13
	copy(udp[8:], "hello")
	ip := netstack.MarshalIPv4(netstack.IPv4Header{TTL: 64, Proto: netstack.ProtoUDP,
		Src: netstack.IP4{10, 0, 0, 1}, Dst: netstack.IP4{10, 9, 9, 9}}, udp)
	frame := netstack.MarshalEth(netstack.EthHeader{Dst: sinkLink{}.MAC(),
		Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: netstack.EtherTypeIPv4}, ip)
	dst, err := sp.Bytes(mem.RoleHost, setup.UMemBase+mem.Addr(off), uint64(len(frame)))
	if err != nil {
		t.Fatal(err)
	}
	copy(dst, frame)
	slot, _ := kRX.SlotBytes(0)
	xsk.PutDesc(slot, xsk.Desc{Addr: off, Len: uint32(len(frame))})
	kRX.Submit(1, 777)

	var clk vtime.Clock
	d, err := recvWithin(usock, &clk, 2*time.Second)
	if err != nil || string(d.Bytes()) != "hello" {
		t.Fatalf("pump delivery = %q, %v", d.Bytes(), err)
	}
	if d.Stamp < 777 {
		t.Fatalf("stamp %d must include the RX submit time", d.Stamp)
	}
	if clk.Now() == 0 {
		t.Fatal("receiver clock must advance")
	}
	// The consumed frame returns to the pool and the fill ring is
	// restocked for the kernel.
	deadline = time.Now().Add(time.Second)
	for {
		if avail, _ := kFill.Available(); avail > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fill ring never restocked")
		}
		time.Sleep(time.Millisecond)
	}
}
