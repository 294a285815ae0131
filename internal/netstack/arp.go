package netstack

import (
	"sync"
	"time"
)

// arpPacketBytes is the size of an Ethernet/IPv4 ARP packet.
const arpPacketBytes = 28

// ARP opcodes.
const (
	arpOpRequest uint16 = 1
	arpOpReply   uint16 = 2
)

type arpPacket struct {
	op  uint16
	sha [6]byte
	spa IP4
	tha [6]byte
	tpa IP4
}

func parseARP(b []byte) (arpPacket, bool) {
	var p arpPacket
	if len(b) < arpPacketBytes {
		return p, false
	}
	if be16(b[0:2]) != 1 || be16(b[2:4]) != EtherTypeIPv4 || b[4] != 6 || b[5] != 4 {
		return p, false
	}
	p.op = be16(b[6:8])
	copy(p.sha[:], b[8:14])
	copy(p.spa[:], b[14:18])
	copy(p.tha[:], b[18:24])
	copy(p.tpa[:], b[24:28])
	return p, true
}

func marshalARP(p arpPacket) []byte {
	b := make([]byte, arpPacketBytes)
	put16(b[0:2], 1)
	put16(b[2:4], EtherTypeIPv4)
	b[4], b[5] = 6, 4
	put16(b[6:8], p.op)
	copy(b[8:14], p.sha[:])
	copy(b[14:18], p.spa[:])
	copy(b[18:24], p.tha[:])
	copy(b[24:28], p.tpa[:])
	return b
}

// arpLearnedCap bounds the learned half of the neighbour cache. Learned
// entries used to be kept until the stack died, which was fine for a
// handful of simulated hosts but is a memory hole once a load generator
// throws 10^6 distinct source IPs at the stack (~100 MB of map). The cap
// is sized far above any in-flight window — a reply always resolves the
// entry learned when its request arrived a queue-depth ago — so eviction
// only ever trims flows that have long since gone quiet.
const arpLearnedCap = 32768

// arpTable is the stack's neighbour cache. Static entries (from the
// RAKIS configuration, which carries the peer MAC as §7 "Deployment
// Simplicity" describes) never expire and never count against the cap;
// learned entries are bounded by arpLearnedCap with FIFO eviction — the
// simulated segment has no mobility, so recency is all that matters.
type arpTable struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries map[IP4][6]byte
	static  map[IP4]struct{}
	order   []IP4 // learned insertion order, oldest first
	evict   int   // next eviction cursor into order
}

func newARPTable(static map[IP4][6]byte) *arpTable {
	t := &arpTable{
		entries: make(map[IP4][6]byte),
		static:  make(map[IP4]struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	for ip, mac := range static {
		t.entries[ip] = mac
		t.static[ip] = struct{}{}
	}
	return t
}

func (t *arpTable) lookup(ip IP4) ([6]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	mac, ok := t.entries[ip]
	return mac, ok
}

func (t *arpTable) learn(ip IP4, mac [6]byte) {
	t.mu.Lock()
	if _, isStatic := t.static[ip]; !isStatic {
		if _, known := t.entries[ip]; !known {
			t.order = append(t.order, ip)
			if len(t.order)-t.evict > arpLearnedCap {
				delete(t.entries, t.order[t.evict])
				t.order[t.evict] = IP4{}
				t.evict++
				if t.evict > arpLearnedCap {
					// Compact the consumed prefix so order stays O(cap).
					t.order = append(t.order[:0], t.order[t.evict:]...)
					t.evict = 0
				}
			}
		}
	}
	t.entries[ip] = mac
	t.mu.Unlock()
	t.cond.Broadcast()
}

// waitFor blocks until ip resolves or d of real time passes.
func (t *arpTable) waitFor(ip IP4, d time.Duration) (mac [6]byte, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	condWait(t.cond, d, func() bool {
		mac, ok = t.entries[ip]
		return ok
	})
	return mac, ok
}
