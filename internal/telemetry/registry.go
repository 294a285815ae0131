package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"rakis/internal/vtime"
)

// Counter is a named monotonic counter. A nil *Counter (from a nil
// registry) is a no-op, so instrumented code never branches on
// telemetry being present.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Load returns the counter's value (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is the run-wide metrics namespace: counters owned by the
// registry, reader gauges that sample external state (the vtime.Counters
// fields, netsim queue drops), and log2 histograms.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	readers  map[string]func() uint64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		readers:  make(map[string]func() uint64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe:
// a nil registry yields a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Reader registers a gauge whose value is sampled by calling fn at
// snapshot time. Registering a name twice replaces the reader.
//
// Contract: fn must be cheap (an atomic load or a short uncontended
// lock over foreign state) and must never re-enter the registry.
// Snapshot and Values sample readers while holding the registry lock so
// one snapshot is a single coherent cut across every metric; a reader
// that blocks or calls back into the registry deadlocks.
func (r *Registry) Reader(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.readers[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Value looks a scalar metric up by name — counter or reader gauge —
// and reports whether it exists.
func (r *Registry) Value(name string) (uint64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	c := r.counters[name]
	fn := r.readers[name]
	r.mu.Unlock()
	if c != nil {
		return c.Load(), true
	}
	if fn != nil {
		return fn(), true
	}
	return 0, false
}

// Metric is one registry entry at snapshot time.
type Metric struct {
	Name  string        `json:"name"`
	Kind  string        `json:"kind"` // "counter", "gauge", or "histogram"
	Value uint64        `json:"value"`
	Hist  *HistSnapshot `json:"hist,omitempty"`
}

// Snapshot samples every metric under one hold of the registry lock —
// a coherent cut: no metric in the result can postdate another by more
// than the sampling loop itself. Readers are sampled inside the lock
// (see the Reader contract), which is what makes the cut safe for the
// tuner and rakis-trace to difference against a previous snapshot
// without torn multi-counter reads. Histograms with no observations are
// omitted; the result is sorted by name.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters)+len(r.readers)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: c.Load()})
	}
	for name, fn := range r.readers {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: fn()})
	}
	for name, h := range r.hists {
		if s := h.Snapshot(); s.Count > 0 {
			hs := s
			out = append(out, Metric{Name: name, Kind: "histogram", Value: s.Count, Hist: &hs})
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Values returns every scalar metric (counters and reader gauges) as
// one coherent name→value cut, sampled under a single hold of the
// registry lock. This is the tuner's input read: differencing two
// Values cuts yields window deltas with no torn reads.
func (r *Registry) Values() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counters)+len(r.readers))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, fn := range r.readers {
		out[name] = fn()
	}
	return out
}

// BindCounters registers every vtime.Counters field as a reader gauge
// under a stable "vtime." name, making the registry the single source of
// truth for the legacy sinks (Figure 2 reads exits through it).
func BindCounters(r *Registry, c *vtime.Counters) {
	if r == nil || c == nil {
		return
	}
	r.Reader("vtime.enclave_exits", c.EnclaveExits.Load)
	r.Reader("vtime.syscalls", c.Syscalls.Load)
	r.Reader("vtime.libos_calls", c.LibOSCalls.Load)
	r.Reader("vtime.ring_violations", c.RingViolations.Load)
	r.Reader("vtime.umem_violations", c.UMemViolations.Load)
	r.Reader("vtime.cqe_violations", c.CQEViolations.Load)
	r.Reader("vtime.packets_rx", c.PacketsRx.Load)
	r.Reader("vtime.packets_tx", c.PacketsTx.Load)
	r.Reader("vtime.packets_dropped", c.PacketsDropped.Load)
	r.Reader("vtime.bytes_rx", c.BytesRx.Load)
	r.Reader("vtime.bytes_tx", c.BytesTx.Load)
	r.Reader("vtime.iouring_ops", c.IoUringOps.Load)
	r.Reader("vtime.wakeups", c.Wakeups.Load)
	r.Reader("vtime.faults_injected", c.FaultsInjected.Load)
	r.Reader("vtime.wakeup_retries", c.WakeupRetries.Load)
	r.Reader("vtime.submit_retries", c.SubmitRetries.Load)
	r.Reader("vtime.fallback_exits", c.FallbackExits.Load)
	r.Reader("vtime.ring_resyncs", c.RingResyncs.Load)
	r.Reader("vtime.poll_cancels", c.PollCancels.Load)
	r.Reader("vtime.batch_calls", c.BatchCalls.Load)
	r.Reader("vtime.batched_msgs", c.BatchedMsgs.Load)
	r.Reader("vtime.wakeups_coalesced", c.WakeupsCoalesced.Load)
	r.Reader("vtime.copy_bytes_saved", c.CopyBytesSaved.Load)
	r.Reader("vtime.splice_frames", c.SpliceFrames.Load)
	r.Reader("vtime.tcp_cookies_sent", c.TCPCookiesSent.Load)
	r.Reader("vtime.tcp_cookies_accepted", c.TCPCookiesAccepted.Load)
	r.Reader("vtime.tcp_refused", c.TCPRefused.Load)
}
