package netsim

// This file is the deterministic traffic shaper: pure schedules of
// virtual departure times that load generators replay. Nothing here
// touches a Device — the shaper decides *when* each datagram leaves,
// the workload decides what it is and sends it — so the same Shape
// drives every environment identically and a run is reproducible
// bit-for-bit.

// Phase is one segment of a shaped schedule: Count departures spaced
// Gap virtual cycles apart.
type Phase struct {
	// Name labels the phase in per-phase results ("burst", "quiet", ...).
	Name string
	// Count is how many datagrams depart during the phase.
	Count int
	// Gap is the virtual-cycle spacing between consecutive departures.
	Gap uint64
}

// Shape is a named sequence of phases.
type Shape struct {
	Name   string
	Phases []Phase
}

// Departure is one scheduled send: which phase it belongs to and its
// virtual-time offset from the start of the schedule.
type Departure struct {
	Phase int
	At    uint64
}

// Total returns the number of departures in the whole schedule.
func (s Shape) Total() int {
	n := 0
	for _, p := range s.Phases {
		n += p.Count
	}
	return n
}

// Schedule expands the shape into its departure list. Phases abut: the
// first departure of phase k+1 follows the last of phase k by phase
// k+1's gap.
func (s Shape) Schedule() []Departure {
	out := make([]Departure, 0, s.Total())
	var t uint64
	for pi, p := range s.Phases {
		for i := 0; i < p.Count; i++ {
			if len(out) > 0 || i > 0 {
				t += p.Gap
			}
			out = append(out, Departure{Phase: pi, At: t})
		}
	}
	return out
}
