//go:build race

package netstack

// raceDetectorEnabled reports whether this binary was built with -race.
// Under the race detector sync.Pool drops a quarter of its Puts on
// purpose, so the send path — whose TxBuf arrays are pooled — allocates
// there by design: the zero-allocation pins assert only in the
// uninstrumented pass (the -race pass still runs the sends).
const raceDetectorEnabled = true
