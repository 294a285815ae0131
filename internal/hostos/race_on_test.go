//go:build race

package hostos

// raceDetectorEnabled reports whether this binary was built with -race.
// The race detector's instrumentation allocates on its own account, so
// the zero-allocation pins assert only in the uninstrumented pass, as
// the pooled pins in sm and netstack do (the -race pass still runs the
// round trips).
const raceDetectorEnabled = true
