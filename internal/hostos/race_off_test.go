//go:build !race

package hostos

// raceDetectorEnabled reports whether this binary was built with -race.
// See race_on_test.go for what the zero-allocation pins do with it.
const raceDetectorEnabled = false
