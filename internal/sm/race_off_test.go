//go:build !race

package sm

// raceDetectorEnabled reports whether this binary was built with -race.
// See race_on_test.go for what the zero-allocation pins do with it.
const raceDetectorEnabled = false
