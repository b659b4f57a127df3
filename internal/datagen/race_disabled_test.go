//go:build !race

package datagen

// raceDetectorEnabled reports whether this test binary was built with -race.
const raceDetectorEnabled = false
