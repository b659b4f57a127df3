//go:build race

package datagen

// raceDetectorEnabled reports whether this test binary was built with -race,
// which slows the scoring loop some fiftyfold: the kg_mem-sized golden
// configs then run only without it.
const raceDetectorEnabled = true
