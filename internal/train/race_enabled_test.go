//go:build race

package train

// raceDetectorEnabled reports whether this test binary was built with -race,
// whose instrumentation allocates on its own, so allocation counts are pinned
// without it.
const raceDetectorEnabled = true
