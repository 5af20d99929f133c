//go:build race

package experiments

// raceDetector reports whether the test binary was built with -race,
// whose instrumentation slows the training loops several times more than
// the detector: assertions that compare the two wall-clocks do not hold
// under it.
const raceDetector = true
