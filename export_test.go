package videodrift

import "videodrift/internal/faults"

// What the external test package (equiv_test.go, which imports
// internal/ingest and so cannot live in this one) borrows from the
// package's own test fixtures.

const (
	FacadeDim     = facadeDim
	FacadeClasses = facadeClasses
)

var (
	FacadeLabeler  = facadeLabeler
	PixelLabeler   = pixelLabeler
	PixelKey       = pixelKey
	FacadeCond     = facadeCond
	CkptModels     = getCkptModels
	LeanCkptModels = getLeanCkptModels
	GobBytes       = gobBytes
	Declared       = declared
)

type Lender = lender

// SetFaults re-arms the fleet's fault hooks with an injector between
// calls: an Injector's schedule is fixed when it is built, and the
// interpreter arms a panic mid-program. A fleet it builds gets the
// injector's hooks through ShardedOptions.BeforeProcess and TrainFault.
func (sm *ShardedMonitor) SetFaults(in *faults.Injector) {
	sm.beforeProcess, sm.trainFault = in.BeforeProcess, in.TrainFault
}
