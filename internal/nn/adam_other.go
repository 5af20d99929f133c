//go:build !amd64 || amd64.v3

package nn

// adamVector is never set here: stepScalar is the only kernel.
var adamVector = false

func (o *Adam) stepBlocks(x, grad, m, v []float64, k *adamConsts) int { return 0 }
