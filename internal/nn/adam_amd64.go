//go:build amd64 && !amd64.v3

package nn

// The constraint leaves out GOAMD64=v3: there the compiler contracts
// x*y + z in stepScalar into a fused multiply-add, the kernel has none,
// and lanes of one tensor would round differently.

// adamVector reports whether Step sends whole blocks of four through
// adamBlocksAVX2. It is decided once, from the CPU; the tests clear it to
// hold the scalar loop to the same reference.
var adamVector = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the ymm registers (CPUID leaves 1 and 7, XGETBV).
func cpuHasAVX2() bool

// adamBlocksAVX2 steps coordinates [0, n) of one tensor, n a multiple of
// four, four lanes at a time with stepScalar's arithmetic, reading k.rest
// and never learning it. It stops in front of the first block holding a
// lane stepScalar learns the resting point from (g == ±0, |m| subnormal
// and above rest, fl(beta1·m) == m), with nothing of that block stored,
// and returns how many coordinates it has done.
//
//go:noescape
func adamBlocksAVX2(value, grad, m, v *float64, n int, k *adamConsts) int

// stepBlocks steps the whole blocks of four at the front of one tensor
// and returns how many coordinates that was; the tail is stepScalar's.
func (o *Adam) stepBlocks(x, grad, m, v []float64, k *adamConsts) int {
	if !adamVector {
		return 0
	}
	j := 0
	for len(x)-j >= 4 {
		k.rest = o.rest
		n := (len(x) - j) &^ 3
		done := adamBlocksAVX2(&x[j], &grad[j], &m[j], &v[j], n, k)
		j += done
		if done < n {
			// The scalar loop does the block the kernel stopped at, and
			// learns rest from it.
			o.stepScalar(x[j:j+4], grad[j:j+4], m[j:j+4], v[j:j+4], k)
			j += 4
		}
	}
	return j
}
