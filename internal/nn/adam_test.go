package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"videodrift/internal/stats"
)

// requireSameAdam fails unless Step's optimizer and parameters hold the
// reference's bits: Value and both moments of every tensor. anyNaN lets a
// NaN stand for any other NaN (FuzzAdamStep).
func requireSameAdam(t *testing.T, when string, og, ow *Adam, got, want []*Param, anyNaN bool) {
	t.Helper()
	same := func(a, b []float64) bool {
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) && !(anyNaN && math.IsNaN(a[j]) && math.IsNaN(b[j])) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for i := range got {
		if !same(got[i].Value, want[i].Value) || !same(og.m[i], ow.m[i]) || !same(og.v[i], ow.v[i]) {
			for j := range got[i].Value {
				b := math.Float64bits
				t.Logf("[%d][%d] Value %016x / %016x  m %016x / %016x  v %016x / %016x", i, j,
					b(got[i].Value[j]), b(want[i].Value[j]), b(og.m[i][j]), b(ow.m[i][j]), b(og.v[i][j]), b(ow.v[i][j]))
			}
			t.Fatalf("%s: Step and the reference diverge in tensor %d (got / want above)", when, i)
		}
	}
}

// TestAdamStepTensorShapes puts every block and tail boundary under the
// differential test: tensors of each length 0…13, each a sub-slice that
// starts at an odd index of its backing array (so no load is 32-byte
// aligned), a third of the coordinates dense, a third idle after a burst
// and a third idle from the start. Beta1 = 0.75 makes the run short: c1
// reaches exactly 1 at step 129 and an idle moment its resting point
// (2 ulp) by step ≈ 2 600, so every length sees the bias-correction
// divide and its omission, absorbed lanes, stop blocks and resting lanes.
func TestAdamStepTensorShapes(t *testing.T) {
	const steps = 3000
	if c := 1 - math.Pow(0.75, 100); c == 1 {
		t.Fatal("c1 is already 1 at step 100: the run does not cross the saturation")
	}
	if c := 1 - math.Pow(0.75, steps); c != 1 {
		t.Fatalf("c1 = %v at the last step: the run does not cross the saturation", c)
	}
	forEachAdamKernel(t, func(t *testing.T) {
		newParams := func() []*Param {
			var ps []*Param
			for n := 0; n <= 13; n++ {
				off := 1 + 2*(n%3)
				value, grad := make([]float64, off+n+1), make([]float64, off+n+1)
				p := &Param{Value: value[off : off+n], Grad: grad[off : off+n]}
				for j := range p.Value {
					p.Value[j] = 0.1 * float64(j+1-n/2)
				}
				ps = append(ps, p)
			}
			return ps
		}
		got, want := newParams(), newParams()
		og, ow := NewAdam(5e-3), NewAdam(5e-3)
		og.Beta1, ow.Beta1 = 0.75, 0.75
		rng := stats.NewRNG(11)
		for step := 0; step < steps; step++ {
			for i := range got {
				for j := range got[i].Grad {
					g := 0.0
					if (i+j)%3 == 0 || ((i+j)%3 == 1 && step < 20) {
						g = rng.Normal(0, 1)
					}
					got[i].Grad[j], want[i].Grad[j] = g, g
				}
			}
			og.Step(got)
			adamStepReference(ow, want)
			requireSameAdam(t, fmt.Sprintf("step %d", step), og, ow, got, want, false)
		}
		if og.rest == 0 {
			t.Error("no resting point learnt: the idle moments are still being multiplied")
		}
	})
}

// TestAdamStepMixedBlock makes the four lanes of one block take the four
// ways through Step at the same step: lane 0 has a gradient, lane 1 has
// been at rest on 2 ulp since step 6 (a subnormal gradient put it there),
// lane 2 decays from a burst and arrives at 5 ulp (the float64 nearest 0.9
// is above it, so 4.5 ulp rounds up) — above the resting point known so
// far, so this is the step Step learns it from — and
// lane 3 has been idle for a thousand steps: absorbed, far from
// subnormal. The vector kernel must hand exactly that block to the scalar
// loop and take the new resting point up afterwards.
func TestAdamStepMixedBlock(t *testing.T) {
	forEachAdamKernel(t, func(t *testing.T) {
		newParams := func() []*Param {
			return []*Param{{Value: []float64{0.3, 0.5, -0.2, 0.7}, Grad: make([]float64, 4)}}
		}
		got, want := newParams(), newParams()
		og, ow := NewAdam(5e-3), NewAdam(5e-3)
		rng := stats.NewRNG(12)
		mixed := 0
		for step := 0; step < 8000; step++ {
			g := []float64{rng.Normal(0, 1), 0, 0, rng.Normal(0, 1)}
			if step == 5 {
				g[1] = 20 * 5e-324 // m = fl(0.1·20 ulp) = 2 ulp, and fl(0.9·2 ulp) = 2 ulp
			}
			if step < 30 {
				g[2] = rng.Normal(0, 1)
			}
			if step >= 6000 {
				g[3] = 0
			}
			copy(got[0].Grad, g)
			copy(want[0].Grad, g)

			if step > 6 {
				m := og.m[0]
				bits := func(j int) uint64 { return math.Float64bits(m[j]) &^ signBit }
				resting := bits(1) != 0 && bits(1) <= og.rest
				learning := bits(2) > og.rest && bits(2) < minNormalBits && 0.9*m[2] == m[2]
				absorbed := g[3] == 0 && bits(3) >= minNormalBits && math.Abs(m[3]) < 1e-40
				if resting && learning && absorbed {
					mixed++
				}
			}
			og.Step(got)
			adamStepReference(ow, want)
			requireSameAdam(t, fmt.Sprintf("step %d", step), og, ow, got, want, false)
		}
		if mixed != 1 {
			t.Errorf("%d steps had a dense, a resting, a learning and an absorbed lane in the block, want exactly 1", mixed)
		}
		if og.rest != 5 {
			t.Errorf("resting point %d ulp after the run, want 5", og.rest)
		}
	})
}

// TestStepChecksShapes: Step takes its lengths from Value, and the vector
// kernel takes raw pointers, so a gradient or an optimizer state of
// another length must stop the step before any coordinate has moved.
func TestStepChecksShapes(t *testing.T) {
	tensor := func(values, grads int) *Param {
		p := &Param{Value: make([]float64, values), Grad: make([]float64, grads)}
		for j := range p.Value {
			p.Value[j] = 1
		}
		for j := range p.Grad {
			p.Grad[j] = 1
		}
		return p
	}
	cases := []struct {
		name   string
		first  []*Param // a Step on these sizes the state; nil: none
		params []*Param
		want   string
	}{
		{"grad-short", nil, []*Param{tensor(8, 8), tensor(8, 5)}, "tensor 1 has 5 gradients for 8 values"},
		{"grad-long", nil, []*Param{tensor(8, 8), tensor(8, 9)}, "tensor 1 has 9 gradients for 8 values"},
		{"grad-missing", nil, []*Param{tensor(8, 8), tensor(3, 0)}, "tensor 1 has 0 gradients for 3 values"},
		{"fewer-tensors", []*Param{tensor(8, 8), tensor(4, 4)}, []*Param{tensor(8, 8)}, "with 1 tensors, its state was sized for 2"},
		{"more-tensors", []*Param{tensor(8, 8)}, []*Param{tensor(8, 8), tensor(4, 4)}, "with 2 tensors, its state was sized for 1"},
		{"tensor-grew", []*Param{tensor(8, 8), tensor(4, 4)}, []*Param{tensor(8, 8), tensor(6, 6)}, "tensor 1 has 6 values, its state was sized for 4"},
		{"tensor-shrank", []*Param{tensor(8, 8), tensor(4, 4)}, []*Param{tensor(8, 8), tensor(2, 2)}, "tensor 1 has 2 values, its state was sized for 4"},
	}
	for _, c := range cases {
		t.Run("Adam/"+c.name, func(t *testing.T) {
			opt := NewAdam(1e-3)
			if c.first != nil {
				opt.Step(c.first)
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if want := "nn: Adam.Step "; !strings.HasPrefix(msg, want) || !strings.Contains(msg, c.want) {
					t.Errorf("Step panicked with %q, want %q… %q", msg, want, c.want)
				}
				for i, p := range c.params {
					for j, x := range p.Value {
						if x != 1 {
							t.Fatalf("tensor %d value %d moved to %v before the panic", i, j, x)
						}
					}
				}
			}()
			opt.Step(c.params)
		})
	}
}

// fuzzLanes is how many coordinates one FuzzAdamStep input carries: two
// whole blocks and a tail.
const fuzzLanes = 9

// FuzzAdamStep holds both kernels to adamStepReference on arbitrary bit
// patterns — NaNs with payloads, infinities, signed zeros, subnormals —
// for Value, both moments and the gradient of each lane, under every row
// of adamHypers, at any step count (so on either side of c1 == 1). Three
// steps with the same gradient: a resting point learnt in the first is
// used in the second, and a row's later change of hyperparameters lands
// before the third. One thing is not compared: which payload survives when
// two NaNs meet in an add. x86 keeps the first operand's, Go does not say
// which operand is first, and the compiler orders Step's scalar loop and
// the reference differently — so a NaN here matches any NaN, and every
// other pattern (a NaN where the reference has none included) is held to
// the bit.
func FuzzAdamStep(f *testing.F) {
	hypers := adamHypers()
	// Seeds: the schedules' state on the way into an ordinary step, and
	// deep in the subnormals before and after the resting point is known.
	scheds := adamSchedules()
	if len(scheds) < fuzzLanes {
		f.Fatalf("%d schedules for %d lanes", len(scheds), fuzzLanes)
	}
	seed := []*Param{{Value: make([]float64, fuzzLanes), Grad: make([]float64, fuzzLanes)}}
	rngs := make([]*stats.RNG, fuzzLanes)
	for j := range rngs {
		seed[0].Value[j] = scheds[j].value
		rngs[j] = stats.NewRNG(int64(2000 + j))
	}
	o := NewAdam(1e-3)
	for step := 0; step <= 7100; step++ {
		for j := range seed[0].Grad {
			seed[0].Grad[j] = scheds[j].grad(step, rngs[j])
		}
		if step == 1 || step == 45 || step == 6990 || step == 7100 {
			data := make([]byte, 0, 32*fuzzLanes)
			for j := 0; j < fuzzLanes; j++ {
				m, v := 0.0, 0.0
				if o.m != nil {
					m, v = o.m[0][j], o.v[0][j]
				}
				for _, x := range []float64{seed[0].Value[j], m, v, seed[0].Grad[j]} {
					data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
				}
			}
			for h := range hypers {
				f.Add(data, uint8(h), uint16(step))
			}
		}
		adamStepReference(o, seed)
	}
	// And the patterns a byte mutation seldom lands on, in many pairings
	// within a lane.
	specials := []uint64{
		0x7ff8000000000001, 0xfff8000000000abc, 0x7ff0000000000001, // quiet, quiet negative, signalling
		0x7ff0000000000000, 0xfff0000000000000, signBit, // ±Inf, −0
		1, minNormalBits - 1, 0x7fefffffffffffff, // subnormals, MaxFloat64
		math.Float64bits(0.25), math.Float64bits(-1e-30),
	}
	for rot := 0; rot < len(specials); rot++ {
		data := make([]byte, 0, 32*fuzzLanes)
		for j := 0; j < fuzzLanes; j++ {
			for q := 0; q < 4; q++ {
				data = binary.LittleEndian.AppendUint64(data, specials[(j+q*rot+q*q)%len(specials)])
			}
		}
		for h := range hypers {
			f.Add(data, uint8(h), uint16(3*rot))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, hyper uint8, step uint16) {
		h := hypers[int(hyper)%len(hypers)]
		// Lanes the input is too short for are +0 throughout.
		var lanes [fuzzLanes][4]float64 // Value, m, v, g
		for j := range lanes {
			for q := range lanes[j] {
				if at := 8 * (4*j + q); at+8 <= len(data) {
					lanes[j][q] = math.Float64frombits(binary.LittleEndian.Uint64(data[at:]))
				}
			}
		}
		run := func(stepFn func(*Adam, []*Param)) (*Adam, []*Param) {
			p := &Param{Value: make([]float64, fuzzLanes), Grad: make([]float64, fuzzLanes)}
			o := NewAdam(1e-3)
			if h.set != nil {
				h.set(o)
			}
			o.t = int(step)
			o.m, o.v = [][]float64{make([]float64, fuzzLanes)}, [][]float64{make([]float64, fuzzLanes)}
			for j, l := range lanes {
				p.Value[j], o.m[0][j], o.v[0][j], p.Grad[j] = l[0], l[1], l[2], l[3]
			}
			ps := []*Param{p}
			stepFn(o, ps)
			stepFn(o, ps)
			if h.later != nil {
				h.later(o)
			}
			stepFn(o, ps)
			return o, ps
		}
		ow, want := run(adamStepReference)
		forEachAdamKernel(t, func(t *testing.T) {
			og, got := run((*Adam).Step)
			requireSameAdam(t, h.name, og, ow, got, want, true)
		})
	})
}
