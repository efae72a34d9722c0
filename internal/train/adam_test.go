package train

import (
	"math"
	"math/rand"
	"testing"

	"pac/internal/autograd"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
)

// scalarStep is Adam.Step with the scalar body over every element: the
// oracle the vector kernel is held to.
func scalarStep(a *Adam) {
	a.step++
	bc1 := 1 - float32(math.Pow(float64(a.beta1), float64(a.step)))
	bc2 := 1 - float32(math.Pow(float64(a.beta2), float64(a.step)))
	for i, p := range a.params {
		a.update(p.Value.Data, p.Grad.Data, a.m[i].Data, a.v[i].Data, bc1, bc2)
		p.ZeroGrad()
	}
}

// adamGrad draws one gradient element: signed zeros, subnormals, 1e-30
// and 1e30 among magnitudes spread over 1e-6…1e2.
func adamGrad(rng *rand.Rand) float32 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return math.Float32frombits(uint32(1 + rng.Intn(0x7fffff))) // positive subnormal
	case 3:
		return -math.Float32frombits(uint32(1 + rng.Intn(0x7fffff)))
	case 4:
		return 1e-30
	case 5:
		return -1e30
	case 6:
		return 1e30
	}
	g := float32(math.Pow(10, -6+8*rng.Float64()))
	if rng.Intn(2) == 0 {
		g = -g
	}
	return g
}

// TestAdamKernelMatchesScalarBody holds Step (the AVX2 kernel on every
// multiple of 8, the scalar body on the rest) to the scalar body alone,
// bit for bit in weights and both moments, over 300 steps and
// parameters of 1, 7, 8, 9 and 4099 elements. Without AVX2 both sides
// run the scalar body.
func TestAdamKernelMatchesScalarBody(t *testing.T) {
	lengths := []int{1, 7, 8, 9, 4099}
	mk := func() []*autograd.Variable {
		rng := rand.New(rand.NewSource(3))
		var ps []*autograd.Variable
		for _, n := range lengths {
			w := tensor.New(n)
			for j := range w.Data {
				w.Data[j] = float32(rng.NormFloat64())
			}
			ps = append(ps, autograd.NewParam(w))
		}
		return ps
	}
	got, want := mk(), mk()
	vec, ref := NewAdam(got, 1e-3), NewAdam(want, 1e-3)
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 300; step++ {
		for i, p := range got {
			g := tensor.New(lengths[i])
			for j := range g.Data {
				g.Data[j] = adamGrad(rng)
			}
			p.Grad = g
			want[i].Grad = g.Clone()
		}
		vec.Step()
		scalarStep(ref)
		for i := range got {
			for name, pair := range map[string][2][]float32{
				"weight": {got[i].Value.Data, want[i].Value.Data},
				"m":      {vec.m[i].Data, ref.m[i].Data},
				"v":      {vec.v[i].Data, ref.v[i].Data},
			} {
				for j := range pair[0] {
					if a, b := math.Float32bits(pair[0][j]), math.Float32bits(pair[1][j]); a != b {
						t.Fatalf("step %d, param of %d, %s[%d]: kernel %#08x, scalar body %#08x",
							step, lengths[i], name, j, a, b)
					}
				}
			}
		}
	}
}

// TestAdamStepWithoutGradient: a parameter that had a gradient and gets
// none in a later step still takes the zero-gradient update (its moments
// decay and it keeps moving), bit for bit as an explicit zero gradient
// gives, while the backward pass's gradients are adopted rather than
// added into zeroed buffers.
func TestAdamStepWithoutGradient(t *testing.T) {
	x := tensor.FromSlice([]float32{0.5, -1.5, 2, 0.25, 3, -0.75, 1, 9, -2, 4}, 10)
	mk := func() []*autograd.Variable {
		a, b := tensor.New(10), tensor.New(10)
		for j := range a.Data {
			a.Data[j] = 0.1 * float32(j+1)
			b.Data[j] = -0.2 * float32(j+1)
		}
		return []*autograd.Variable{autograd.NewParam(a), autograd.NewParam(b)}
	}
	got, want := mk(), mk()
	opt, ref := NewAdam(got, 0.01), NewAdam(want, 0.01)
	backward := func(ps ...*autograd.Variable) {
		xv := autograd.NewVar(x)
		loss := autograd.Sum(autograd.Mul(ps[0], xv))
		for _, p := range ps[1:] {
			loss = autograd.Add(loss, autograd.Sum(autograd.Mul(p, xv)))
		}
		autograd.Backward(loss)
		autograd.Release(loss)
	}
	// Step 1 reaches both parameters, steps 2 and 3 only the first.
	for step := 0; step < 3; step++ {
		if step == 0 {
			backward(got...)
		} else {
			backward(got[0])
		}
		opt.Step()
		want[0].Grad = x.Clone()
		want[1].Grad = x.Clone()
		if step > 0 {
			want[1].Grad = tensor.New(10)
		}
		ref.Step()
		for i := range got {
			if got[i].Grad == nil {
				t.Fatalf("step %d: parameter %d lost its gradient buffer", step, i)
			}
			for j, v := range got[i].Value.Data {
				if math.Float32bits(v) != math.Float32bits(want[i].Value.Data[j]) {
					t.Fatalf("step %d: parameter %d[%d] = %v, want %v", step, i, j, v, want[i].Value.Data[j])
				}
			}
			for j, v := range opt.m[i].Data {
				if math.Float32bits(v) != math.Float32bits(ref.m[i].Data[j]) {
					t.Fatalf("step %d: m of parameter %d[%d] = %v, want %v", step, i, j, v, ref.m[i].Data[j])
				}
			}
		}
	}
}

// BenchmarkAdamKernel times one Adam update over the side network of the
// benchmark's Bench shape (hidden 256, 4 layers, reduction 4: 168,066
// floats), the vector kernel against the scalar body, both legs in one
// process and on one goroutine. CI's perf-gates job holds vector ≥ 3×
// scalar; a host without AVX2 runs the scalar body on both legs.
func BenchmarkAdamKernel(b *testing.B) {
	cfg := model.Config{Name: "Bench", Vocab: 256, Layers: 4, Heads: 4, Hidden: 256,
		FFDim: 1024, MaxSeq: 64, NumClasses: 2, Seed: 1}
	params := peft.NewParallel(model.New(cfg), peft.Options{Reduction: 4}).Trainable()
	a := NewAdam(params, 1e-3)
	rng := rand.New(rand.NewSource(1))
	n := 0
	for _, p := range params {
		p.Grad = tensor.New(p.Value.Shape()...)
		for j := range p.Grad.Data {
			p.Grad.Data[j] = float32(rng.NormFloat64()) * 1e-3
		}
		n += p.Value.Numel()
	}
	bc1, bc2 := float32(0.1), float32(0.001)
	legs := []struct {
		name string
		step func()
	}{
		{"vector", func() {
			for i, p := range params {
				w, g, m, v := p.Value.Data, p.Grad.Data, a.m[i].Data, a.v[i].Data
				j := tensor.AdamVector(w, g, m, v, a.lr, a.beta1, a.beta2, a.eps, bc1, bc2)
				a.update(w[j:], g[j:], m[j:], v[j:], bc1, bc2)
			}
		}},
		{"scalar", func() {
			for i, p := range params {
				a.update(p.Value.Data, p.Grad.Data, a.m[i].Data, a.v[i].Data, bc1, bc2)
			}
		}},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				leg.step()
			}
		})
	}
}
