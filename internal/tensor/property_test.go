package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// genTensor builds a small deterministic tensor from quick-generated
// parameters, keeping dimensions in a sane range.
func genTensor(seed int64, rows, cols uint8) *Tensor {
	r := int(rows%7) + 1
	c := int(cols%7) + 1
	return NewRNG(seed).Randn(1, r, c)
}

func TestPropAddCommutative(t *testing.T) {
	f := func(seed int64, rows, cols uint8) bool {
		a := genTensor(seed, rows, cols)
		b := genTensor(seed+1, rows, cols)
		x, y := Add(a, b), Add(b, a)
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropScaleDistributesOverAdd(t *testing.T) {
	f := func(seed int64, rows, cols uint8, sRaw int8) bool {
		a := genTensor(seed, rows, cols)
		b := genTensor(seed+2, rows, cols)
		s := float32(sRaw) / 16
		lhs := Scale(Add(a, b), s)
		rhs := Add(Scale(a, s), Scale(b, s))
		for i := range lhs.Data {
			if math.Abs(float64(lhs.Data[i]-rhs.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulIdentity(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		d := int(n%6) + 1
		a := NewRNG(seed).Randn(1, d, d)
		eye := New(d, d)
		for i := 0; i < d; i++ {
			eye.Data[i*d+i] = 1
		}
		out := MatMul(a, eye)
		for i := range out.Data {
			if math.Abs(float64(out.Data[i]-a.Data[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulTransposeConsistency(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	f := func(seed int64, mr, kr, nr uint8) bool {
		m, k, n := int(mr%5)+1, int(kr%5)+1, int(nr%5)+1
		g := NewRNG(seed)
		a := g.Randn(1, m, k)
		b := g.Randn(1, k, n)
		lhs := Transpose2D(MatMul(a, b))
		rhs := MatMul(Transpose2D(b), Transpose2D(a))
		for i := range lhs.Data {
			if math.Abs(float64(lhs.Data[i]-rhs.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSoftmaxInvariantToShift(t *testing.T) {
	f := func(seed int64, cols uint8, shiftRaw int8) bool {
		c := int(cols%8) + 2
		a := NewRNG(seed).Randn(1, 1, c)
		shift := float32(shiftRaw) / 4
		shifted := Apply(a, func(v float32) float32 { return v + shift })
		s1, s2 := Softmax(a), Softmax(shifted)
		for i := range s1.Data {
			if math.Abs(float64(s1.Data[i]-s2.Data[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSplitMergeHeadsIsIdentity(t *testing.T) {
	f := func(seed int64, br, sr, hr uint8) bool {
		batch := int(br%3) + 1
		seq := int(sr%4) + 1
		heads := int(hr%3) + 1
		dh := 3
		a := NewRNG(seed).Randn(1, batch, seq, heads*dh)
		back := MergeHeads(SplitHeads(a, heads), heads)
		for i := range a.Data {
			if a.Data[i] != back.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropConcatPreservesSum(t *testing.T) {
	f := func(seed int64, r1, r2, cols uint8) bool {
		c := int(cols%5) + 1
		a := NewRNG(seed).Randn(1, int(r1%5)+1, c)
		b := NewRNG(seed+9).Randn(1, int(r2%5)+1, c)
		total := Sum(Concat(a, b))
		return math.Abs(float64(total-(Sum(a)+Sum(b)))) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
