package tensor

import (
	"math"
	"testing"
)

func almostEq(t *testing.T, got, want, tol float32, msg string) {
	t.Helper()
	if diff := float64(got - want); math.Abs(diff) > float64(tol) {
		t.Fatalf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float32) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("shape mismatch: %v vs %v", got.Shape(), want.Shape())
	}
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > float64(tol) {
			t.Fatalf("element %d: got %v want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestNewShapeAndNumel(t *testing.T) {
	a := New(2, 3, 4)
	if a.Numel() != 24 {
		t.Fatalf("Numel = %d, want 24", a.Numel())
	}
	if a.Dims() != 3 || a.Dim(1) != 3 {
		t.Fatalf("bad dims: %v", a.Shape())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Data[0] = 42
	if a.Data[0] != 42 {
		t.Fatal("Reshape must share backing data")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Ones(2, 2)
	b := a.Clone()
	b.Data[0] = 5
	if a.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	tensorsClose(t, Add(a, b), FromSlice([]float32{6, 8, 10, 12}, 2, 2), 0)
	tensorsClose(t, Mul(a, b), FromSlice([]float32{5, 12, 21, 32}, 2, 2), 0)
	tensorsClose(t, Scale(a, 2), FromSlice([]float32{2, 4, 6, 8}, 2, 2), 0)
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	AddInPlace(a, FromSlice([]float32{3, 3}, 2))
	tensorsClose(t, a, FromSlice([]float32{4, 5}, 2), 0)
	AxpyInPlace(a, 2, FromSlice([]float32{1, 1}, 2))
	tensorsClose(t, a, FromSlice([]float32{6, 7}, 2), 0)
	ScaleInPlace(a, 0.5)
	tensorsClose(t, a, FromSlice([]float32{3, 3.5}, 2), 0)
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3, -4}, 2, 2)
	almostEq(t, Sum(a), -2, 1e-6, "Sum")
	almostEq(t, Mean(a), -0.5, 1e-6, "Mean")
	almostEq(t, MaxAbs(a), 4, 0, "MaxAbs")
	tensorsClose(t, SumRows(a), FromSlice([]float32{4, -6}, 2), 1e-6)
}

func TestArgMaxRows(t *testing.T) {
	a := FromSlice([]float32{0.1, 0.9, 0.5, 0.6, 0.3, 0.1}, 2, 3)
	got := ArgMaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestAddRowBroadcast(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float32{10, 20}, 2)
	tensorsClose(t, AddRowBroadcast(m, v), FromSlice([]float32{11, 22, 13, 24}, 2, 2), 0)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	g := NewRNG(1)
	a := g.Randn(3, 4, 7)
	s := Softmax(a)
	rows, cols := Rows(s)
	for r := 0; r < rows; r++ {
		var sum float32
		for c := 0; c < cols; c++ {
			v := s.Data[r*cols+c]
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		almostEq(t, sum, 1, 1e-5, "softmax row sum")
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	a := FromSlice([]float32{1000, 1001, 1002}, 1, 3)
	s := Softmax(a)
	if !s.IsFinite() {
		t.Fatal("softmax overflowed on large logits")
	}
}

func TestLogSoftmaxMatchesLogOfSoftmax(t *testing.T) {
	g := NewRNG(2)
	a := g.Randn(1, 5, 9)
	ls := LogSoftmax(a)
	s := Softmax(a)
	for i := range s.Data {
		almostEq(t, ls.Data[i], float32(math.Log(float64(s.Data[i]))), 1e-4, "logsoftmax")
	}
}

func TestLayerNormForward(t *testing.T) {
	g := NewRNG(3)
	a := g.Randn(1, 6, 16)
	gamma := Ones(16)
	beta := New(16)
	out, _ := LayerNormForward(a, gamma, beta, 1e-5)
	rows, cols := Rows(out)
	for r := 0; r < rows; r++ {
		var mean, varr float64
		for c := 0; c < cols; c++ {
			mean += float64(out.Data[r*cols+c])
		}
		mean /= float64(cols)
		for c := 0; c < cols; c++ {
			d := float64(out.Data[r*cols+c]) - mean
			varr += d * d
		}
		varr /= float64(cols)
		if math.Abs(mean) > 1e-4 || math.Abs(varr-1) > 1e-2 {
			t.Fatalf("row %d not normalized: mean=%v var=%v", r, mean, varr)
		}
	}
}

func TestLayerNormBackwardNumerical(t *testing.T) {
	g := NewRNG(4)
	a := g.Randn(1, 2, 5)
	gamma := g.Uniform(0.5, 1.5, 5)
	beta := g.Randn(0.1, 5)
	dOut := g.Randn(1, 2, 5)
	_, stats := LayerNormForward(a, gamma, beta, 1e-5)
	dx, dGamma, dBeta := New(2, 5), New(5), New(5)
	LayerNormBackwardInto(dx, dGamma, dBeta, a, gamma, dOut, stats)

	loss := func() float64 {
		out, _ := LayerNormForward(a, gamma, beta, 1e-5)
		var s float64
		for i := range out.Data {
			s += float64(out.Data[i]) * float64(dOut.Data[i])
		}
		return s
	}
	const h = 1e-3
	check := func(param *Tensor, grad *Tensor, name string) {
		for i := range param.Data {
			orig := param.Data[i]
			param.Data[i] = orig + h
			up := loss()
			param.Data[i] = orig - h
			down := loss()
			param.Data[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-float64(grad.Data[i])) > 2e-2 {
				t.Fatalf("%s[%d]: numerical %v analytic %v", name, i, num, grad.Data[i])
			}
		}
	}
	check(a, dx, "dx")
	check(gamma, dGamma, "dGamma")
	check(beta, dBeta, "dBeta")
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Randn(1, 3, 3)
	b := NewRNG(42).Randn(1, 3, 3)
	tensorsClose(t, a, b, 0)
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(7)
	a := g.Split().Randn(1, 4)
	b := g.Split().Randn(1, 4)
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("split RNGs produced identical streams")
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	g := NewRNG(5)
	a, b := g.Randn(1, 8, 8), g.Randn(1, 8, 8)
	single := MatMul(a, b)
	SetMaxWorkers(4)
	multi := MatMul(a, b)
	tensorsClose(t, single, multi, 0)
}
