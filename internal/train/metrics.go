package train

import (
	"math"
	"sort"
)

// Accuracy is the fraction of matching predictions.
func Accuracy(pred, labels []int) float64 {
	if len(pred) != len(labels) {
		panic("train: Accuracy length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	c := 0
	for i := range pred {
		if pred[i] == labels[i] {
			c++
		}
	}
	return float64(c) / float64(len(pred))
}

// F1 returns the binary F1 score treating class 1 as positive.
func F1(pred, labels []int) float64 {
	var tp, fp, fn float64
	for i := range pred {
		switch {
		case pred[i] == 1 && labels[i] == 1:
			tp++
		case pred[i] == 1 && labels[i] == 0:
			fp++
		case pred[i] == 0 && labels[i] == 1:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	precision := tp / (tp + fp)
	recall := tp / (tp + fn)
	return 2 * precision * recall / (precision + recall)
}

// Pearson returns the Pearson correlation coefficient of x and y.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		panic("train: Pearson length mismatch")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Spearman returns the Spearman rank correlation of x and y (average
// ranks for ties).
func Spearman(x, y []float64) float64 {
	return Pearson(ranks(x), ranks(y))
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	out := make([]float64, len(v))
	i := 0
	for i < len(idx) {
		j := i
		for j+1 < len(idx) && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j) / 2
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
