package tensor

import (
	"math"
	"math/rand"
)

// RNG is a seeded random source for deterministic tensor initialization.
// It is not safe for concurrent use; create one per goroutine.
type RNG struct{ r *rand.Rand }

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG { return &RNG{r: rand.New(rand.NewSource(seed))} }

// Float32 returns a uniform value in [0,1).
func (g *RNG) Float32() float32 { return g.r.Float32() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Randn returns a tensor with i.i.d. N(0, std²) entries.
func (g *RNG) Randn(std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(g.r.NormFloat64()) * std
	}
	return t
}

// Uniform returns a tensor with i.i.d. entries in [lo, hi).
func (g *RNG) Uniform(lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*g.r.Float32()
	}
	return t
}

// XavierUniform returns a tensor initialized with Glorot/Xavier uniform
// scaling for a [fanIn, fanOut] weight matrix.
func (g *RNG) XavierUniform(fanIn, fanOut int, shape ...int) *Tensor {
	limit := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	return g.Uniform(-limit, limit, shape...)
}

// Split derives a new independent generator from this one; used to give
// each model component its own stream while staying deterministic.
func (g *RNG) Split() *RNG { return NewRNG(g.r.Int63()) }
