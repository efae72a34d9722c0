package tensor

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"pac/internal/telemetry"
)

// Backend is the pluggable compute layer under the hot kernels. Every
// parallel kernel (MatMul*, BatchMatMulT[Scaled], SoftmaxInPlace, GELU*,
// the *Into family and the fused Affine* ops built on them) shards work
// with getKern/runKern and executes each shard through the Backend the
// kern captured at dispatch time, so one atomic SetBackend switches the
// whole process and in-flight kernels finish on the backend they started
// with.
//
// A shard fully owns its output rows: accumulating kernels zero their
// own row range (clear per row) instead of relying on a pre-zeroed dst,
// which is what lets MatMulInto skip its old single-threaded memset.
//
// Contract per implementation:
//
//   - generic: the reference loops, bit-identical to the pre-backend
//     code. Every per-element accumulation runs in the same index order
//     as a naive dot product.
//   - int8: register-blocked fp32 loops (wider unrolls, multiple
//     accumulator chains) for the accumulating matmuls. Results may
//     differ from generic in the last ulp because the reduction tree
//     differs, but fused-vs-composed chains stay bit-identical *within*
//     the backend because both paths run the same kernels. Quantized()
//     reports true, so frozen-weight projections additionally route
//     through the QuantMatMul* path in quant.go, which is a tolerance
//     (not bitwise) contract — see QuantizeWeight.
type Backend interface {
	Name() string
	// Quantized reports whether frozen-weight projections should take
	// the int8 path (nn.Linear checks this before using a QuantizedWeight).
	Quantized() bool
	// MatMulRows computes rows [start,end) of out = a·b for a [m,k],
	// b [k,n], zeroing the rows it owns first.
	MatMulRows(out, a, b []float32, start, end, k, n int)
	// MatMulTRows computes rows [start,end) of out = alpha·a·bᵀ for
	// a [m,k], b [n,k]. Rows are written, not accumulated.
	MatMulTRows(out, a, b []float32, start, end, k, n int, alpha float32)
	// TMatMulRows computes rows [start,end) of out = aᵀ·b for a [k,m],
	// b [k,n], zeroing the rows it owns first.
	TMatMulRows(out, a, b []float32, start, end, k, m, n int)
	// GELURows writes gelu(a[i]) into dst[i] for i in [start,end).
	GELURows(dst, a []float32, start, end int)
	// GELUGradRows writes gelu'(pre[i])·g[i] into dst[i] for i in [start,end).
	GELUGradRows(dst, pre, g []float32, start, end int)
	// SoftmaxRows writes the row-wise softmax of a into dst for rows
	// [start,end) of a [rows,cols] view. dst may alias a (in-place).
	SoftmaxRows(dst, a []float32, start, end, cols int)
}

// backendRegistry holds every available backend; the set is fixed at
// init so lookups never need a lock.
var backendRegistry = map[string]Backend{
	"generic": genericBackend{},
	"int8":    int8Backend{},
}

var activeBackendPtr atomic.Pointer[Backend]

func init() {
	b := backendRegistry["generic"]
	activeBackendPtr.Store(&b)

	// Active-backend info gauge: pac_compute_backend{backend=...} is 1
	// for the selected backend and 0 for the rest, the usual info-gauge
	// idiom so dashboards can group by label.
	reg := telemetry.Default()
	gauges := make(map[string]*telemetry.Gauge, len(backendRegistry))
	for name := range backendRegistry {
		gauges[name] = reg.Gauge("pac_compute_backend", "backend", name)
	}
	reg.Help("pac_compute_backend", "Tensor compute backend selection (1 = active).")
	reg.OnScrape(func() {
		active := ActiveBackend().Name()
		for name, g := range gauges {
			if name == active {
				g.Set(1)
			} else {
				g.Set(0)
			}
		}
	})
}

// Backends returns the available backend names, sorted.
func Backends() []string {
	names := make([]string, 0, len(backendRegistry))
	for name := range backendRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SetBackend selects the compute backend by name. Safe to call while
// kernels are running: in-flight dispatches finish on the backend they
// captured. Returns an error naming the valid set for unknown names.
func SetBackend(name string) error {
	b, ok := backendRegistry[name]
	if !ok {
		return fmt.Errorf("tensor: unknown backend %q (have %s)", name, strings.Join(Backends(), ", "))
	}
	activeBackendPtr.Store(&b)
	return nil
}

// ActiveBackend returns the currently selected compute backend.
func ActiveBackend() Backend { return *activeBackendPtr.Load() }

// BackendQuantized reports whether the active backend wants frozen
// projections to run their int8 path.
func BackendQuantized() bool { return ActiveBackend().Quantized() }

// genericBackend is the golden reference: the exact loops the kernels
// ran before backends existed, bit-identical output included.
type genericBackend struct{}

func (genericBackend) Name() string    { return "generic" }
func (genericBackend) Quantized() bool { return false }

func (genericBackend) MatMulRows(out, a, b []float32, start, end, k, n int) {
	for i := start; i < end; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		clear(orow)
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func (genericBackend) MatMulTRows(out, a, b []float32, start, end, k, n int, alpha float32) {
	matmulTRows(out, a, b, start, end, k, n, alpha)
}

func (genericBackend) TMatMulRows(out, a, b []float32, start, end, k, m, n int) {
	for i := start; i < end; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func (genericBackend) GELURows(dst, a []float32, start, end int) {
	for i := start; i < end; i++ {
		dst[i] = geluScalar(a[i])
	}
}

func (genericBackend) GELUGradRows(dst, pre, g []float32, start, end int) {
	for i := start; i < end; i++ {
		dst[i] = g[i] * geluGradScalar(pre[i])
	}
}

func (genericBackend) SoftmaxRows(dst, a []float32, start, end, cols int) {
	softmaxRows(dst, a, start, end, cols)
}
