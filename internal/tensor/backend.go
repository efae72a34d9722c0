package tensor

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"pac/internal/telemetry"
)

// Backend selects how frozen-backbone projections run. Every fp32
// kernel (MatMul*, BatchMatMul*, SoftmaxInPlace, GELU*, the *Into family
// and the fused Affine* ops built on them) has exactly one
// implementation, shared by every backend; the only thing a backend
// decides is whether nn.Linear routes a frozen weight that carries an
// int8 form through the QuantMatMul* path in quant.go.
//
// A shard fully owns its output rows: accumulating kernels zero their
// own row range (clear per row) instead of relying on a pre-zeroed dst,
// which is what lets MatMulInto skip a single-threaded memset.
//
// Every product, fp32 and int8, runs one body per kind whatever the
// backend: accumRows for fp32 (A·Bᵀ through a transposed panel) and
// shardQuantMatMul for int8. On amd64 with AVX2 both run on the
// register tiles in tile_amd64.s, which give the scalar bodies' bits:
// the fp32 tiles round each product and then add it (no FMA), in index
// order, and the int8 tile's int32 sums are exact in any order.
//
// Contract per backend:
//
//   - generic: every output is the fp32 reference. Each element of a
//     product is one chain of float32 additions in index order, as in a
//     naive dot product. The one input on which that differs from a loop
//     that skips zero A entries is an A entry that is exactly 0 facing a
//     B entry that is ±Inf or NaN: the skipped term leaves the sum
//     alone, the chain yields NaN. Finite weights and activations never
//     produce that input.
//   - int8: every fp32 output — adapters, optimizer state, every
//     gradient — is bitwise generic's, because the kernels are the same
//     code. Quantized() reports true, so frozen-weight projections take
//     the int8 path instead, which is a tolerance (not bitwise) contract
//     against fp32 — see QuantizeWeight.
type Backend interface {
	Name() string
	// Quantized reports whether frozen-weight projections should take
	// the int8 path (nn.Linear checks this before using a QuantizedWeight).
	Quantized() bool
}

// backendRegistry holds every available backend; the set is fixed at
// init so lookups never need a lock.
var backendRegistry = map[string]Backend{
	"generic": backend{"generic", false},
	"int8":    backend{"int8", true},
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

// backends returns the available backend names, sorted.
func backends() []string {
	names := make([]string, 0, len(backendRegistry))
	for name := range backendRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SetBackend selects the compute backend by name. Safe to call while
// kernels are running. Returns an error naming the valid set for
// unknown names.
func SetBackend(name string) error {
	b, ok := backendRegistry[name]
	if !ok {
		return fmt.Errorf("tensor: unknown backend %q (have %s)", name, strings.Join(backends(), ", "))
	}
	activeBackendPtr.Store(&b)
	return nil
}

// ActiveBackend returns the currently selected compute backend.
func ActiveBackend() Backend { return *activeBackendPtr.Load() }

// BackendQuantized reports whether the active backend wants frozen
// projections to run their int8 path.
func BackendQuantized() bool { return ActiveBackend().Quantized() }

// backend is a registry entry: its name, and whether frozen-weight
// projections take the int8 path under it.
type backend struct {
	name      string
	quantized bool
}

func (b backend) Name() string    { return b.name }
func (b backend) Quantized() bool { return b.quantized }
