// Package profiler implements PAC's runtime profiling step (paper
// Figure 4, Step 1): it runs one training step of a Parallel Adapters
// side network over its frozen backbone on a calibration batch, the way
// a pipeline stage runs it, timing every block's forward and the side
// backward, then derives the effective device throughput that links the
// analytic cost model to the machine actually running the code.
//
// The planner normally consumes analytic block costs; ToBlockCosts
// substitutes measured times so plans reflect this host's real kernel
// performance (the paper's profiler feeds its planner the same way).
package profiler

import (
	"fmt"
	"math"
	"slices"
	"time"

	"pac/internal/autograd"
	"pac/internal/cluster"
	"pac/internal/costmodel"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

// Profile holds measured per-block runtimes for one model on this host.
type Profile struct {
	// BlockFwdSec and BlockBwdSec are the forward and backward seconds
	// of each block for the calibration batch (whole batch).
	BlockFwdSec, BlockBwdSec []float64
	// Batch is the calibration batch size.
	Batch int
	// EffectiveGFLOPS is the throughput implied by the analytic forward
	// FLOPs divided by the measured forward time.
	EffectiveGFLOPS float64
}

// Measure profiles p on a calibration batch (the paper's calibration
// dataset) by running it as a pipeline stage does: one
// model.FrozenForward walk whose visit runs each tap's side step, then
// the side head, the loss and one backward. A layer's forward is the
// gap that ends at its tap, its side step included (an embedding's
// lands in the first layer of its region, the side head's in the head
// block); the backward is spread over blocks by analytic FLOPs. The
// minimum over iters runs is kept. Every buffer a run checks out goes
// back to the pool, gradients included: p is left with none.
func Measure(p *peft.Parallel, b *data.Batch, iters int) *Profile {
	m := p.Backbone()
	r := p.HeadParams()[0].Value.Dim(0) // the side head's weight is [r, classes]
	analytic := costmodel.Costs{Cfg: m.Cfg, Kind: peft.ParallelAdapters, Opts: peft.Options{Reduction: m.Cfg.Hidden / r},
		EncSeq: len(b.Enc[0]), DecSeq: len(b.Dec[0])}.Blocks()
	layers := m.LayerBlocks()
	prof := &Profile{Batch: b.Size(), BlockFwdSec: make([]float64, len(m.Blocks)), BlockBwdSec: make([]float64, len(m.Blocks))}
	bwd := math.Inf(1)
	for it := 0; it < max(iters, 1); it++ {
		sec := make([]float64, len(m.Blocks))
		last := time.Now()
		stamp := func(bi int) {
			now := time.Now()
			sec[bi], last = now.Sub(last).Seconds(), now
		}
		s := &model.State{EncIDs: b.Enc, DecIDs: b.Dec, EncLens: b.Lens}
		side := p.SideInit(len(b.Enc), len(b.Enc[0]))
		taps := m.FrozenForward(s, 0, len(m.Blocks), func(ti int, tap *tensor.Tensor) {
			if ti == m.Cfg.Layers {
				side = p.CrossOver(side, tap.Dim(1))
			}
			side = p.SideStep(ti, tap, side)
			stamp(layers[ti])
		})
		loss := train.Loss(p.Head(side), b, false)
		stamp(len(m.Blocks) - 1)
		autograd.Backward(loss)
		bwd = min(bwd, time.Since(last).Seconds())

		// The walk's final states are its last encoder and decoder taps.
		autograd.Release(loss)
		tensor.PutTensor(loss.Value)
		for _, t := range taps {
			tensor.PutTensor(t)
		}
		for _, v := range p.Trainable() {
			tensor.PutTensor(v.Grad)
			v.Grad = nil
		}
		for i, d := range sec {
			if it == 0 || d < prof.BlockFwdSec[i] {
				prof.BlockFwdSec[i] = d
			}
		}
	}
	spread(prof.BlockBwdSec, analytic, bwd, bwdFLOPs)
	prof.calibrate(analytic)
	return prof
}

// FromStageSeconds folds measured per-stage forward/backward times —
// as the health monitor accumulates them during a live run — into a
// Profile, spreading each stage's times over its blocks by their
// analytic forward and backward FLOPs. This is the profile-feedback
// path: a drift-triggered re-plan reuses the exact
// ToBlockCosts/CalibrateDevice machinery startup profiling uses, but
// fed by live measurements instead of a calibration batch. boundaries
// has stages+1 entries covering all of analytic; stageFwd/stageBwd are
// the measured seconds per stage for one batch-sized mini-batch.
func FromStageSeconds(analytic []costmodel.BlockCost, boundaries []int, stageFwd, stageBwd []float64, batch int) (*Profile, error) {
	S := len(boundaries) - 1
	if S < 1 || len(stageFwd) != S || len(stageBwd) != S {
		return nil, fmt.Errorf("profiler: %d boundaries vs %d fwd / %d bwd stage times",
			len(boundaries), len(stageFwd), len(stageBwd))
	}
	if boundaries[0] != 0 || boundaries[S] != len(analytic) {
		return nil, fmt.Errorf("profiler: boundaries %v do not cover %d blocks", boundaries, len(analytic))
	}
	p := &Profile{Batch: max(batch, 1), BlockFwdSec: make([]float64, len(analytic)), BlockBwdSec: make([]float64, len(analytic))}
	for s := 0; s < S; s++ {
		lo, hi := boundaries[s], boundaries[s+1]
		spread(p.BlockFwdSec[lo:hi], analytic[lo:hi], stageFwd[s], fwdFLOPs)
		spread(p.BlockBwdSec[lo:hi], analytic[lo:hi], stageBwd[s], bwdFLOPs)
	}
	p.calibrate(analytic)
	return p, nil
}

// spread divides total seconds over dst in proportion to each block's
// analytic weight, evenly when the weights sum to zero.
func spread(dst []float64, blocks []costmodel.BlockCost, total float64, weight func(costmodel.BlockCost) float64) {
	var sum float64
	for _, b := range blocks {
		sum += weight(b)
	}
	for i, b := range blocks {
		if sum > 0 {
			dst[i] = total * weight(b) / sum
		} else {
			dst[i] = total / float64(len(blocks))
		}
	}
}

func fwdFLOPs(b costmodel.BlockCost) float64 { return b.FwdFLOPs }
func bwdFLOPs(b costmodel.BlockCost) float64 { return b.BwdTraverseFLOPs + b.BwdTrainFLOPs }

// calibrate sets EffectiveGFLOPS: analytic forward FLOPs over the
// measured forward seconds.
func (p *Profile) calibrate(analytic []costmodel.BlockCost) {
	var sec float64
	for _, s := range p.BlockFwdSec {
		sec += s
	}
	if sec > 0 {
		p.EffectiveGFLOPS = costmodel.Totals(analytic).FwdFLOPs * float64(p.Batch) / sec / 1e9
	}
}

// CalibrateDevice returns a DeviceSpec describing this host, suitable
// for planning runs that will execute here: measured throughput, plus
// caller-supplied memory and link parameters.
func (p *Profile) CalibrateDevice(name string, memoryBytes int64, linkMbps float64) cluster.DeviceSpec {
	return cluster.DeviceSpec{
		Name:           name,
		GFLOPS:         p.EffectiveGFLOPS,
		MemoryBytes:    memoryBytes,
		LinkMbps:       linkMbps,
		LinkLatencySec: 1e-3,
	}
}

// ToBlockCosts overlays measured times onto analytic block costs: each
// block's forward and backward FLOPs are rescaled so that
// FLOPs/deviceGFLOPS equals its measured seconds per sample, the
// backward split between traversal and weight gradients as the analytic
// costs split it, and the memory and traffic fields are kept. The
// result feeds the planner directly.
func (p *Profile) ToBlockCosts(analytic []costmodel.BlockCost, dev cluster.DeviceSpec) ([]costmodel.BlockCost, error) {
	if len(analytic) != len(p.BlockFwdSec) {
		return nil, fmt.Errorf("profiler: %d measured blocks vs %d analytic", len(p.BlockFwdSec), len(analytic))
	}
	perSec := dev.FLOPSPerSec() / float64(p.Batch) // whole-batch seconds → per-sample FLOPs
	out := slices.Clone(analytic)
	for i, b := range analytic {
		out[i].FwdFLOPs = p.BlockFwdSec[i] * perSec
		bwd, frac := p.BlockBwdSec[i]*perSec, 0.0
		if a := bwdFLOPs(b); a > 0 {
			frac = b.BwdTrainFLOPs / a
		}
		out[i].BwdTrainFLOPs = bwd * frac
		out[i].BwdTraverseFLOPs = bwd * (1 - frac)
	}
	return out, nil
}
