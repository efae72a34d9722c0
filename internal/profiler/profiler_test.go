package profiler

import (
	"testing"

	"pac/internal/cluster"
	"pac/internal/costmodel"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/planner"
	"pac/internal/tensor"
)

func calibration() (*peft.Parallel, *data.Batch) {
	p := peft.NewParallel(model.New(model.Small()), peft.Options{Reduction: 4})
	ds := data.Generate(data.GenConfig{Task: data.MRPC, Size: 8, SeqLen: 16, Vocab: 128, Seed: 1})
	return p, data.BatchOf(ds.Examples)
}

func TestMeasureProducesPositiveTimes(t *testing.T) {
	p, b := calibration()
	m := p.Backbone()
	prof := Measure(p, b, 2)
	if len(prof.BlockFwdSec) != len(m.Blocks) || len(prof.BlockBwdSec) != len(m.Blocks) {
		t.Fatalf("block counts %d fwd / %d bwd", len(prof.BlockFwdSec), len(prof.BlockBwdSec))
	}
	for bi, blk := range m.Blocks {
		fwd, bwd := prof.BlockFwdSec[bi], prof.BlockBwdSec[bi]
		switch blk.Kind() {
		case model.KindEncEmbed, model.KindDecEmbed:
			// Timed with the first layer of their region; no side backward.
			if fwd != 0 || bwd != 0 {
				t.Errorf("embedding block %d: fwd %v bwd %v, want 0", bi, fwd, bwd)
			}
		default:
			if fwd <= 0 || bwd <= 0 {
				t.Errorf("block %d unmeasured: fwd %v bwd %v", bi, fwd, bwd)
			}
		}
	}
	if prof.EffectiveGFLOPS <= 0 {
		t.Fatal("no throughput estimate")
	}
}

func TestMeasureLayerOrdering(t *testing.T) {
	// Encoder layers process 16 tokens, decoder layers 1: measured
	// forward time of the encoder-layer blocks must exceed the
	// decoder-layer blocks on aggregate.
	p, b := calibration()
	prof := Measure(p, b, 3)
	var enc, dec float64
	for bi, blk := range p.Backbone().Blocks {
		switch blk.Kind() {
		case model.KindEncLayer:
			enc += prof.BlockFwdSec[bi]
		case model.KindDecLayer:
			dec += prof.BlockFwdSec[bi]
		}
	}
	if enc <= dec {
		t.Fatalf("encoder layers (%.2gs) not slower than decoder layers (%.2gs)", enc, dec)
	}
}

// TestMeasureReturnsItsBuffers: a profile checks out its frozen walk's
// taps, the side graph and the side gradients, and hands every one back,
// so two calls leave the pool's outstanding bytes where they were.
func TestMeasureReturnsItsBuffers(t *testing.T) {
	for _, cfg := range []model.Config{model.Tiny(), model.Small()} {
		p := peft.NewParallel(model.New(cfg), peft.Options{Reduction: 4})
		ds := data.Generate(data.GenConfig{Task: data.MRPC, Size: 2, SeqLen: 16, Vocab: 64, Seed: 3})
		b := data.BatchOf(ds.Examples)
		before := tensor.ReadPoolStats().BytesOutstanding
		Measure(p, b, 3)
		Measure(p, b, 3)
		if grew := tensor.ReadPoolStats().BytesOutstanding - before; grew != 0 {
			t.Errorf("%s: two profiles left %d pooled bytes checked out", cfg.Name, grew)
		}
		for _, v := range p.Trainable() {
			if v.Grad != nil {
				t.Fatalf("%s: profile left a side gradient behind", cfg.Name)
			}
		}
	}
}

func TestCalibrateDevice(t *testing.T) {
	p, b := calibration()
	prof := Measure(p, b, 1)
	dev := prof.CalibrateDevice("this-host", 1<<30, 1000)
	if dev.GFLOPS != prof.EffectiveGFLOPS || dev.MemoryBytes != 1<<30 {
		t.Fatalf("calibrated spec %+v", dev)
	}
}

func TestToBlockCostsFeedsPlanner(t *testing.T) {
	p, b := calibration()
	prof := Measure(p, b, 2)
	analytic := costmodel.Costs{Cfg: p.Backbone().Cfg, Kind: peft.ParallelAdapters,
		Opts: peft.Options{Reduction: 4}, EncSeq: 16, DecSeq: 1}.Blocks()
	dev := prof.CalibrateDevice("host", 8<<30, 1000)
	measured, err := prof.ToBlockCosts(analytic, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(measured) != len(analytic) {
		t.Fatal("length mismatch")
	}
	// Round trip: measured FLOPs / device speed ≈ measured seconds.
	for i := range measured {
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"fwd", measured[i].FwdFLOPs, prof.BlockFwdSec[i]},
			{"bwd", measured[i].BwdTraverseFLOPs + measured[i].BwdTrainFLOPs, prof.BlockBwdSec[i]},
		} {
			got := c.got / dev.FLOPSPerSec()
			want := c.want / float64(prof.Batch)
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("block %d %s: %.3g vs %.3g", i, c.name, got, want)
			}
		}
		// Memory fields untouched.
		if measured[i].ParamBytes != analytic[i].ParamBytes || measured[i].ActBytes != analytic[i].ActBytes {
			t.Fatal("memory fields must be preserved")
		}
	}
	// The measured costs drive the planner to a valid plan.
	in := planner.Input{Blocks: measured, Cluster: cluster.Homogeneous(dev, 4), MiniBatch: 8}
	plan, err := planner.New(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) < 1 {
		t.Fatal("empty plan")
	}
}

func TestToBlockCostsLengthMismatch(t *testing.T) {
	p, b := calibration()
	prof := Measure(p, b, 1)
	if _, err := prof.ToBlockCosts(nil, cluster.JetsonNano()); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
