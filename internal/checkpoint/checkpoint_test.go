package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

func trainedTechnique(t *testing.T, kind peft.Kind) (peft.Technique, model.Config) {
	t.Helper()
	cfg := model.Tiny()
	m := model.New(cfg)
	tech := peft.New(kind, m, peft.Options{Reduction: 4, LoRARank: 4})
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 16, SeqLen: 8, Vocab: 64, Seed: 1})
	tr := &train.Trainer{Tech: tech, Opt: train.NewSGD(tech.Trainable(), 0.05, 0, 0)}
	tr.TrainBatch(data.BatchOf(ds.Examples))
	return tech, cfg
}

func logitsOf(tech peft.Technique) []float32 {
	res := tech.Forward([][]int{{3, 4, 5, 6}}, [][]int{{0}}, []int{4}, false)
	return append([]float32(nil), res.Logits.Value.Data...)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, kind := range peft.AllKinds() {
		tech, cfg := trainedTechnique(t, kind)
		want := logitsOf(tech)
		path := filepath.Join(t.TempDir(), "adapter.pack")
		if err := Save(path, "unit", tech, cfg, 7); err != nil {
			t.Fatal(err)
		}

		// Fresh replica, different weights until loaded.
		m2 := model.New(cfg)
		tech2 := peft.New(kind, m2, peft.Options{Reduction: 4, LoRARank: 4, Seed: 123})
		ck, err := Load(path, tech2, cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ck.Step != 7 || ck.Name != "unit" || ck.Kind != kind {
			t.Fatalf("metadata %+v", ck)
		}
		got := logitsOf(tech2)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: logits diverge after load", kind)
			}
		}
	}
}

func TestLoadRejectsKindMismatch(t *testing.T) {
	tech, cfg := trainedTechnique(t, peft.ParallelAdapters)
	path := filepath.Join(t.TempDir(), "a.pack")
	if err := Save(path, "x", tech, cfg, 0); err != nil {
		t.Fatal(err)
	}
	m := model.New(cfg)
	other := peft.New(peft.LoRA, m, peft.Options{LoRARank: 4})
	if _, err := Load(path, other, cfg); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestLoadRejectsConfigMismatch(t *testing.T) {
	tech, cfg := trainedTechnique(t, peft.ParallelAdapters)
	path := filepath.Join(t.TempDir(), "a.pack")
	if err := Save(path, "x", tech, cfg, 0); err != nil {
		t.Fatal(err)
	}
	otherCfg := model.Small()
	m := model.New(otherCfg)
	other := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
	if _, err := Load(path, other, otherCfg); err == nil {
		t.Fatal("config mismatch accepted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tech, cfg := trainedTechnique(t, peft.Adapters)
	path := filepath.Join(t.TempDir(), "a.pack")
	if err := Save(path, "x", tech, cfg, 0); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: CRC must catch it.
	blob[len(blob)/2] ^= 0xff
	if _, err := decode(blob); err == nil {
		t.Fatal("corruption undetected")
	}
	// Truncation.
	if _, err := decode(blob[:10]); err == nil {
		t.Fatal("truncation undetected")
	}
	if _, err := decode(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	// A valid CRC around a shape whose element count overflows.
	if _, err := decode(overflowPACK()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overflowing shape: %v, want ErrCorrupt", err)
	}
}

// overflowPACK is a 56-byte checkpoint with a valid header and CRC
// around one fp32 tensor of shape [0xFFFFFFFF, 0xFFFFFFFF] and no
// values, whose element count overflows int.
func overflowPACK() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, magic)
	b = le.AppendUint32(b, version)
	b = le.AppendUint32(b, 0) // flags: fp32
	b = le.AppendUint32(b, uint32(peft.Adapters))
	b = le.AppendUint64(b, 0) // fingerprint
	b = le.AppendUint64(b, 0) // step
	b = le.AppendUint32(b, 0) // name length
	b = le.AppendUint32(b, 1) // tensor count
	b = le.AppendUint32(b, 2) // rank
	b = le.AppendUint32(b, 0xFFFFFFFF)
	b = le.AppendUint32(b, 0xFFFFFFFF)
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func TestFingerprintSensitivity(t *testing.T) {
	a := Fingerprint(model.Tiny())
	if a != Fingerprint(model.Tiny()) {
		t.Fatal("fingerprint not deterministic")
	}
	variants := []func(model.Config) model.Config{
		func(c model.Config) model.Config { c.Layers++; return c },
		func(c model.Config) model.Config { c.Hidden *= 2; return c },
		func(c model.Config) model.Config { c.Vocab++; return c },
		func(c model.Config) model.Config { c.NumClasses++; return c },
	}
	for i, v := range variants {
		if Fingerprint(v(model.Tiny())) == a {
			t.Fatalf("variant %d collides", i)
		}
	}
}

func TestMultiTaskAdapterSwap(t *testing.T) {
	// The PEFT deployment story: one backbone, one checkpoint per task,
	// swapped at runtime.
	cfg := model.Tiny()
	dir := t.TempDir()

	// Train two tasks' adapters on separate replicas and save both.
	var wantA, wantB []float32
	for i, seed := range []int64{11, 22} {
		m := model.New(cfg)
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4, Seed: seed})
		ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 16, SeqLen: 8, Vocab: 64, Seed: seed})
		tr := &train.Trainer{Tech: tech, Opt: train.NewSGD(tech.Trainable(), 0.05, 0, 0)}
		tr.TrainBatch(data.BatchOf(ds.Examples))
		if err := Save(filepath.Join(dir, []string{"a.pack", "b.pack"}[i]), "task", tech, cfg, 1); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantA = logitsOf(tech)
		} else {
			wantB = logitsOf(tech)
		}
	}

	// One serving replica hot-swaps both.
	m := model.New(cfg)
	serving := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4, Seed: 99})
	if _, err := Load(filepath.Join(dir, "a.pack"), serving, cfg); err != nil {
		t.Fatal(err)
	}
	gotA := logitsOf(serving)
	if _, err := Load(filepath.Join(dir, "b.pack"), serving, cfg); err != nil {
		t.Fatal(err)
	}
	gotB := logitsOf(serving)
	for i := range wantA {
		if wantA[i] != gotA[i] {
			t.Fatal("task A adapters wrong after swap")
		}
		if wantB[i] != gotB[i] {
			t.Fatal("task B adapters wrong after swap")
		}
	}
}

func TestQuantizedRoundTripClose(t *testing.T) {
	tech, cfg := trainedTechnique(t, peft.ParallelAdapters)
	want := logitsOf(tech)
	full := filepath.Join(t.TempDir(), "full.pack")
	quant := filepath.Join(t.TempDir(), "quant.pack")
	if err := Save(full, "f", tech, cfg, 1); err != nil {
		t.Fatal(err)
	}
	if err := SaveQuantized(quant, "q", tech, cfg, 1); err != nil {
		t.Fatal(err)
	}
	// Size: quantized ≈ 1/4 of full (payload dominated).
	fi, _ := os.Stat(full)
	qi, _ := os.Stat(quant)
	if float64(qi.Size()) > 0.45*float64(fi.Size()) {
		t.Fatalf("quantized %d bytes not ≪ full %d", qi.Size(), fi.Size())
	}
	// Quality: logits after loading the quantized snapshot stay close.
	m2 := model.New(cfg)
	tech2 := peft.New(peft.ParallelAdapters, m2, peft.Options{Reduction: 4, Seed: 9})
	ck, err := Load(quant, tech2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Quantized {
		t.Fatal("quantized flag lost")
	}
	got := logitsOf(tech2)
	for i := range want {
		d := float64(want[i] - got[i])
		if d > 0.05 || d < -0.05 {
			t.Fatalf("logit %d drifted: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestQuantizedParamErrorBounded(t *testing.T) {
	tech, cfg := trainedTechnique(t, peft.LoRA)
	blob := encode(&Checkpoint{Kind: peft.LoRA, Fingerprint: Fingerprint(cfg),
		Params: values(tech.Trainable()), Quantized: true})
	ck, err := decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	orig := values(tech.Trainable())
	for ti := range orig {
		maxAbs := float64(0)
		for _, v := range orig[ti].Data {
			if a := float64(v); a > maxAbs {
				maxAbs = a
			} else if -a > maxAbs {
				maxAbs = -a
			}
		}
		bound := maxAbs/127 + 1e-7 // half a quantization step, rounded up
		for j := range orig[ti].Data {
			d := float64(orig[ti].Data[j] - ck.Params[ti].Data[j])
			if d < 0 {
				d = -d
			}
			if d > bound {
				t.Fatalf("tensor %d elem %d: error %v exceeds %v", ti, j, d, bound)
			}
		}
	}
}

// FuzzDecodeCheckpoint: decoding never panics, every error but an
// unsupported version wraps ErrCorrupt, and a decoded fp32 checkpoint
// re-encodes to its input bytes. Each input is also decoded with a
// fresh CRC footer appended, so mutations get past the CRC check.
func FuzzDecodeCheckpoint(f *testing.F) {
	g := tensor.NewRNG(3)
	params := []*tensor.Tensor{g.Randn(1, 4, 3), g.Randn(1, 5)}
	for _, quantized := range []bool{false, true} {
		f.Add(encode(&Checkpoint{Kind: peft.ParallelAdapters, Fingerprint: Fingerprint(model.Tiny()),
			Step: 7, Name: "seed", Params: params, Quantized: quantized}))
	}
	f.Add(overflowPACK())
	f.Add(overflowPACS())
	f.Add(encodeSnapshot(sampleSnapshot()))
	f.Fuzz(func(t *testing.T, in []byte) {
		signed := binary.LittleEndian.AppendUint32(in[:len(in):len(in)], crc32.ChecksumIEEE(in))
		for _, b := range [][]byte{in, signed} {
			ck, err := decode(b)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "unsupported version") {
					t.Fatalf("error %v neither wraps ErrCorrupt nor names the version", err)
				}
				continue
			}
			if got := encode(ck); !ck.Quantized && !bytes.Equal(got, b) {
				t.Fatalf("decode/encode of %d bytes gave %d different bytes", len(b), len(got))
			}
		}
	})
}
