// Package checkpoint persists trained adapter weights. PAC's value
// proposition is per-task personalization of one shared backbone —
// exactly the setting where you keep one frozen LLM on disk and a small
// checkpoint file per task (the paper's multi-task motivation for
// PEFT). The format is self-describing and integrity-checked:
//
//	magic "PACK", format version (u32), flags (u32; bit0 = int8)
//	metadata: kind (u32), model-config fingerprint (u64),
//	          step counter (u64), name (length-prefixed UTF-8)
//	payload: parameter count (u32), then per parameter one tensor
//	         record (ndims, dims, float32 data) — or, when quantized,
//	         ndims, dims, a float32 scale and int8 data
//	footer: CRC-32 (IEEE) of everything before it
//
// Everything little-endian.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"pac/internal/autograd"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
)

// memBuffers accounts the encoded blob held in RAM for the duration of
// each durable write — every checkpoint and snapshot (PACK and PACS)
// funnels through atomicWrite, so this one reserve/release pair covers
// them all. The background Snapshotter makes this the dominant
// transient allocation of a training run.
var memBuffers = memledger.Default().Account("checkpoint.buffers")

const (
	magic   = 0x5041434b // "PACK"
	version = 2

	flagQuantized = 1 << 0 // int8 symmetric quantization per tensor
)

// ErrCorrupt marks a checkpoint or snapshot that failed integrity
// verification — truncated, bit-flipped, or torn mid-write. Callers
// test with errors.Is and fall back (previous snapshot, fresh start)
// instead of training on damaged state.
var ErrCorrupt = errors.New("integrity check failed")

// atomicWrite commits blob to path so a crash at any point leaves
// either the old file or the new one, never a torn mix: write to a
// sibling temp file, fsync it, rename over the target, fsync the
// directory so the rename itself is durable.
func atomicWrite(path string, blob []byte) error {
	memBuffers.Reserve(int64(len(blob)))
	defer memBuffers.Release(int64(len(blob)))
	tmp := path + ".tmp"
	fh, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(blob); err != nil {
		fh.Close()
		os.Remove(tmp)
		return err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		os.Remove(tmp)
		return err
	}
	if err := fh.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// Checkpoint is a deserialized adapter snapshot.
type Checkpoint struct {
	Kind        peft.Kind
	Fingerprint uint64
	Step        uint64
	Name        string
	Params      []*tensor.Tensor
	// Quantized marks snapshots stored as int8 (4× smaller, ≲1% relative
	// error); Params are dequantized on decode.
	Quantized bool
}

// Fingerprint derives a stable identifier for a model configuration so
// a checkpoint cannot be loaded into an incompatible backbone.
func Fingerprint(cfg model.Config) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(cfg.Vocab))
	mix(uint64(cfg.Layers))
	mix(uint64(cfg.Heads))
	mix(uint64(cfg.Hidden))
	mix(uint64(cfg.FFDim))
	mix(uint64(cfg.MaxSeq))
	mix(uint64(cfg.NumClasses))
	return h
}

// Save serializes a technique's trainable parameters to path.
func Save(path, name string, tech peft.Technique, cfg model.Config, step uint64) error {
	return save(path, name, tech, cfg, step, false)
}

// SaveQuantized serializes with symmetric int8 quantization: adapter
// checkpoints shrink ~4×, which matters when a household keeps one
// snapshot per task on flash or ships them between homes.
func SaveQuantized(path, name string, tech peft.Technique, cfg model.Config, step uint64) error {
	return save(path, name, tech, cfg, step, true)
}

func save(path, name string, tech peft.Technique, cfg model.Config, step uint64, quantized bool) error {
	blob := encode(&Checkpoint{
		Kind:        tech.Kind(),
		Fingerprint: Fingerprint(cfg),
		Step:        step,
		Name:        name,
		Params:      values(tech.Trainable()),
		Quantized:   quantized,
	})
	if err := atomicWrite(path, blob); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	return nil
}

// Load reads a checkpoint and installs its parameters into tech, which
// must be the same technique kind attached to a backbone with the same
// configuration fingerprint.
func Load(path string, tech peft.Technique, cfg model.Config) (*Checkpoint, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	ck, err := decode(blob)
	if err != nil {
		return nil, err
	}
	if ck.Kind != tech.Kind() {
		return nil, fmt.Errorf("checkpoint: holds %s weights, technique is %s", ck.Kind, tech.Kind())
	}
	if ck.Fingerprint != Fingerprint(cfg) {
		return nil, fmt.Errorf("checkpoint: model fingerprint mismatch")
	}
	params := tech.Trainable()
	if len(params) != len(ck.Params) {
		return nil, fmt.Errorf("checkpoint: %d tensors, technique has %d", len(ck.Params), len(params))
	}
	for i, p := range params {
		if !tensor.SameShape(p.Value, ck.Params[i]) {
			return nil, fmt.Errorf("checkpoint: tensor %d shape %v vs %v", i, ck.Params[i].Shape(), p.Value.Shape())
		}
	}
	for i, p := range params {
		p.Value.CopyFrom(ck.Params[i])
	}
	return ck, nil
}

func values(vars []*autograd.Variable) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(vars))
	for i, v := range vars {
		out[i] = v.Value
	}
	return out
}

// encode serializes a checkpoint. An fp32 tensor is one tensor record;
// an int8 tensor is the record's rank and dims, a float32 scale and
// one byte per value.
func encode(ck *Checkpoint) []byte {
	le := binary.LittleEndian
	var flags uint32
	if ck.Quantized {
		flags |= flagQuantized
	}
	b := le.AppendUint32(nil, magic)
	b = le.AppendUint32(b, version)
	b = le.AppendUint32(b, flags)
	b = le.AppendUint32(b, uint32(ck.Kind))
	b = le.AppendUint64(b, ck.Fingerprint)
	b = le.AppendUint64(b, ck.Step)
	b = le.AppendUint32(b, uint32(len(ck.Name)))
	b = append(b, ck.Name...)
	b = le.AppendUint32(b, uint32(len(ck.Params)))
	for _, t := range ck.Params {
		if !ck.Quantized {
			b = tensor.AppendRecord(b, t)
			continue
		}
		b = le.AppendUint32(b, uint32(t.Dims()))
		for _, d := range t.Shape() {
			b = le.AppendUint32(b, uint32(d))
		}
		// The quantize loop divides by the scale; tensor's int8 kernels
		// multiply by its inverse, which can round differently.
		scale := tensor.MaxAbs(t) / 127
		b = le.AppendUint32(b, math.Float32bits(scale))
		for _, v := range t.Data {
			q := int8(0)
			if scale > 0 {
				r := min(max(v/scale, -127), 127)
				if r >= 0 {
					q = int8(r + 0.5)
				} else {
					q = int8(r - 0.5)
				}
			}
			b = append(b, byte(q))
		}
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decode parses a checkpoint, verifying magic, version, and CRC. Every
// failure except an unsupported version wraps ErrCorrupt.
func decode(blob []byte) (*Checkpoint, error) {
	if len(blob) < 4 {
		return nil, fmt.Errorf("checkpoint: truncated: %w", ErrCorrupt)
	}
	body := blob[:len(blob)-4]
	if crc32.ChecksumIEEE(body) != tensor.NewReader(blob[len(body):]).U32() {
		return nil, fmt.Errorf("checkpoint: CRC mismatch: %w", ErrCorrupt)
	}
	r := tensor.NewReader(body)
	if r.U32() != magic {
		return nil, fmt.Errorf("checkpoint: bad magic: %w", ErrCorrupt)
	}
	if v := r.U32(); len(body) < 8 {
		return nil, fmt.Errorf("checkpoint: truncated header: %w", ErrCorrupt)
	} else if v != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	flags := r.U32()
	if flags&^flagQuantized != 0 {
		return nil, fmt.Errorf("checkpoint: unknown flags %#x: %w", flags, ErrCorrupt)
	}
	ck := &Checkpoint{
		Quantized:   flags&flagQuantized != 0,
		Kind:        peft.Kind(r.U32()),
		Fingerprint: r.U64(),
		Step:        r.U64(),
	}
	nameLen := r.U32()
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("checkpoint: bad name length: %w", ErrCorrupt)
	}
	ck.Name = string(r.Bytes(int(nameLen)))
	count := r.U32()
	if count > 1<<20 {
		return nil, fmt.Errorf("checkpoint: bad tensor count: %w", ErrCorrupt)
	}
	for i := uint32(0); i < count; i++ {
		var t *tensor.Tensor
		if ck.Quantized {
			dims, numel := r.Shape(1)
			scale := math.Float32frombits(r.U32())
			raw := r.Bytes(numel)
			if raw != nil {
				vals := make([]float32, numel)
				for j, q := range raw {
					vals[j] = float32(int8(q)) * scale
				}
				t = tensor.FromSlice(vals, dims...)
			}
		} else {
			t = r.Record()
		}
		if t == nil {
			break
		}
		ck.Params = append(ck.Params, t)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: %w", err, ErrCorrupt)
	}
	return ck, nil
}
