// Package pac is the public API of the Pluto-and-Charon (PAC)
// reproduction: a time- and memory-efficient collaborative edge AI
// framework for personal LLM fine-tuning (Ouyang et al., ICPP 2024).
//
// The package re-exports the library's stable surface:
//
//   - Framework / New / Config — run the real PAC workflow (Parallel
//     Adapters + activation cache + hybrid parallelism) on in-process
//     goroutine devices.
//   - Simulate / SimSpec — run the same workflow in virtual time on a
//     Jetson-Nano-class cost model, regenerating the paper's evaluation.
//   - Model configs (T5Base, BARTLarge, T5Large, Tiny, Small), device
//     presets, synthetic GLUE-shaped datasets, and the four fine-tuning
//     techniques.
//
// The Example functions (ExampleNew, ExampleDecode, Example_smartHome)
// are runnable end-to-end programs; DESIGN.md is the system inventory.
package pac

import (
	"net/http"

	"pac/internal/acache"
	"pac/internal/checkpoint"
	"pac/internal/cluster"
	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/generate"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/planner"
	"pac/internal/profiler"
	"pac/internal/serve"
	"pac/internal/train"
)

// Framework is a live PAC deployment (see core.Framework).
type Framework = core.Framework

// Config configures a real PAC fine-tuning run.
type Config = core.Config

// New builds a PAC framework: attaches Parallel Adapters, freezes the
// backbone, and wires the hybrid engine.
func New(cfg Config) *Framework { return core.New(cfg) }

// Simulation API.

// SimSpec describes one simulated fine-tuning job on an edge cluster.
type SimSpec = core.SimSpec

// SimResult is the outcome of a simulated job.
type SimResult = core.SimResult

// Engine selects the training system (Standalone, EcoFL, EDDL, PAC).
type Engine = core.Engine

// The paper's four systems.
const (
	Standalone = core.Standalone
	EcoFL      = core.EcoFL
	EDDL       = core.EDDL
	PAC        = core.PAC
)

// Simulate runs a fine-tuning job in virtual time.
func Simulate(spec SimSpec) SimResult { return core.Simulate(spec) }

// Model configurations.

// ModelConfig describes a transformer LLM shape.
type ModelConfig = model.Config

// Paper-scale and trainable model presets.
var (
	T5Base     = model.T5Base
	BARTLarge  = model.BARTLarge
	T5Large    = model.T5Large
	TinyModel  = model.Tiny
	SmallModel = model.Small
)

// NewModel instantiates a model's weights (trainable-sized configs only).
func NewModel(cfg ModelConfig) *model.Model { return model.New(cfg) }

// Fine-tuning techniques.

// Technique is a fine-tuning strategy bound to a model.
type Technique = peft.Technique

// TechniqueKind identifies a strategy.
type TechniqueKind = peft.Kind

// The four techniques the paper evaluates.
const (
	Full             = peft.Full
	Adapters         = peft.Adapters
	LoRA             = peft.LoRA
	ParallelAdapters = peft.ParallelAdapters
)

// TechniqueOptions configures technique construction (reduction factor,
// LoRA rank, init seed).
type TechniqueOptions = peft.Options

// Attach binds a technique to a model (freezing/extending it).
func Attach(kind TechniqueKind, m *model.Model, opts TechniqueOptions) Technique {
	return peft.New(kind, m, opts)
}

// Devices and clusters.

// DeviceSpec is an edge device's capability envelope.
type DeviceSpec = cluster.DeviceSpec

// Cluster is a pool of devices on one LAN.
type Cluster = cluster.Cluster

// Device presets and cluster constructors.
var (
	JetsonNano   = cluster.JetsonNano
	JetsonTX2    = cluster.JetsonTX2
	RaspberryPi4 = cluster.RaspberryPi4
	Nanos        = cluster.Nanos
	Homogeneous  = cluster.Homogeneous
)

// Datasets.

// Dataset is a synthetic GLUE-shaped dataset.
type Dataset = data.Dataset

// Task identifies one of the paper's four evaluation tasks.
type Task = data.Task

// The four GLUE tasks.
const (
	MRPC = data.MRPC
	STSB = data.STSB
	SST2 = data.SST2
	QNLI = data.QNLI
)

// GenerateDataset builds a synthetic dataset with learnable labels.
func GenerateDataset(cfg data.GenConfig) *Dataset { return data.Generate(cfg) }

// DataGenConfig controls synthetic dataset generation.
type DataGenConfig = data.GenConfig

// Evaluation and planning.

// EvalResult aggregates evaluation metrics (accuracy, F1, correlations).
type EvalResult = train.EvalResult

// Plan is a hybrid-parallel configuration (stage ranges + device groups).
type Plan = planner.Plan

// CacheStore is an activation-cache backend.
type CacheStore = acache.Store

// NewMemoryCache returns an in-memory activation cache.
func NewMemoryCache() CacheStore { return acache.NewMemoryStore() }

// NewDiskCache returns a disk-backed activation cache rooted at dir.
func NewDiskCache(dir string) (CacheStore, error) { return acache.NewDiskStore(dir) }

// PretrainBackbone trains a fresh model end-to-end on a corpus and
// returns it for use as Config.Backbone — the stand-in for the
// pretrained personal LLM that PAC adapts.
func PretrainBackbone(cfg ModelConfig, ds *Dataset, epochs int, lr float32, seed int64) *model.Model {
	return core.PretrainBackbone(cfg, ds, epochs, lr, seed)
}

// Shuffle returns a deterministically shuffled copy of a dataset —
// useful before Split when examples were appended by class.
func Shuffle(ds *Dataset, seed int64) *Dataset {
	return data.Shuffle(ds, seed)
}

// Checkpointing.

// SaveAdapters persists a technique's trained parameters to path with
// integrity checking and model-fingerprint validation on load.
func SaveAdapters(path, name string, tech Technique, cfg ModelConfig, step uint64) error {
	return checkpoint.Save(path, name, tech, cfg, step)
}

// LoadAdapters restores parameters saved by SaveAdapters into a
// technique of the same kind attached to a same-shaped backbone.
func LoadAdapters(path string, tech Technique, cfg ModelConfig) error {
	_, err := checkpoint.Load(path, tech, cfg)
	return err
}

// Profiling.

// RuntimeProfile holds measured per-block runtimes for this host.
type RuntimeProfile = profiler.Profile

// Profile measures a model's per-block forward times and the
// technique's backward time on a calibration batch (the paper's Step 1,
// run for real on this machine).
func Profile(m *model.Model, tech Technique, ds *Dataset, batch, iters int) *RuntimeProfile {
	b := data.BatchOf(ds.Examples[:min(batch, len(ds.Examples))])
	return profiler.Measure(m, tech, b, iters)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Capacity-bounded and compressed caches.

// NewBoundedCache wraps a cache with a byte budget that keeps its
// residents: a sample that does not fit is turned away and
// transparently recomputed through the backbone during cached epochs.
// Every sample is read once per epoch, so an epoch's hits are at most
// the entries resident when it began — never displacing a resident
// reaches that ceiling (hit ratio = the share of the data that fits).
func NewBoundedCache(inner CacheStore, maxBytes int64) CacheStore {
	return acache.NewBounded(inner, maxBytes)
}

// NewF16Cache returns an in-memory cache storing activations at half
// precision (half the footprint and redistribution traffic).
func NewF16Cache() CacheStore { return acache.NewF16Store() }

// Generation (sequence-to-sequence personal LLM agents).

// GenOptions control autoregressive decoding.
type GenOptions = generate.Options

// Seq2SeqDataset is a synthetic generation workload.
type Seq2SeqDataset = generate.Seq2SeqDataset

// Seq2Seq task kinds.
const (
	CopyTask      = generate.Copy
	ReverseTask   = generate.Reverse
	IncrementTask = generate.Increment
)

// GenerateSeq2Seq builds a synthetic generation dataset (Copy, Reverse
// or Increment transformations of random token sequences).
func GenerateSeq2Seq(task generate.Task, size, seqLen, targetLen, vocab int, seed int64) *Seq2SeqDataset {
	return generate.GenSeq2Seq(task, size, seqLen, targetLen, vocab, seed)
}

// Decode generates token sequences with any technique's forward pass.
func Decode(tech Technique, enc [][]int, lens []int, opts GenOptions) [][]int {
	return generate.Decode(tech, enc, lens, opts)
}

// Serving.

// Server hosts a technique for inference with hot-swappable adapters.
type Server = serve.Server

// NewInferenceServer serves a Parallel Adapters side network (what
// Attach(ParallelAdapters, …) builds); swaps publish copies, so the
// server owns side from here on.
func NewInferenceServer(side *peft.Parallel, cfg ModelConfig) *Server {
	return serve.NewServer(side, cfg)
}

// HTTPHandler exposes a server over HTTP (POST /classify, /generate,
// /swap; GET /stats).
func HTTPHandler(s *Server) http.Handler { return serve.HandlerFor(s) }

// SaveAdaptersQuantized persists adapters with symmetric int8
// quantization (~4× smaller, ≲1% relative error).
func SaveAdaptersQuantized(path, name string, tech Technique, cfg ModelConfig, step uint64) error {
	return checkpoint.SaveQuantized(path, name, tech, cfg, step)
}

// DecodeIncremental generates with per-layer KV caching — O(1) work per
// new token (frozen-backbone LM models without in-backbone adapters).
func DecodeIncremental(m *model.Model, enc [][]int, lens []int, opts GenOptions) ([][]int, error) {
	return generate.DecodeIncremental(m, enc, lens, opts)
}
