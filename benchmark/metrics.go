package main

import (
	"os"
	"runtime"
	"strings"

	"pac/internal/tensor"
)

var workloadNames = []string{"finetune_cached", "finetune_evict", "serve_classify", "serve_generate"}

type metricDef struct{ name, unit string }

// endToEnd lists what an untraced run reports, in BENCHMARK.json order.
// Every workload reports every name; README.md says what "work",
// "phase a", "phase b" and "op" are on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mean_bytes", "bytes"},
	{"work_per_s", "1/s"},
	{"phase_a_per_s", "1/s"},
	{"phase_b_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// perLayer lists what a traced run reports, layer by layer. A metric of
// a layer the workload does not execute reads 0.
var perLayer = []metricDef{
	{"core.new_s", "s"},
	{"core.phase1_s", "s"},
	{"core.redistribute_s", "s"},
	{"core.cached_s", "s"},
	{"core.recomputed", "count"},
	{"core.steady_step_ms", "ms"},

	{"parallel.pp_stage0_busy_s", "s"},
	{"parallel.pp_stage1_busy_s", "s"},
	{"parallel.pp_idle_share", "share"},
	{"parallel.pp_bytes", "bytes"},
	{"parallel.hybrid_step_p50_ms", "ms"},
	{"parallel.dp_compute_s", "s"},
	{"parallel.dp_step_s", "s"},
	{"parallel.dp_sync_share", "share"},
	{"parallel.dp_bytes", "bytes"},
	{"parallel.allreduce_ms", "ms"},

	{"acache.get_calls", "count"},
	{"acache.get_s", "s"},
	{"acache.put_calls", "count"},
	{"acache.put_s", "s"},
	{"acache.hits", "count"},
	{"acache.misses", "count"},
	{"acache.hit_ratio", "share"},
	{"acache.evicted", "count"},
	{"acache.peak_bytes", "bytes"},

	{"model.new_s", "s"},
	{"model.quantize_s", "s"},
	{"model.forward_ms", "ms"},
	{"model.forward_b1_ms", "ms"},

	{"peft.forward_ms", "ms"},
	{"peft.side_forward_ms", "ms"},
	{"autograd.backward_ms", "ms"},
	{"autograd.release_ms", "ms"},
	{"train.clip_ms", "ms"},
	{"train.adam_step_ms", "ms"},

	{"tensor.matmul_ms", "ms"},
	{"tensor.matmul_b1_ms", "ms"},
	{"tensor.matmult_ms", "ms"},
	{"tensor.batch_matmult_scaled_ms", "ms"},
	{"tensor.softmax_ms", "ms"},
	{"tensor.gelu_ms", "ms"},
	{"tensor.layernorm_ms", "ms"},
	{"tensor.quant_matmul_ms", "ms"},
	{"tensor.pool_gets", "count"},
	{"tensor.pool_hit_ratio", "share"},
	{"tensor.pool_bytes_outstanding", "bytes"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.peak_rss_bytes", "bytes"},

	{"memledger.total_peak_bytes", "bytes"},
	{"memledger.acache_peak_bytes", "bytes"},
	{"memledger.pool_inuse_peak_bytes", "bytes"},
	{"memledger.autograd_tape_peak_bytes", "bytes"},
	{"memledger.parallel_frames_peak_bytes", "bytes"},
	{"memledger.serve_inflight_peak_bytes", "bytes"},
	{"memledger.generate_kv_peak_bytes", "bytes"},

	{"serve.handler_p50_ms", "ms"},
	{"serve.direct_p50_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.lock_wait_ms", "ms"},
	{"serve.forward_ms", "ms"},
	{"serve.swaps", "count"},
	{"serve.swap_p50_ms", "ms"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.client_encode_ms", "ms"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.load_ms", "ms"},

	{"generate.decode_p50_ms", "ms"},
	{"generate.per_token_ms", "ms"},
	{"generate.tokens", "count"},
	{"generate.incremental_per_token_ms", "ms"},

	{"trace.overhead_share", "share"},
	{"trace.coverage_share", "share"},
}

// stamp describes the machine, the build and the run, so that two result
// files taken under different conditions can be refused as incomparable.
func (b *bench) stamp() map[string]interface{} {
	return map[string]interface{}{
		"workload":    b.opt.workload,
		"seed":        b.opt.seed,
		"seconds":     b.opt.seconds,
		"traced":      b.opt.trace,
		"smoke":       b.opt.smoke,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"max_workers": tensor.MaxWorkers(),
		"go":          runtime.Version(),
		"goarch":      runtime.GOARCH,
		"backend":     tensor.ActiveBackend().Name(),
		"cpu_avx2":    cpuHasAVX2(),
		"commit":      gitCommit(),
		"operations":  b.ops,
	}
}

// cpuHasAVX2 reports whether the int8 backend's AVX2 kernel can be
// active: the tensor package keeps its own flag unexported, and on
// amd64 it follows the CPU's avx2 feature bit, read here from the
// kernel's view of it.
func cpuHasAVX2() bool {
	if runtime.GOARCH != "amd64" {
		return false
	}
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "flags") {
			return strings.Contains(" "+line+" ", " avx2 ")
		}
	}
	return false
}

// gitCommit reads the checked-out commit without running git: the
// driver's checkout is not a repository, and then the stamp says so.
func gitCommit() string {
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if blob, err := os.ReadFile(dir + "/" + strings.TrimPrefix(ref, "ref: ")); err == nil {
			return strings.TrimSpace(string(blob))
		}
	}
	return "unknown"
}
