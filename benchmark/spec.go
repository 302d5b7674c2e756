package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// workloadNames is the fixed workload list, in run order. BENCHMARK.json
// names the five of them the driver gates, each with the reason it exists;
// train_sharded and serve_single are run by hand and by `go run ./benchmark`
// (README.md says why they are not gated). bench_smoke_test.go keeps the
// two lists from drifting.
var workloadNames = []string{
	"train_amazon", "train_text8", "train_sharded",
	"serve_single", "serve_batch", "serve_sampled",
	"replicate_follow",
}

type metricSpec struct {
	Name string
	Unit string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them. throughput counts the workload's own unit of work: training
// samples on train_* and on replicate_follow (the publishing trainer),
// answered queries on serve_*. latency_p50_ms is the time of one operation:
// an optimizer step with its share of the periodic rebuild on train_*, an
// HTTP request on serve_* and on replicate_follow (the replica's reader).
// The three timings are reported at nominal speed (reference.go).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_p50_ms", "ms"},
	{"p_at_1", "fraction"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is what the traced run reports, <package>.<name>. A workload
// that does not exercise a layer reports 0 for it.
var perLayer = []metricSpec{
	{"simd.dot_ns", "ns"},
	{"simd.dot_many_bias_ns_per_row", "ns"},
	{"simd.axpy_two_ns", "ns"},
	{"simd.adam_step_ns_per_elem", "ns"},
	{"simd.argmax_ns", "ns"},
	{"simd.dot_u8s8_ns", "ns"},

	{"lsh.hash_dense_us", "us"},
	{"lsh.query_us", "us"},
	{"lsh.candidates_per_query", "count"},
	{"lsh.label_recall", "fraction"},
	{"lsh.rebuild_ms", "ms"},
	{"lsh.bucket_mean_occupancy", "count"},
	{"lsh.share_pct", "%"},

	{"layer.hidden_forward_us", "us"},
	{"layer.hidden_backward_us", "us"},
	{"layer.forward_active_us", "us"},
	{"layer.accumulate_us", "us"},
	{"layer.apply_adam_ms", "ms"},
	{"layer.touched_row_fraction", "fraction"},
	{"layer.forward_all_us", "us"},
	{"layer.forward_all_batch32_us_per_query", "us"},
	{"layer.snapshot_weights_ms", "ms"},
	{"layer.snapshot_cow_ms", "ms"},
	{"layer.share_pct", "%"},

	{"quant.pack_rows_ms", "ms"},
	{"quant.forward_all_us", "us"},
	{"quant.forward_all_batch32_us_per_query", "us"},
	{"quant.packed_ratio", "fraction"},
	{"quant.share_pct", "%"},

	{"network.train_step_ms", "ms"},
	{"network.train_step_p95_ms", "ms"},
	{"network.active_per_sample", "count"},
	{"network.train_step_unattributed_pct", "%"},
	{"network.train_step_bf16_ms", "ms"},
	{"network.sharded_step_ms", "ms"},
	{"network.sharded_vs_hogwild_ratio_w1", "ratio"},
	{"network.sharded_vs_hogwild_ratio", "ratio"},
	{"network.predict_exact_f32_us", "us"},
	{"network.predict_exact_int8_us", "us"},
	{"network.predict_sampled_us", "us"},
	{"network.predict_batch32_f32_us_per_query", "us"},
	{"network.predict_batch32_int8_us_per_query", "us"},
	{"network.snapshot_ms", "ms"},
	{"network.snapshot_delta_ms", "ms"},
	{"network.apply_delta_ms", "ms"},
	{"network.save_ms", "ms"},
	{"network.load_ms", "ms"},

	{"train.overhead_pct", "%"},
	{"train.checkpoint_stall_ms", "ms"},
	{"dataset.batch_build_us", "us"},

	{"metrics.topk_us", "us"},

	{"serving.batcher_submit_us", "us"},
	{"serving.batch_fill_wait_us", "us"},
	{"serving.mean_batch_size", "count"},
	{"serving.http_overhead_us", "us"},
	{"serving.latency_p95_ms", "ms"},
	{"serving.latency_p99_ms", "ms"},
	{"serving.shed_429", "count"},
	{"serving.deadlined", "count"},
	{"serving.publish_swap_us", "us"},
	{"serving.share_pct", "%"},

	{"replicate.encode_base_ms", "ms"},
	{"replicate.base_bytes", "bytes"},
	{"replicate.encode_delta_ms", "ms"},
	{"replicate.delta_bytes", "bytes"},
	{"replicate.delta_to_base_ratio", "fraction"},
	{"replicate.read_message_ms", "ms"},
	{"replicate.hub_publish_ms", "ms"},
	{"replicate.resyncs", "count"},
	{"replicate.version_lag_max", "count"},
	{"replicate.publish_to_served_ms", "ms"},
	{"replicate.delta_bytes_per_step", "bytes"},
	{"replicate.reader_queries_per_s", "1/s"},
	{"replicate.share_pct", "%"},

	{"costmodel.train_step_pred_ms", "ms"},
	{"costmodel.train_step_measured_over_pred", "ratio"},

	{"bench.trace_overhead_pct", "%"},
}

func unitOf(specs []metricSpec, name string) (string, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s.Unit, true
		}
	}
	return "", false
}

// benchmarkFile is the part of BENCHMARK.json this program reads: -compare
// takes each end-to-end metric's direction and bound from it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
