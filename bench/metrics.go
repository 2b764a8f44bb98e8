package main

import (
	"math"
	"sort"
)

// metricSpec names one printed metric. The same names, units and
// directions are listed in BENCHMARK.json; bench_test.go keeps the two in
// step.
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the metrics an untraced run prints: what a caller of
// subgraphd sees.
var endToEnd = []metricSpec{
	{"read_mean_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// layerSpec is a per-layer metric of the traced run, with the end-to-end
// metrics it should move and the workloads it should move on (it is
// measured, and predicted flat, on the others).
type layerSpec struct {
	metricSpec
	moves []string
	on    []string
}

var (
	allWorkloads = []string{"detect-mix", "count-fresh", "churn", "cluster-hits"}
	detectMix    = []string{"detect-mix"}
	countFresh   = []string{"count-fresh"}
	churnOnly    = []string{"churn"}
	clusterHits  = []string{"cluster-hits"}
)

// perLayer are the metrics a traced run prints. Every one is measured on
// every workload: library replays run on the workload's own inputs, and
// span time is reported as a share of read time, which is legitimately
// zero where a workload never takes that path.
var perLayer = []layerSpec{
	{metricSpec{"graph.parse_ms", "ms"}, []string{"throughput_ops_s"}, countFresh},
	{metricSpec{"graph.digest_ms", "ms"}, []string{"throughput_ops_s"}, countFresh},
	{metricSpec{"graph.bitadj_build_ms", "ms"}, []string{"read_mean_ms"}, countFresh},
	{metricSpec{"graph.apply_delta_us", "us"}, []string{"throughput_ops_s"}, churnOnly},
	{metricSpec{"congest.network_build_ms", "ms"}, []string{"setup_s"}, detectMix},
	{metricSpec{"core.detect_ms", "ms"}, []string{"read_mean_ms", "throughput_ops_s"}, detectMix},
	{metricSpec{"core.detect_p99_ms", "ms"}, []string{"read_p95_ms"}, detectMix},
	{metricSpec{"core.rounds_per_detect", "count"}, []string{"throughput_ops_s"}, detectMix},
	{metricSpec{"core.messages_per_detect", "count"}, []string{"throughput_ops_s"}, detectMix},
	{metricSpec{"kernel.count_ms", "ms"}, []string{"read_mean_ms"}, countFresh},
	{metricSpec{"kernel.count_delta_us", "us"}, []string{"throughput_ops_s"}, churnOnly},
	{metricSpec{"serve.cache_get_us", "us"}, []string{"read_mean_ms"}, clusterHits},
	{metricSpec{"serve.spec_key_us", "us"}, []string{"read_mean_ms"}, clusterHits},
	{metricSpec{"serve.server_ms", "ms"}, []string{"read_mean_ms"}, allWorkloads},
	{metricSpec{"serve.server_p99_ms", "ms"}, []string{"read_p95_ms"}, allWorkloads},
	{metricSpec{"serve.queue_wait_pct", "%"}, []string{"read_p95_ms"}, detectMix},
	{metricSpec{"serve.engine_run_pct", "%"}, []string{"read_mean_ms"}, detectMix},
	{metricSpec{"serve.bitset_build_pct", "%"}, []string{"read_mean_ms"}, countFresh},
	{metricSpec{"serve.kernel_run_pct", "%"}, []string{"read_mean_ms"}, countFresh},
	{metricSpec{"serve.cache_hit_ratio", "ratio"}, nil, allWorkloads},
	{metricSpec{"serve.jobs_per_kernel_run", "ratio"}, []string{"read_mean_ms"}, countFresh},
	{metricSpec{"serve.incremental_ratio", "ratio"}, []string{"throughput_ops_s"}, churnOnly},
	{metricSpec{"serve.forwarded_per_delta", "count"}, []string{"throughput_ops_s"}, churnOnly},
	{metricSpec{"http.submit_ms", "ms"}, []string{"read_mean_ms"}, allWorkloads},
	{metricSpec{"http.poll_ms", "ms"}, []string{"read_mean_ms"}, allWorkloads},
	{metricSpec{"http.upload_ms", "ms"}, []string{"throughput_ops_s"}, countFresh},
	{metricSpec{"http.delta_ms", "ms"}, []string{"throughput_ops_s"}, churnOnly},
	{metricSpec{"http.polls_per_read", "count"}, []string{"read_mean_ms", "read_p95_ms"}, []string{"detect-mix", "cluster-hits"}},
	{metricSpec{"client.gap_ms", "ms"}, []string{"read_mean_ms"}, []string{"detect-mix", "cluster-hits"}},
	{metricSpec{"client.gap_p99_ms", "ms"}, []string{"read_p95_ms"}, []string{"detect-mix", "cluster-hits"}},
	{metricSpec{"cluster.hit_ratio", "ratio"}, nil, clusterHits},
	{metricSpec{"cluster.router_hop_ms", "ms"}, []string{"read_mean_ms"}, clusterHits},
	{metricSpec{"runtime.alloc_kb_per_op", "kB"}, []string{"throughput_ops_s", "read_p95_ms"}, allWorkloads},
	{metricSpec{"runtime.gc_cpu_pct", "%"}, []string{"throughput_ops_s", "read_p95_ms"}, allWorkloads},
	{metricSpec{"trace.overhead_pct", "%"}, nil, allWorkloads},
	{metricSpec{"trace.unattributed_pct", "%"}, nil, allWorkloads},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	value float64
	n     int
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, sorting xs in place; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p/100*float64(len(xs)))) - 1
	idx = max(0, min(idx, len(xs)-1))
	return xs[idx]
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// which is how the benchmark's spread is judged. xs needs two samples.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(d)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// median of xs (not modified); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
