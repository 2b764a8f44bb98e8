// Command bench is subgraphd's end-to-end benchmark. It starts the daemon
// in-process on loopback (one node, or a cluster router over worker
// nodes), drives one of four seeded workloads through serve.Client from
// two closed-loop clients, checks every answer, and prints each metric
// by name with its unit and sample count. The last line of standard
// output is a JSON summary:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"read_mean_ms": {"value": 16.5, "unit": "ms"}, ...}}
//
// Run it from the repository root through the build script:
//
//	bash bench/run.sh --workload detect-mix --seed 1 --seconds 20 --trace 0
//
// --trace 1 makes a separate traced run that prints the per-layer
// metrics instead; --repeat N runs N seeds and prints each metric's
// median, quartiles and spread against the bounds in BENCHMARK.json.
// README.md defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	os.Exit(execute(os.Args[1:], os.Stdout, os.Stderr))
}

func execute(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 makes a traced run that prints the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run N times, with seeds seed..seed+N-1, and print each metric's spread")
	nodes := fs.Int("nodes", 0, "worker nodes (0 takes the workload's; more than 1 puts a router in front)")
	descPath := fs.String("descriptor", "BENCHMARK.json", "benchmark descriptor whose bounds -repeat checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := workloadByName(*name)
	if wl == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: --seconds must be positive\n")
		return 2
	}
	cfg := config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, nodes: *nodes}
	if *repeat > 0 {
		return repeatRuns(cfg, *repeat, *descPath, stdout, stderr)
	}
	res, err := run(cfg)
	return report(res, err, specsOf(cfg.trace), stdout, stderr)
}

// report prints a run's outcome and returns the exit code: 0 for a run
// whose answers all checked out, 1 otherwise. A run that never produced
// a result prints no summary line.
func report(res *result, err error, specs []metricSpec, stdout, stderr io.Writer) int {
	if res == nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "bench: a client stopped after a failed op:", f)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	if err := printResult(stdout, res, specs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// specsOf lists the metrics a run of the mode prints.
func specsOf(traced bool) []metricSpec {
	if !traced {
		return endToEnd
	}
	out := make([]metricSpec, len(perLayer))
	for i, l := range perLayer {
		out[i] = l.metricSpec
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult prints one line per metric, then the JSON summary line.
func printResult(w io.Writer, res *result, specs []metricSpec) error {
	sum := summary{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]jsonMetric, len(specs))}
	for _, sp := range specs {
		m := res.metrics[sp.name]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", sp.name)
		}
		fmt.Fprintf(w, "%-26s %14.6g %-6s n=%d\n", sp.name, m.value, sp.unit, m.n)
		sum.Metrics[sp.name] = jsonMetric{m.value, sp.unit}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// descriptor is BENCHMARK.json.
type descriptor struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
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

func readDescriptor(path string) (*descriptor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d descriptor
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// repeatRuns runs the workload n times with consecutive seeds and prints,
// per metric, the median, the quartiles, the interquartile and the
// max-min spread as shares of the median. A metric is flagged when its
// interquartile spread exceeds a third of its bound (the steadiness the
// benchmark needs) or its max-min spread exceeds the bound.
func repeatRuns(cfg config, n int, descPath string, stdout, stderr io.Writer) int {
	bounds := make(map[string]float64)
	if d, err := readDescriptor(descPath); err != nil {
		fmt.Fprintf(stderr, "bench: no bounds to check against: %v\n", err)
	} else {
		for _, e := range d.EndToEnd {
			bounds[e.Name] = e.Bound
		}
	}
	specs := specsOf(cfg.trace)
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		res, err := run(c)
		if err != nil || res == nil || !res.correct || res.failed > 0 {
			fmt.Fprintf(stderr, "bench: run %d (seed %d) did not pass: %v\n", i+1, c.seed, err)
			return 1
		}
		for _, sp := range specs {
			values[sp.name] = append(values[sp.name], res.metrics[sp.name].value)
		}
		fmt.Fprintf(stderr, "bench: run %d/%d (seed %d) done\n", i+1, n, c.seed)
	}
	fmt.Fprintf(stdout, "%s, %d runs, seeds %d..%d\n", cfg.wl.name, n, cfg.seed, cfg.seed+int64(n)-1)
	fmt.Fprintf(stdout, "%-26s %12s %12s %12s %8s %8s %6s\n", "metric", "median", "q1", "q3", "iqr%", "range%", "bound%")
	for _, sp := range specs {
		xs := values[sp.name]
		med := median(xs)
		q := [3]float64{med, med, med}
		if len(xs) >= 2 {
			q = quartiles(xs)
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		iqr := 100 * ratio(q[2]-q[0], math.Abs(med))
		spread := 100 * ratio(hi-lo, math.Abs(med))
		bound, flag := 100*bounds[sp.name], ""
		if bound > 0 && iqr > bound/3 {
			flag += " UNSTEADY"
		}
		if bound > 0 && spread > bound {
			flag += " OVER-BOUND"
		}
		fmt.Fprintf(stdout, "%-26s %12.6g %12.6g %12.6g %8.2f %8.2f %6.1f%s\n",
			sp.name, med, q[0], q[2], iqr, spread, bound, flag)
	}
	return 0
}
