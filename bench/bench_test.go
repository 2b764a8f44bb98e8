package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/serve"
)

// tiny is a run small enough for a unit test: one set-up, a two-op
// warm-up, a fraction of a second measured and the heap sampled after
// three ops per client.
func tiny(w *workload, traced bool) config {
	return config{wl: w, seed: 1, seconds: 0.3, trace: traced, setups: 1, warmup: 2, heapOps: 3}
}

// summaryOf prints res and decodes the JSON summary line.
func summaryOf(t *testing.T, res *result, traced bool) summary {
	t.Helper()
	var out bytes.Buffer
	if err := printResult(&out, res, specsOf(traced)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out.String())
	}
	return sum
}

func loadDescriptor(t *testing.T) *descriptor {
	t.Helper()
	d, err := readDescriptor("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced:
// the answer checks pass, nothing fails, and every metric BENCHMARK.json
// lists for the mode is printed with its unit and is finite.
func TestWorkloadsSmoke(t *testing.T) {
	d := loadDescriptor(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(tiny(w, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d failures=%v",
						res.correct, res.failed, res.attempted, res.failures)
				}
				sum := summaryOf(t, res, traced)
				want := make(map[string]string)
				for _, m := range d.EndToEnd {
					if !traced {
						want[m.Name] = m.Unit
					}
				}
				for _, m := range d.PerLayer {
					if traced {
						want[m.Name] = m.Unit
					}
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(sum.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := sum.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s not printed", name)
					case got.Unit != unit:
						t.Errorf("%s printed in %q, BENCHMARK.json says %q", name, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", name, got.Value)
					}
				}
			})
		}
	}
}

// TestHeapCheckpointOutlastsDeadline: when the measured phase ends before
// every client has reached the heap checkpoint, the clients run on to it,
// so the heap is always sampled after the same amount of work.
func TestHeapCheckpointOutlastsDeadline(t *testing.T) {
	cfg := tiny(workloadByName("churn"), false)
	cfg.seconds, cfg.heapOps = 0.001, 6
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A churn op is one delta and two reads.
	if want := clients * cfg.heapOps * 3; !res.correct || res.failed != 0 || res.attempted < want {
		t.Fatalf("correct=%v failed=%d attempted=%d, want at least %d attempted",
			res.correct, res.failed, res.attempted, want)
	}
}

// TestFingerprint: the seed alone fixes a workload's inputs and op
// streams.
func TestFingerprint(t *testing.T) {
	for _, w := range workloads {
		a, b, c := fingerprint(w, 1, 20), fingerprint(w, 1, 20), fingerprint(w, 2, 20)
		if a != b {
			t.Errorf("%s: seed 1 gave two op streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w.name)
		}
	}
}

func wantMismatch(t *testing.T, what string, err error) {
	t.Helper()
	var m *mismatch
	if !errors.As(err, &m) {
		t.Errorf("%s: got %v, want an answer-check failure", what, err)
	}
}

// TestChecksRejectWrongAnswers feeds each check a served answer that
// disagrees with the library.
func TestChecksRejectWrongAnswers(t *testing.T) {
	g := subgraph.NewNetwork(subgraph.Cycle(8))
	h, err := subgraph.ParsePattern("cycle:4")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := subgraph.Detect(g, h, subgraph.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(rep.Stats)
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.JobSpec{Graph: g.G.Digest(), Pattern: "cycle:4", Options: subgraph.OptionsSpec{Seed: 3}}
	served := func(detected bool, stats []byte) detectAnswer {
		a, err := answerOf(spec, serve.JobView{Result: &serve.JobResult{Detected: detected, Stats: stats}})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	good := served(rep.Detected, stats)
	if err := checkDetect(good, rep); err != nil {
		t.Fatalf("the library's own answer fails the check: %v", err)
	}
	wantMismatch(t, "flipped Detected", checkDetect(served(!rep.Detected, stats), rep))
	altered := bytes.Replace(stats, []byte(`"Rounds":`), []byte(`"Rounds":1`), 1)
	wantMismatch(t, "altered Stats", checkDetect(served(rep.Detected, altered), rep))
	wantMismatch(t, "a repeat served other bytes", checkSame(good, served(rep.Detected, altered)))
	_, err = answerOf(spec, serve.JobView{})
	wantMismatch(t, "no result", err)

	n := int64(7)
	view := serve.JobView{Pattern: "triangle", Result: &serve.JobResult{Count: &n}}
	if err := checkCount(view, 7); err != nil {
		t.Fatal(err)
	}
	wantMismatch(t, "wrong count", checkCount(view, 8))
	wantMismatch(t, "missing count", checkCount(serve.JobView{Result: &serve.JobResult{}}, 7))

	wantMismatch(t, "wrong child digest", checkDigest("delta successor", "ab12", "cd34"))

	k := kernel.New(1)
	defer k.Close()
	k5 := graph.Complete(5) // 5 K4s, 10 triangles
	if err := checkMirror(k, k5, 5, 10); err != nil {
		t.Fatal(err)
	}
	wantMismatch(t, "wrong recount", checkMirror(k, k5, 5, 9))
}

// TestWrongAnswerFailsRun serves every workload a corrupted read: the
// run must report correct=false and exit non-zero.
func TestWrongAnswerFailsRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tiny(w, false)
			cfg.tamper = func(v *serve.JobView) {
				if v.Result == nil {
					return
				}
				r := *v.Result
				if r.Count != nil {
					c := *r.Count + 1
					r.Count = &c
				} else {
					r.Detected = !r.Detected
				}
				v.Result = &r
			}
			res, err := run(cfg)
			wantMismatch(t, "run", err)
			var out, errOut bytes.Buffer
			if code := report(res, err, specsOf(false), &out, &errOut); code == 0 {
				t.Fatalf("exit code 0 for a wrong answer\n%s", errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || sum.Correct {
				t.Fatalf("summary %q: want correct=false (%v)", lines[len(lines)-1], err)
			}
		})
	}
}

// TestDescriptor checks BENCHMARK.json against the limits it must meet
// and against the metrics and workloads this package implements.
func TestDescriptor(t *testing.T) {
	d := loadDescriptor(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) || len(n) > 64 {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(d.Workloads) < 2 || len(d.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(d.Workloads))
	}
	if len(d.EndToEnd) < 1 || len(d.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(d.EndToEnd))
	}
	if len(d.PerLayer) < 1 || len(d.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(d.PerLayer))
	}
	if !slices.Equal(d.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(d.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", d.Command, d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d", d.RunSeconds)
	}

	var names []string
	for _, w := range d.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}

	var e2e []metricSpec
	maxBound, setupBound := 0.0, 0.0
	for _, m := range d.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be listed with the largest bound (%v, largest %v)", setupBound, maxBound)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %v\nbench          %v", e2e, endToEnd)
	}

	var layers []metricSpec
	for _, m := range d.PerLayer {
		checkName(m.Name)
		layers = append(layers, metricSpec{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !slices.Equal(layers, specsOf(true)) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nbench          %v", layers, specsOf(true))
	}
	for _, l := range perLayer {
		for _, e := range l.moves {
			if !slices.ContainsFunc(e2e, func(m metricSpec) bool { return m.name == e }) {
				t.Errorf("%s moves %q, which is not an end-to-end metric", l.name, e)
			}
		}
		for _, w := range l.on {
			if !slices.Contains(names, w) {
				t.Errorf("%s moves on %q, which is not a workload", l.name, w)
			}
		}
	}
}

// TestFlags: the double-dash flag spelling parses, and bad values exit 2
// without a summary.
func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--workload", "churn", "--seed", "1", "--seconds", "0", "--trace", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := execute(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q := quartiles([]float64{2, 1}); q != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles = %v", q)
	}
}
