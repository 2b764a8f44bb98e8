// Package experiments regenerates every table of EXPERIMENTS.md: one
// experiment per theorem/figure of the paper, as indexed in DESIGN.md §3.
// The cmd/experiments binary prints the tables; bench_test.go wraps each
// experiment in a testing.B benchmark.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"subgraph/internal/congest"
	"subgraph/internal/core"
	"subgraph/internal/graph"
)

// E1Row is one point of the Theorem 1.1 scaling experiment.
type E1Row struct {
	N int
	K int
	// SublinearRounds is the measured round count of the Section 6
	// algorithm (single repetition, planted coloring).
	SublinearRounds int
	// Budget is the algorithm's per-repetition budget R1 + R2.
	Budget int
	// BaselineRounds is the O(n) color-BFS baseline's measured rounds.
	BaselineRounds int
	// Detected / BaselineDetected confirm both found the planted cycle.
	Detected, BaselineDetected bool
	// TotalBits is the sublinear algorithm's communication volume.
	TotalBits int64
}

// E1EvenCycleScaling measures rounds of C_2k detection against n on
// planted-cycle random graphs, for the sublinear algorithm and the linear
// baseline. The paper's claim (Theorem 1.1): rounds = O(n^{1-1/(k(k-1))}),
// i.e. exponent 1/2 for k=2 and 5/6 for k=3, versus exponent 1 for the
// baseline.
func E1EvenCycleScaling(k int, ns []int, seed int64) []E1Row {
	rows := make([]E1Row, 0, len(ns))
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		// Sparse background so the planted cycle is the signal; density
		// chosen well below the Turán threshold.
		base := graph.GNP(n, 1.0/float64(n), rng)
		g, cyc := graph.PlantCycle(base, 2*k, rng)
		nw := congest.NewNetwork(g)
		coloring := core.PlantedColoring(nw, cyc, seed)

		rep, err := core.DetectEvenCycle(nw, core.EvenCycleConfig{
			K: k, Coloring: coloring, Exec: core.Exec{Seed: seed},
		})
		if err != nil {
			panic(err)
		}
		lin, err := core.DetectCycleLinear(nw, core.LinearCycleConfig{
			CycleLen: 2 * k, Coloring: coloring, Exec: core.Exec{Seed: seed},
		})
		if err != nil {
			panic(err)
		}
		rows = append(rows, E1Row{
			N: n, K: k,
			SublinearRounds:  rep.Rounds,
			Budget:           rep.R1 + rep.R2,
			BaselineRounds:   lin.Rounds,
			Detected:         rep.Detected,
			BaselineDetected: lin.Detected,
			TotalBits:        rep.Stats.TotalBits,
		})
	}
	return rows
}

// E1ProbRow is one point of the repetition-amplification experiment.
type E1ProbRow struct {
	K, N, Reps, Trials int
	// DetectRate is the fraction of trials in which the randomized
	// detector (no planted coloring) found the planted cycle.
	DetectRate float64
}

// E1DetectionProbability measures the randomized detector's success rate
// against the repetition count — the Section 6 claim that each
// phase-repetition succeeds with probability ≥ (2k)^{-2k} and constant
// success needs O((2k)^{2k}) repetitions.
func E1DetectionProbability(k, n int, repsList []int, trials int, seed int64) []E1ProbRow {
	rows := make([]E1ProbRow, 0, len(repsList))
	for _, reps := range repsList {
		hits := 0
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(seed + int64(trial)*7919))
			base := graph.GNP(n, 1.0/float64(n), rng)
			g, _ := graph.PlantCycle(base, 2*k, rng)
			nw := congest.NewNetwork(g)
			rep, err := core.DetectEvenCycle(nw, core.EvenCycleConfig{
				K: k, PhaseIReps: reps, PhaseIIReps: reps,
				Exec: core.Exec{Seed: seed + int64(trial)*101 + int64(reps)},
			})
			if err != nil {
				panic(err)
			}
			if rep.Detected {
				hits++
			}
		}
		rows = append(rows, E1ProbRow{K: k, N: n, Reps: reps, Trials: trials,
			DetectRate: float64(hits) / float64(trials)})
	}
	return rows
}

// FormatE1Prob renders the amplification table.
func FormatE1Prob(rows []E1ProbRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E1b: C_%d detection probability vs repetitions (random colorings, n=%d)\n",
		2*rows[0].K, rows[0].N)
	fmt.Fprintf(&b, "%8s %8s %12s\n", "reps", "trials", "detect-rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %8d %12.2f\n", r.Reps, r.Trials, r.DetectRate)
	}
	k := rows[0].K
	fmt.Fprintf(&b, "claim: per-repetition success ≥ (2k)^{-2k}; rate grows to 1 well before (2k)^{2k} = %d reps\n",
		pow(2*k, 2*k))
	return b.String()
}

func pow(a, b int) int {
	r := 1
	for i := 0; i < b; i++ {
		r *= a
		if r > 1<<30 {
			return 1 << 30
		}
	}
	return r
}

// FitExponent least-squares fits log(y) = a·log(x) + b over the points
// and returns the exponent a.
func FitExponent(xs []float64, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// E1Exponents returns the fitted round exponents (sublinear algorithm,
// baseline) and the theoretical prediction 1 - 1/(k(k-1)).
func E1Exponents(rows []E1Row) (sub, base, predicted float64) {
	xs := make([]float64, len(rows))
	ys := make([]float64, len(rows))
	bs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = float64(r.N)
		ys[i] = float64(r.SublinearRounds)
		bs[i] = float64(r.BaselineRounds)
	}
	k := rows[0].K
	return FitExponent(xs, ys), FitExponent(xs, bs), 1 - 1/float64(k*(k-1))
}

// FormatE1 renders the experiment as the EXPERIMENTS.md table.
func FormatE1(rows []E1Row) string {
	var b strings.Builder
	k := rows[0].K
	fmt.Fprintf(&b, "E1: C_%d detection rounds vs n (Theorem 1.1)\n", 2*k)
	fmt.Fprintf(&b, "%8s %10s %10s %12s %10s %12s\n",
		"n", "sublinear", "budget", "baseline", "detected", "bits")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %10d %10d %12d %10v %12d\n",
			r.N, r.SublinearRounds, r.Budget, r.BaselineRounds,
			r.Detected && r.BaselineDetected, r.TotalBits)
	}
	sub, base, pred := E1Exponents(rows)
	fmt.Fprintf(&b, "fitted exponent: sublinear %.3f (predicted %.3f), baseline %.3f (predicted 1.0)\n",
		sub, pred, base)
	return b.String()
}
