package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"subgraph/internal/congest"
	"subgraph/internal/core"
	"subgraph/internal/graph"
)

// E8 measures how message loss degrades detection and what the
// ack/retransmit decorator (congest.WrapResilient) buys back. For each
// drop rate the same planted instance family is decided by the plain
// detector and by the resilient one; detection probability, rounds, and
// total bits are averaged over the trials. The even-cycle sweep uses the
// sound color-BFS detector (DetectCycleLinear with a planted coloring),
// whose rejects always witness a closed cycle — so a lossy network can
// only lower its detection rate, never fake a detection.

// E8Row is one drop-rate point of a fault sweep.
type E8Row struct {
	DropRate float64
	Trials   int
	// PlainRate / ResilientRate are the detection probabilities.
	PlainRate, ResilientRate float64
	// PlainRounds / ResilientRounds are mean round counts.
	PlainRounds, ResilientRounds float64
	// PlainBits / ResilientBits are mean total communication volumes.
	PlainBits, ResilientBits float64
}

// e8Detector abstracts the two sweeps: build an instance containing the
// pattern, then decide it with or without the resilient decorator.
type e8Detector func(trial int, drop float64, resilient bool) (detected bool, rounds int, bits int64)

func e8Sweep(drops []float64, trials int, run e8Detector) []E8Row {
	rows := make([]E8Row, 0, len(drops))
	for _, d := range drops {
		row := E8Row{DropRate: d, Trials: trials}
		for trial := 0; trial < trials; trial++ {
			det, rounds, bits := run(trial, d, false)
			if det {
				row.PlainRate++
			}
			row.PlainRounds += float64(rounds)
			row.PlainBits += float64(bits)
			det, rounds, bits = run(trial, d, true)
			if det {
				row.ResilientRate++
			}
			row.ResilientRounds += float64(rounds)
			row.ResilientBits += float64(bits)
		}
		t := float64(trials)
		row.PlainRate /= t
		row.ResilientRate /= t
		row.PlainRounds /= t
		row.ResilientRounds /= t
		row.PlainBits /= t
		row.ResilientBits /= t
		rows = append(rows, row)
	}
	return rows
}

// E8EvenCycleDropSweep sweeps the drop rate for C_2k detection on
// planted-cycle random graphs, deciding each instance with the sound
// color-BFS detector under a planted coloring (detection probability 1 on
// a reliable network) — plain versus resilient.
func E8EvenCycleDropSweep(k, n int, drops []float64, trials int, seed int64) []E8Row {
	return e8Sweep(drops, trials, func(trial int, drop float64, resilient bool) (bool, int, int64) {
		rng := rand.New(rand.NewSource(seed + int64(trial)*7919))
		base := graph.GNP(n, 1.0/float64(n), rng)
		g, cyc := graph.PlantCycle(base, 2*k, rng)
		nw := congest.NewNetwork(g)
		rep, err := core.DetectCycleLinear(nw, core.LinearCycleConfig{
			Exec:     e8Exec(seed, trial, drop, resilient),
			CycleLen: 2 * k,
			Coloring: core.PlantedColoring(nw, cyc, seed),
		})
		if err != nil {
			panic(err)
		}
		return rep.Detected, rep.Rounds, rep.Stats.TotalBits
	})
}

// E8TriangleDropSweep sweeps the drop rate for triangle listing via the
// exact Δ-round neighbor-exchange detector on planted-triangle random
// graphs — plain versus resilient.
func E8TriangleDropSweep(n int, p float64, drops []float64, trials int, seed int64) []E8Row {
	return e8Sweep(drops, trials, func(trial int, drop float64, resilient bool) (bool, int, int64) {
		rng := rand.New(rand.NewSource(seed + int64(trial)*104729))
		base := graph.GNP(n, p, rng)
		g, _ := graph.PlantClique(base, 3, rng)
		nw := congest.NewNetwork(g)
		rep, err := core.DetectTriangle(nw, core.TriangleConfig{Exec: e8Exec(seed, trial, drop, resilient)})
		if err != nil {
			panic(err)
		}
		return rep.Detected, rep.Rounds, rep.Stats.TotalBits
	})
}

// e8Exec is one sweep trial's run knobs: a seeded Bernoulli drop plan,
// plus the ack/retransmit decorator on the resilient side of the sweep.
func e8Exec(seed int64, trial int, drop float64, resilient bool) core.Exec {
	x := core.Exec{Seed: seed + int64(trial), Faults: &congest.FaultPlan{Seed: seed + int64(trial)*31, DropRate: drop}}
	if resilient {
		x.Resilient = &congest.ResilientConfig{}
	}
	return x
}

// FormatE8 renders one sweep as the EXPERIMENTS.md table.
func FormatE8(title string, rows []E8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E8: %s — detection under message loss, plain vs resilient\n", title)
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s %12s %12s\n",
		"drop", "plain-rate", "resil-rate", "plain-rnds", "resil-rnds", "plain-bits", "resil-bits")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.2f %12.2f %12.2f %12.1f %12.1f %12.0f %12.0f\n",
			r.DropRate, r.PlainRate, r.ResilientRate,
			r.PlainRounds, r.ResilientRounds, r.PlainBits, r.ResilientBits)
	}
	if len(rows) > 1 {
		first, last := rows[0], rows[len(rows)-1]
		fmt.Fprintf(&b, "overhead at drop=%.2f: %.1fx rounds, %.1fx bits; plain rate %.2f→%.2f, resilient %.2f→%.2f\n",
			first.DropRate,
			safeDiv(first.ResilientRounds, first.PlainRounds),
			safeDiv(first.ResilientBits, first.PlainBits),
			first.PlainRate, last.PlainRate,
			first.ResilientRate, last.ResilientRate)
	}
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
