package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"subgraph/internal/comm"
	"subgraph/internal/congest"
	"subgraph/internal/core"
	"subgraph/internal/lower"
)

// E7Row is one point of the LOCAL vs CONGEST separation demonstration.
type E7Row struct {
	K, NInput int
	GraphN    int
	// LocalRounds is the LOCAL-model detection round count (O(|H_k|));
	// LocalMaxMsgBits is the message size it needed — the quantity
	// CONGEST forbids.
	LocalRounds     int
	LocalMaxMsgBits int
	// CongestRounds is the edge-collection CONGEST detector's rounds at
	// bandwidth B = 2·idBits.
	CongestRounds int
	CongestB      int
	// ImpliedRoundLB is Theorem 1.2's bound at this size.
	ImpliedRoundLB float64
	// BothCorrect verifies the two detectors agree with ground truth.
	BothCorrect bool
}

// E7Separation detects H_k on G_{k,n} in the LOCAL model (constant
// rounds, huge messages) and in CONGEST (bounded messages, many rounds) —
// the separation the paper's introduction highlights: with k = Θ(log n)
// the gap is O(log n) vs Ω̃(n²).
func E7Separation(k int, ns []int, seed int64) []E7Row {
	rows := make([]E7Row, 0, len(ns))
	hk := lower.BuildHk(k)
	for i, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		inst := comm.RandomDisjointness(n, 1.5/float64(n), i%2 == 0, rng)
		g := lower.BuildGkn(k, inst)
		nw := congest.NewNetwork(g.G)
		loc, err := core.DetectLocal(nw, core.LocalConfig{H: hk.G, Exec: core.Exec{Seed: seed}})
		if err != nil {
			panic(err)
		}
		col, err := core.DetectCollect(nw, core.CollectConfig{H: hk.G, Exec: core.Exec{Seed: seed}})
		if err != nil {
			panic(err)
		}
		red, err := lower.RunReduction(k, inst, seed)
		if err != nil {
			panic(err)
		}
		rows = append(rows, E7Row{
			K: k, NInput: n,
			GraphN:          g.G.N(),
			LocalRounds:     loc.Rounds,
			LocalMaxMsgBits: loc.MaxMessageBits,
			CongestRounds:   col.Rounds,
			CongestB:        col.Bandwidth,
			ImpliedRoundLB:  red.ImpliedRoundLB,
			BothCorrect:     loc.Detected == inst.Intersects() && col.Detected == inst.Intersects(),
		})
	}
	return rows
}

// FormatE7 renders the separation table.
func FormatE7(rows []E7Row) string {
	var b strings.Builder
	b.WriteString("E7: LOCAL vs CONGEST separation on G_{k,n} (Section 1.1)\n")
	fmt.Fprintf(&b, "%4s %6s %8s %12s %14s %14s %10s %12s %9s\n",
		"k", "n", "|V|", "LOCALrounds", "LOCALmsgbits", "CONGESTrounds", "B", "impliedLB", "correct")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d %6d %8d %12d %14d %14d %10d %12.4f %9v\n",
			r.K, r.NInput, r.GraphN, r.LocalRounds, r.LocalMaxMsgBits,
			r.CongestRounds, r.CongestB, r.ImpliedRoundLB, r.BothCorrect)
	}
	b.WriteString("claim: LOCAL rounds stay constant (≈|H_k|) while its messages blow up;\n")
	b.WriteString("       any CONGEST algorithm is subject to the implied round lower bound\n")
	return b.String()
}
