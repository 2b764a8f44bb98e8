package congest

import (
	"math/rand"
	"testing"

	"subgraph/internal/bitio"
	"subgraph/internal/graph"
)

// BenchmarkDelivery exercises the runner's delivery phase — the per-round
// hot path that accumulates per-directed-edge bandwidth. With the flat
// edge-indexed accumulators this path performs no per-message map work;
// ReportAllocs guards against regressions back to a per-round map.
func BenchmarkDelivery(b *testing.B) {
	g := graph.GNP(64, 0.2, rand.New(rand.NewSource(1)))
	nw := NewNetwork(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(nw, func() Node { return &randomTrafficNode{} },
			Config{B: 96, MaxRounds: 30, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// denseComposite is the skewed-degree workload from the clique experiments:
// a sparse G(n,p) base with a planted K_s, so a few vertices carry far more
// traffic than the rest. This is the graph family the weighted worker
// chunking and pooled delivery are judged on.
func denseComposite(n, s int) *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	g := graph.GNP(n, 0.06, rng)
	g, _ = graph.PlantClique(g, s, rng)
	return g
}

// benchmarkSimulator measures whole-run cost on the dense composite: many
// rounds of mixed broadcast/unicast traffic through one engine. It is the
// headline number of the PR 3 zero-allocation round loop.
func benchmarkSimulator(b *testing.B, parallel bool) {
	g := denseComposite(128, 24)
	nw := NewNetwork(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(nw, func() Node { return &randomTrafficNode{} },
			Config{B: 96, MaxRounds: 40, Seed: int64(i), Parallel: parallel, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorSequential(b *testing.B) { benchmarkSimulator(b, false) }
func BenchmarkSimulatorParallel(b *testing.B)   { benchmarkSimulator(b, true) }

// BenchmarkSteadyStateRound isolates the per-round cost: one long run on
// the dense composite with steady all-to-neighbors traffic, normalized per
// round. The zero-alloc invariant makes allocs/op here (one op = one run
// of 400 rounds) independent of round count after warm-up.
func BenchmarkSteadyStateRound(b *testing.B) {
	g := denseComposite(96, 16)
	nw := NewNetwork(g)
	payload := bitio.Uint(0x2a, 8)
	const rounds = 400
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(nw, func() Node {
			return &FuncNode{OnRound: func(env *Env, inbox []Message) {
				if env.Round() >= rounds {
					env.Halt()
				}
				env.Broadcast(payload)
			}}
		}, Config{B: 8, MaxRounds: rounds})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rounds != rounds {
			b.Fatalf("rounds = %d", res.Stats.Rounds)
		}
	}
}

// BenchmarkDeliveryFaults measures the adversary's overhead on the same
// workload.
func BenchmarkDeliveryFaults(b *testing.B) {
	g := graph.GNP(64, 0.2, rand.New(rand.NewSource(1)))
	nw := NewNetwork(g)
	plan := &FaultPlan{DropRate: 0.1, CorruptRate: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(nw, func() Node { return &randomTrafficNode{} },
			Config{B: 96, MaxRounds: 30, Seed: int64(i), Faults: plan}); err != nil {
			b.Fatal(err)
		}
	}
}
