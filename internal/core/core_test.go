package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// --- linear baseline ---

func TestLinearDetectsPlantedCycle(t *testing.T) {
	for _, L := range []int{3, 4, 5, 6, 7, 8} {
		rng := rand.New(rand.NewSource(int64(L)))
		g, cyc := graph.PlantCycle(graph.GNP(30, 0.03, rng), L, rng)
		nw := congest.NewNetwork(g)
		rep, err := DetectCycleLinear(nw, LinearCycleConfig{
			CycleLen: L,
			Coloring: PlantedColoring(nw, cyc, 1),
		})
		if err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		if !rep.Detected {
			t.Errorf("L=%d: planted cycle not detected", L)
		}
		if rep.Rounds > rep.RoundsPerRep {
			t.Errorf("L=%d: rounds %d exceed budget %d", L, rep.Rounds, rep.RoundsPerRep)
		}
	}
}

func TestLinearSoundOnCycleFree(t *testing.T) {
	// Trees contain no cycle of any length; the detector must accept for
	// every seed and repetition count (unconditional soundness).
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomTree(40, rng)
	nw := congest.NewNetwork(g)
	for _, L := range []int{3, 4, 6} {
		rep, err := DetectCycleLinear(nw, LinearCycleConfig{CycleLen: L, Reps: 5, Exec: Exec{Seed: 11}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected {
			t.Errorf("L=%d: false positive on a tree", L)
		}
	}
}

func TestLinearSoundOnWrongLength(t *testing.T) {
	// C_8 contains no C_6; many random colorings must never fire.
	nw := congest.NewNetwork(graph.Cycle(8))
	rep, err := DetectCycleLinear(nw, LinearCycleConfig{CycleLen: 6, Reps: 50, Exec: Exec{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected {
		t.Error("C6 detected inside C8")
	}
}

func TestLinearWithRepsFindsCycle(t *testing.T) {
	// Random colorings with enough repetitions find C_4 in K_{3,3}.
	nw := congest.NewNetwork(graph.CompleteBipartite(3, 3))
	rep, err := DetectCycleLinear(nw, LinearCycleConfig{CycleLen: 4, Reps: DefaultCycleReps(4), Exec: Exec{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Error("C4 in K_{3,3} not detected with 64 reps")
	}
}

// Property: linear detector never rejects when the graph has no cycle of
// the target length (soundness on random graphs).
func TestQuickLinearSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(14, 0.12, rng)
		L := 4 + int(((seed%3)+3)%3) // 4,5,6
		if graph.ContainsCycleLen(g, L) {
			return true // only testing soundness here
		}
		nw := congest.NewNetwork(g)
		rep, err := DetectCycleLinear(nw, LinearCycleConfig{CycleLen: L, Reps: 8, Exec: Exec{Seed: seed}})
		return err == nil && !rep.Detected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- even-cycle detector (Theorem 1.1) ---

func TestEvenCycleDetectsPlanted(t *testing.T) {
	for _, k := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(k) * 13))
		g, cyc := graph.PlantCycle(graph.GNP(40, 0.02, rng), 2*k, rng)
		nw := congest.NewNetwork(g)
		rep, err := DetectEvenCycle(nw, EvenCycleConfig{
			K:        k,
			Coloring: PlantedColoring(nw, cyc, 2),
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !rep.Detected {
			t.Errorf("k=%d: planted C_%d not detected", k, 2*k)
		}
	}
}

func TestEvenCycleDetectsViaHighDegreePhase(t *testing.T) {
	// A wheel-ish graph: a high-degree hub inside many C_4s. The hub has
	// degree ≥ n^δ so Phase I must find a cycle through it.
	n := 30
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	for v := 1; v+1 < n; v++ {
		b.AddEdge(v, v+1) // triangle fan → contains C_4? 0-v-(v+1)-0 is C3.
	}
	// Add chords to create C_4 through the hub: 0-1, 1-2, 2-3, 3-0 exists.
	g := b.Build()
	if !graph.ContainsCycleLen(g, 4) {
		t.Fatal("test graph lacks C4")
	}
	nw := congest.NewNetwork(g)
	cyc := []int{0, 1, 2, 3} // 0-1,1-2,2-3,3-0 all edges
	rep, err := DetectEvenCycle(nw, EvenCycleConfig{K: 2, Coloring: PlantedColoring(nw, cyc, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Error("C4 through hub not detected")
	}
}

func TestEvenCycleSoundOnTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomTree(35, rng)
		nw := congest.NewNetwork(g)
		for _, k := range []int{2, 3} {
			rep, err := DetectEvenCycle(nw, EvenCycleConfig{K: k, PhaseIReps: 2, PhaseIIReps: 2, Exec: Exec{Seed: int64(trial)}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Detected {
				t.Errorf("trial %d k=%d: false positive on tree", trial, k)
			}
		}
	}
}

func TestEvenCycleSoundOnC4Free(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.EvenCycleFree(30, 2, 120, rng)
	if graph.ContainsCycleLen(g, 4) {
		t.Fatal("generator broke")
	}
	nw := congest.NewNetwork(g)
	rep, err := DetectEvenCycle(nw, EvenCycleConfig{K: 2, PhaseIReps: 3, PhaseIIReps: 3, Exec: Exec{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected {
		t.Error("false positive on C4-free graph")
	}
}

// Property: Theorem 1.1 detector is sound — it never rejects on graphs
// without C_2k (random sparse graphs, random seeds).
func TestQuickEvenCycleSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(18, 0.09, rng)
		k := 2 + int(seed&1) // 2 or 3
		if graph.ContainsCycleLen(g, 2*k) {
			return true
		}
		nw := congest.NewNetwork(g)
		rep, err := DetectEvenCycle(nw, EvenCycleConfig{K: k, PhaseIReps: 2, PhaseIIReps: 2, Exec: Exec{Seed: seed}})
		return err == nil && !rep.Detected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a planted coloring the detector is complete on graphs
// that contain a planted C_2k.
func TestQuickEvenCycleCompleteness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(seed&1)
		g, cyc := graph.PlantCycle(graph.GNP(26, 0.03, rng), 2*k, rng)
		nw := congest.NewNetwork(g)
		rep, err := DetectEvenCycle(nw, EvenCycleConfig{K: k,
			Coloring: PlantedColoring(nw, RotateToMaxDegree(nw, cyc), seed)})
		return err == nil && rep.Detected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEvenCycleDenseGraphRejects(t *testing.T) {
	// A graph with more than M edges must reject (it provably contains
	// C_2k); here K_20 for k=2: m=190 > M=2·20^{1.5}≈179.
	g := graph.Complete(20)
	nw := congest.NewNetwork(g)
	rep, err := DetectEvenCycle(nw, EvenCycleConfig{K: 2, Exec: Exec{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Error("dense graph not rejected")
	}
	if !graph.ContainsCycleLen(g, 4) {
		t.Fatal("sanity: K20 contains C4")
	}
}

func TestEvenCycleParallelEngineAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, cyc := graph.PlantCycle(graph.GNP(30, 0.04, rng), 4, rng)
	nw := congest.NewNetwork(g)
	cfg := EvenCycleConfig{K: 2, Coloring: PlantedColoring(nw, cyc, 6), Exec: Exec{Seed: 8}}
	seq, err := DetectEvenCycle(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = true
	par, err := DetectEvenCycle(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Detected != par.Detected || seq.Stats.TotalBits != par.Stats.TotalBits {
		t.Fatalf("engines disagree: %+v vs %+v", seq.Stats, par.Stats)
	}
}

func TestEvenCycleRejectsBadK(t *testing.T) {
	nw := congest.NewNetwork(graph.Cycle(6))
	if _, err := DetectEvenCycle(nw, EvenCycleConfig{K: 1}); err == nil {
		t.Fatal("k=1 accepted")
	}
}

// --- tree detection ---

func TestTreeDetectPath(t *testing.T) {
	// P_4 inside C_10 — present.
	g := graph.Cycle(10)
	nw := congest.NewNetwork(g)
	rep, err := DetectTree(nw, TreeConfig{Tree: graph.Path(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Error("P4 in C10 not detected")
	}
}

func TestTreeDetectStarAbsent(t *testing.T) {
	// K_{1,4} needs a degree-4 vertex; a cycle has none.
	nw := congest.NewNetwork(graph.Cycle(12))
	rep, err := DetectTree(nw, TreeConfig{Tree: graph.Star(4), Exec: Exec{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected {
		t.Error("star detected in cycle")
	}
}

func TestTreeDetectStarPresent(t *testing.T) {
	nw := congest.NewNetwork(graph.Star(6))
	rep, err := DetectTree(nw, TreeConfig{Tree: graph.Star(4), Exec: Exec{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Error("K_{1,4} in K_{1,6} not detected")
	}
}

func TestTreeDetectConstantRounds(t *testing.T) {
	// Neither the rounds nor the declared cap may depend on n.
	small := congest.NewNetwork(graph.Cycle(10))
	big := congest.NewNetwork(graph.Cycle(200))
	tr := graph.Path(4)
	a, err := DetectTree(small, TreeConfig{Tree: tr, Exec: Exec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DetectTree(big, TreeConfig{Tree: tr, Exec: Exec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("tree rounds grew with n: %d vs %d", a.Rounds, b.Rounds)
	}
	if a.MaxRounds != b.MaxRounds {
		t.Fatalf("tree budget grew with n: %d vs %d", a.MaxRounds, b.MaxRounds)
	}
}

func TestTreeRejectsNonTree(t *testing.T) {
	nw := congest.NewNetwork(graph.Cycle(5))
	if _, err := DetectTree(nw, TreeConfig{Tree: graph.Cycle(3)}); err == nil {
		t.Fatal("cycle accepted as tree pattern")
	}
}

func TestTreeRejectsDuplicateIDs(t *testing.T) {
	g := graph.Cycle(6)
	dup := congest.NewNetworkWithDuplicateIDs(g, []congest.NodeID{0, 1, 2, 0, 1, 2})
	if dup.UniqueIDs() {
		t.Fatal("duplicate-ID network reports unique identifiers")
	}
	if _, err := DetectTree(dup, TreeConfig{Tree: graph.Path(3)}); err == nil {
		t.Fatal("duplicate identifiers accepted")
	}
	if !congest.NewNetworkWithIDs(g, []congest.NodeID{5, 9, 2, 7, 11, 3}).UniqueIDs() {
		t.Fatal("explicit unique IDs report duplicates")
	}
}

// A tree family can take hours to build inside one Round call (path:14 on
// K_40 branches over ~10^5 sets per family), so the deadline must reach
// into the branching: the run returns soon after it with a partial report.
func TestTreeDeadlineCutsFamilyBuild(t *testing.T) {
	nw := congest.NewNetwork(graph.Complete(40))
	for _, parallel := range []bool{false, true} {
		start := time.Now()
		rep, err := DetectTree(nw, TreeConfig{Tree: graph.Path(14),
			Exec: Exec{Deadline: 500 * time.Millisecond, Parallel: parallel}})
		elapsed := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parallel=%v: err = %v, want one wrapping context.DeadlineExceeded", parallel, err)
		}
		if rep == nil {
			t.Fatalf("parallel=%v: no partial report", parallel)
		}
		if elapsed > 1500*time.Millisecond {
			t.Fatalf("parallel=%v: returned %v after a 500ms deadline", parallel, elapsed)
		}
	}
}

// Property: the tree detector is exact on random graphs (reject ⇔ copy
// exists).
func TestQuickTreeSoundness(t *testing.T) {
	pattern := graph.Star(3) // claw
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(12, 0.15, rng)
		nw := congest.NewNetwork(g)
		rep, err := DetectTree(nw, TreeConfig{Tree: pattern, Exec: Exec{Seed: seed}})
		if err != nil {
			return false
		}
		return rep.Detected == graph.ContainsSubgraph(pattern, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- clique detection ---

func TestCliqueDetect(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		s    int
		want bool
	}{
		{graph.Complete(6), 4, true},
		{graph.Complete(6), 6, true},
		{graph.Complete(6), 7, false},
		{graph.CompleteBipartite(4, 4), 3, false},
		{graph.Cycle(7), 3, false},
		{graph.Cycle(7), 2, true},
	}
	for i, c := range cases {
		nw := congest.NewNetwork(c.g)
		rep, err := DetectNeighborExchange(nw, NeighborExchangeConfig{H: graph.Complete(c.s)})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if rep.Detected != c.want {
			t.Errorf("case %d: detected=%v want %v", i, rep.Detected, c.want)
		}
	}
}

// Property: clique detector agrees with ground truth on random graphs.
func TestQuickCliqueAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(14, 0.45, rng)
		s := 3 + int(seed&1)
		nw := congest.NewNetwork(g)
		rep, err := DetectNeighborExchange(nw, NeighborExchangeConfig{H: graph.Complete(s)})
		if err != nil {
			return false
		}
		return rep.Detected == (g.CountCliques(s) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueRounds(t *testing.T) {
	nw := congest.NewNetwork(graph.Complete(25))
	rep, err := DetectNeighborExchange(nw, NeighborExchangeConfig{H: graph.Complete(4)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != nw.G.MaxDegree()+1 {
		t.Fatalf("%d rounds, want Δ+1 = %d", rep.Rounds, nw.G.MaxDegree()+1)
	}
}

// --- edge collection ---

func TestCollectDetectsArbitraryPattern(t *testing.T) {
	// The bull graph (triangle with two horns) inside a random graph.
	bull := graph.NewBuilder(5)
	bull.AddEdge(0, 1)
	bull.AddEdge(1, 2)
	bull.AddEdge(0, 2)
	bull.AddEdge(0, 3)
	bull.AddEdge(1, 4)
	h := bull.Build()
	rng := rand.New(rand.NewSource(41))
	g := graph.GNP(18, 0.3, rng)
	want := graph.ContainsSubgraph(h, g)
	nw := congest.NewNetwork(g)
	rep, err := DetectCollect(nw, CollectConfig{H: h})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected != want {
		t.Fatalf("detected=%v want=%v", rep.Detected, want)
	}
}

// Property: edge collection agrees with ground truth (it is exact).
func TestQuickCollectAgreement(t *testing.T) {
	h := graph.Cycle(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(12, 0.2, rng)
		nw := congest.NewNetwork(g)
		rep, err := DetectCollect(nw, CollectConfig{H: h})
		if err != nil {
			return false
		}
		return rep.Detected == graph.ContainsSubgraph(h, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectRoundsLinearInEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := graph.GNP(20, 0.2, rng)
	nw := congest.NewNetwork(g)
	rep, err := DetectCollect(nw, CollectConfig{H: graph.Cycle(4)})
	if err != nil {
		t.Fatal(err)
	}
	budget := g.M() + g.N() + 2
	if rep.Rounds > budget+1 {
		t.Fatalf("rounds %d exceed budget %d", rep.Rounds, budget)
	}
}

// --- LOCAL model ---

func TestLocalDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g, _ := graph.PlantCycle(graph.GNP(25, 0.05, rng), 7, rng)
	h := graph.Cycle(7)
	nw := congest.NewNetwork(g)
	rep, err := DetectLocal(nw, LocalConfig{H: h})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Error("LOCAL missed planted C7")
	}
	if rep.Rounds > h.N()+2 {
		t.Fatalf("LOCAL rounds %d not constant", rep.Rounds)
	}
	if rep.MaxMessageBits == 0 {
		t.Error("no message size recorded")
	}
}

// Property: LOCAL detection is exact on random graphs.
func TestQuickLocalAgreement(t *testing.T) {
	h := graph.Complete(4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(13, 0.4, rng)
		nw := congest.NewNetwork(g)
		rep, err := DetectLocal(nw, LocalConfig{H: h})
		if err != nil {
			return false
		}
		return rep.Detected == graph.ContainsSubgraph(h, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// --- Theorem 1.1 round budget shape ---

func TestEvenCycleBudgetSublinear(t *testing.T) {
	// For k=2 the per-rep budget is O(n^{1/2})·c vs the linear baseline's
	// n; at n=4000 the even-cycle budget must be well below n.
	g := graph.Cycle(4000) // topology irrelevant for budget computation
	nw := congest.NewNetwork(g)
	rep, err := DetectEvenCycle(nw, EvenCycleConfig{K: 2, Exec: Exec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.R1+rep.R2 >= 4000 {
		t.Fatalf("budget R1+R2 = %d not sublinear at n=4000", rep.R1+rep.R2)
	}
}
