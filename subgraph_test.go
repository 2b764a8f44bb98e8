package subgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDetectDispatchTree(t *testing.T) {
	nw := NewNetwork(Cycle(12))
	rep, err := Detect(nw, Path(4), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "tree-representative-families" {
		t.Fatalf("algorithm %s", rep.Algorithm)
	}
	if !rep.Detected {
		t.Fatal("P4 in C12 undetected")
	}
}

func TestDetectDispatchEvenCycle(t *testing.T) {
	nw := NewNetwork(Complete(8))
	rep, err := Detect(nw, Cycle(6), Options{Seed: 2, Reps: 40})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "even-cycle-sublinear" {
		t.Fatalf("algorithm %s", rep.Algorithm)
	}
	if !rep.Detected {
		t.Fatal("C6 in K8 undetected with 40 reps")
	}
}

func TestDetectDispatchC4(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, _ := PlantCycle(GNP(40, 0.03, rng), 4, rng)
	for _, c := range []struct {
		g    *Graph
		want bool
	}{{g, true}, {Cycle(40), false}} {
		rep, err := Detect(NewNetwork(c.g), Cycle(4), Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Algorithm != "neighbor-exchange" {
			t.Fatalf("algorithm %s", rep.Algorithm)
		}
		if rep.Detected != c.want {
			t.Fatalf("C4 detected %v, want %v", rep.Detected, c.want)
		}
		if limit := c.g.MaxDegree() + 1; rep.Rounds > limit {
			t.Fatalf("%d rounds, over Δ+1 = %d", rep.Rounds, limit)
		}
	}
}

// TestDetectC4ResilientUnderDrops checks that cycle:4 keeps resilient
// mode: wrapped in the ack/retransmit decorator, the exact detector still
// answers exactly with 5% of messages dropped.
func TestDetectC4ResilientUnderDrops(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(30, 0.06, rng)
		if seed%2 == 1 {
			g, _ = PlantCycle(g, 4, rng)
		}
		opts := Options{Seed: seed, Resilient: true, Faults: &FaultPlan{Seed: seed, DropRate: 0.05}}
		rep, err := Detect(NewNetwork(g), Cycle(4), opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Algorithm != "neighbor-exchange" || rep.Stats.DroppedMessages == 0 {
			t.Fatalf("seed %d: %s with %d drops", seed, rep.Algorithm, rep.Stats.DroppedMessages)
		}
		if want := ContainsSubgraph(Cycle(4), g); rep.Detected != want {
			t.Fatalf("seed %d: detected %v, VF2 containment %v", seed, rep.Detected, want)
		}
	}
}

func TestDetectDispatchTriangle(t *testing.T) {
	nw := NewNetwork(Complete(6))
	rep, err := Detect(nw, Cycle(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "triangle-neighbor-exchange" {
		t.Fatalf("algorithm %s", rep.Algorithm)
	}
	if !rep.Detected {
		t.Fatal("triangle in K6 undetected")
	}
	none, err := Detect(NewNetwork(CompleteBipartite(4, 4)), Complete(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if none.Detected {
		t.Fatal("triangle detected in bipartite graph")
	}
	// A skewed star (Δ ≈ n, m ≈ n) must dispatch to the degree-split
	// detector.
	b := NewGraphBuilder(40)
	for v := 1; v < 40; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(1, 2)
	star, err := Detect(NewNetwork(b.Build()), Cycle(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if star.Algorithm != "triangle-degree-split" || !star.Detected {
		t.Fatalf("star dispatch: %s detected=%v", star.Algorithm, star.Detected)
	}
}

func TestDetectDispatchOddCycle(t *testing.T) {
	nw := NewNetwork(Complete(8))
	rep, err := Detect(nw, Cycle(5), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "cycle-linear" {
		t.Fatalf("algorithm %s", rep.Algorithm)
	}
	if !rep.Detected {
		t.Fatal("C5 in K8 undetected")
	}
}

func TestDetectDispatchClique(t *testing.T) {
	nw := NewNetwork(Complete(7))
	rep, err := Detect(nw, Complete(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "neighbor-exchange" {
		t.Fatalf("algorithm %s", rep.Algorithm)
	}
	if !rep.Detected {
		t.Fatal("K4 in K7 undetected")
	}
}

func TestDetectDispatchGeneric(t *testing.T) {
	// The bull graph is neither tree, cycle nor clique.
	b := NewGraphBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 4)
	bull := b.Build()
	rng := rand.New(rand.NewSource(4))
	g := GNP(16, 0.35, rng)
	nw := NewNetwork(g)
	rep, err := Detect(nw, bull, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "edge-collection" {
		t.Fatalf("algorithm %s", rep.Algorithm)
	}
	if rep.Detected != ContainsSubgraph(bull, g) {
		t.Fatal("edge-collection answer wrong")
	}
}

func TestDetectEmptyPattern(t *testing.T) {
	nw := NewNetwork(Path(3))
	if _, err := Detect(nw, nil, Options{}); err == nil {
		t.Fatal("nil pattern accepted")
	}
}

func TestDetectLocalFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _ := PlantCycle(GNP(20, 0.05, rng), 7, rng)
	nw := NewNetwork(g)
	rep, err := DetectLocal(nw, Cycle(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("LOCAL missed planted C7")
	}
	if rep.Rounds > 10 {
		t.Fatalf("LOCAL rounds %d", rep.Rounds)
	}
}

// Property: a Detect reject is always sound — the pattern exists — for
// the exact detectors (clique and generic) on random inputs.
func TestQuickDetectSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(12, 0.3, rng)
		nw := NewNetwork(g)
		k4, err := Detect(nw, Complete(4), Options{Seed: seed})
		if err != nil {
			return false
		}
		if k4.Detected != ContainsSubgraph(Complete(4), g) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNewNetworkWithIDsFacade(t *testing.T) {
	nw := NewNetworkWithIDs(Path(3), []NodeID{30, 10, 20})
	rep, err := Detect(nw, Path(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("P3 in P3 undetected with custom ids")
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	nw := NewNetwork(Path(3))
	if _, err := DetectLocal(nw, nil, Options{}); err == nil {
		t.Fatal("nil pattern accepted by DetectLocal")
	}
	if _, err := DetectLocal(nw, Path(2), Options{Resilient: true}); err == nil {
		t.Fatal("resilient mode accepted by DetectLocal")
	}
	resilient := Options{Resilient: true}
	for _, h := range []*Graph{Path(3), Star(3), Complete(2), Complete(4), CompleteBipartite(2, 3)} {
		_, err := Detect(nw, h, resilient)
		if err == nil || CheckResilient(h, resilient) == nil || err.Error() != CheckResilient(h, resilient).Error() {
			t.Fatalf("resilient %v: Detect said %v, CheckResilient %v", h, err, CheckResilient(h, resilient))
		}
	}
	for _, h := range []*Graph{Cycle(3), Cycle(4), Cycle(5)} {
		if err := CheckResilient(h, resilient); err != nil {
			t.Fatalf("resilient %v refused: %v", h, err)
		}
	}
	if _, err := ListCliques(Complete(4), 1, 0); err == nil {
		t.Fatal("s=1 accepted by ListCliques")
	}
}

func TestListCliquesFacade(t *testing.T) {
	res, err := ListCliques(Complete(8), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cliques) != 56 { // C(8,3)
		t.Fatalf("K8 triangles: %d", len(res.Cliques))
	}
	if res.Rounds <= 0 || res.BandwidthBits <= 0 {
		t.Fatalf("degenerate listing report: %+v", res)
	}
}

func TestShapePredicates(t *testing.T) {
	if !isCycle(Cycle(5)) || isCycle(Path(5)) || isCycle(Complete(4)) {
		t.Fatal("isCycle broken")
	}
	if !isClique(Complete(3)) || isClique(Cycle(4)) {
		t.Fatal("isClique broken")
	}
	// K3 == C3: clique check runs first only for... dispatch: C3 is both
	// cycle and clique; isCycle(C3) and isClique(C3) both true — the
	// cycle branch wins in Detect (odd cycle → linear BFS), which is the
	// right algorithm for triangles.
	if !isCycle(Complete(3)) || !isClique(Complete(3)) {
		t.Fatal("triangle classification broken")
	}
}
