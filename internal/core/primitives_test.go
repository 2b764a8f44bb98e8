package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

func TestNetworkSummaryOnCycle(t *testing.T) {
	g := graph.Cycle(12)
	nw := congest.NewNetwork(g)
	rep, err := ComputeNetworkSummary(nw, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeaderID != 0 {
		t.Errorf("leader %d, want 0", rep.LeaderID)
	}
	if rep.EdgeCount != 12 {
		t.Errorf("m=%d", rep.EdgeCount)
	}
	if !rep.Consistent {
		t.Error("nodes disagree")
	}
	if rep.Depth != 6 {
		t.Errorf("depth %d, want 6 (cycle eccentricity)", rep.Depth)
	}
}

func TestNetworkSummaryOnPath(t *testing.T) {
	// Worst-case depth: leader at one end of a path.
	g := graph.Path(15)
	nw := congest.NewNetwork(g)
	rep, err := ComputeNetworkSummary(nw, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EdgeCount != 14 || !rep.Consistent {
		t.Fatalf("m=%d consistent=%v", rep.EdgeCount, rep.Consistent)
	}
	if rep.Depth != 14 {
		t.Errorf("depth %d", rep.Depth)
	}
}

func TestNetworkSummaryShiftedIDs(t *testing.T) {
	// The leader must be the minimum identifier, not vertex 0.
	g := graph.Cycle(6)
	ids := []congest.NodeID{50, 40, 30, 20, 10, 60}
	nw := congest.NewNetworkWithIDs(g, ids)
	rep, err := ComputeNetworkSummary(nw, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeaderID != 10 {
		t.Errorf("leader %d, want 10", rep.LeaderID)
	}
	if rep.EdgeCount != 6 || !rep.Consistent {
		t.Fatalf("m=%d consistent=%v", rep.EdgeCount, rep.Consistent)
	}
}

func TestNetworkSummaryDisconnectedRejected(t *testing.T) {
	g, _ := graph.DisjointUnion(graph.Path(3), graph.Path(3))
	nw := congest.NewNetwork(g)
	if _, err := ComputeNetworkSummary(nw, SummaryConfig{}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// Property: the summary computes the exact edge count with consistent
// agreement on random connected graphs, within the O(n) round budget.
func TestQuickNetworkSummary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(20, 0.2, rng)
		if !g.Connected() {
			return true
		}
		nw := congest.NewNetwork(g)
		rep, err := ComputeNetworkSummary(nw, SummaryConfig{Exec: Exec{Seed: seed}})
		if err != nil {
			return false
		}
		return rep.Consistent && rep.EdgeCount == g.M() && rep.Rounds <= 3*g.N()+4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// connectedGNP draws GNP(n, p) samples from rng until one is connected:
// the network summary refuses a disconnected network. It fails the test
// if none of a bounded number of draws connects, rather than skipping.
func connectedGNP(t *testing.T, n int, p float64, rng *rand.Rand) *graph.Graph {
	t.Helper()
	const draws = 20
	for i := 0; i < draws; i++ {
		if g := graph.GNP(n, p, rng); g.Connected() {
			return g
		}
	}
	t.Fatalf("no connected GNP(%d, %g) sample in %d draws", n, p, draws)
	return nil
}

func TestNetworkSummaryParallelEngineAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := connectedGNP(t, 25, 0.15, rng)
	nw := congest.NewNetwork(g)
	a, err := ComputeNetworkSummary(nw, SummaryConfig{Exec: Exec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeNetworkSummary(nw, SummaryConfig{Exec: Exec{Seed: 1, Parallel: true}})
	if err != nil {
		t.Fatal(err)
	}
	if a.EdgeCount != b.EdgeCount || a.LeaderID != b.LeaderID || a.Stats.TotalBits != b.Stats.TotalBits {
		t.Fatalf("engines disagree: %+v vs %+v", a, b)
	}
}

// --- broadcast-CONGEST mode ---

func TestEvenCycleBroadcastMode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, cyc := graph.PlantCycle(graph.GNP(35, 0.03, rng), 4, rng)
	nw := congest.NewNetwork(g)
	rep, err := DetectEvenCycle(nw, EvenCycleConfig{
		K:             2,
		Coloring:      PlantedColoring(nw, cyc, 5),
		BroadcastOnly: true,
	})
	if err != nil {
		t.Fatalf("even-cycle detection is broadcast-only but failed under broadcast-CONGEST: %v", err)
	}
	if !rep.Detected {
		t.Fatal("planted C4 undetected in broadcast mode")
	}
}

func TestLinearCycleBroadcastMode(t *testing.T) {
	nw := congest.NewNetwork(graph.Cycle(9))
	rep, err := DetectCycleLinear(nw, LinearCycleConfig{
		CycleLen:      9,
		Coloring:      PlantedColoring(nw, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 1),
		BroadcastOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("C9 undetected in broadcast mode")
	}
}
