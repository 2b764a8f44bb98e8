package kernel

import (
	"math/rand"
	"testing"

	"subgraph/internal/graph"
)

// Steady-state allocation guards, in the PR 3 arena-guard style: the
// kernel's scratch (worker rows, marks, candidate lists, chunk bounds)
// is sized on first contact with a graph and must then be reused — a
// per-pass or per-edge allocation sneaking into the hot path multiplies
// across the serve batch loop and fails loudly here.

func steadyPassAllocs(t *testing.T, k *Kernel, b *graph.BitAdjacency, s, passes int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		for i := 0; i < passes; i++ {
			k.Count(b, s)
		}
	})
}

func TestKernelSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.GNP(150, 0.2, rng)
	for _, mode := range []struct {
		name string
		bits *graph.BitAdjacency
	}{
		{"dense", graph.NewBitAdjacencyDense(g)},
		{"hybrid", graph.NewBitAdjacencyHybrid(g)},
	} {
		for _, s := range []int{3, 4, 5} {
			k := New(3)
			k.Count(mode.bits, s) // warm the scratch
			if got := testing.AllocsPerRun(20, func() { k.Count(mode.bits, s) }); got != 0 {
				t.Errorf("%s K_%d: steady-state pass allocates %.1f objects, want 0", mode.name, s, got)
			}
			// The PR 3 scale check: 8× the passes must not mean 8× the
			// allocations — per-pass cost has to be exactly zero.
			few := steadyPassAllocs(t, k, mode.bits, s, 5)
			many := steadyPassAllocs(t, k, mode.bits, s, 40)
			if few != many {
				t.Errorf("%s K_%d: 5 passes allocate %.1f but 40 passes allocate %.1f — steady state leaks per pass",
					mode.name, s, few, many)
			}
			k.Close()
		}
	}

	// The filtered case. On a fresh adjacency the first K_3 pass records
	// the start edges: beyond building the adjacency it allocates the set
	// and the pointer that publishes it, once. The K_4 and K_5 passes
	// after it visit the start edges alone and allocate nothing.
	for _, build := range []func(*graph.Graph) *graph.BitAdjacency{
		graph.NewBitAdjacencyDense, graph.NewBitAdjacencyHybrid,
	} {
		k := New(3)
		warm := build(g)
		for s := 3; s <= 5; s++ {
			k.Count(warm, s) // size the scratch, the recording words included
		}
		built := testing.AllocsPerRun(5, func() { build(g) })
		if got := testing.AllocsPerRun(5, func() { k.Count(build(g), 3) }) - built; got < 1 || got > 2 {
			t.Errorf("%s: the recording K_3 pass allocates %.1f objects, want the start-edge set and its pointer", warm.Mode(), got)
		}
		b := build(g)
		k.Count(b, 3)
		if _, ok := b.StartEdges(); !ok {
			t.Fatalf("%s: a full K_3 pass published no start edges", b.Mode())
		}
		if got := testing.AllocsPerRun(20, func() { k.Count(b, 4); k.Count(b, 5) }); got != 0 {
			t.Errorf("%s: filtered K_4 and K_5 passes allocate %.1f objects, want 0", b.Mode(), got)
		}
		k.Close()
	}
}

// TestCountDeltaSteadyStateAllocs pins CountDelta's pooled scratch: once
// a call has sized it, a call of any size up to it allocates nothing.
// Under the race detector a sync.Pool drops items on purpose, so the
// guard runs in plain builds only.
func TestCountDeltaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items")
	}
	rng := rand.New(rand.NewSource(21))
	g := graph.GNP(150, 0.2, rng)
	res, err := graph.ApplyDelta(g, churnDelta(rng, g, 16))
	if err != nil {
		t.Fatal(err)
	}
	k := New(1)
	defer k.Close()
	k.CountDelta(g, nil, res.Graph, nil, MaxCliqueSize, res.Touched, 0) // size the scratch
	for s := 3; s <= 6; s++ {
		pc := g.CountCliques(s)
		if got := testing.AllocsPerRun(20, func() { k.CountDelta(g, nil, res.Graph, nil, s, res.Touched, pc) }); got != 0 {
			t.Errorf("K_%d: a steady-state CountDelta allocates %.1f objects, want 0", s, got)
		}
	}
}
