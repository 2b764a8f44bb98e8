package graph

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// bitsetCorpus is the shared random/generator graph set the bitset and
// degeneracy properties run over.
func bitsetCorpus(t *testing.T) []*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	gs := []*Graph{
		NewBuilder(0).Build(),
		NewBuilder(1).Build(),
		Path(9),
		Cycle(12),
		Star(17),
		Complete(13),
		CompleteBipartite(5, 8),
		BlowUpCycle(4, 3),
		RandomTree(40, rng),
	}
	for _, n := range []int{10, 33, 64, 65, 100, 130} {
		gs = append(gs, GNP(n, 0.15, rng), GNP(n, 0.5, rng))
	}
	g, _ := PlantClique(GNP(50, 0.1, rng), 5, rng)
	gs = append(gs, g)
	return gs
}

// reconstruct recovers v's neighbor list from a BitAdjacency, whichever
// form it is in.
func reconstruct(b *BitAdjacency, v int) []int32 {
	rank := b.Rank()
	order := b.Order()
	var out []int32
	rv := rank[v]
	if b.Mode() == BitDense {
		// Upper rows keep a neighborhood in two halves: every stored bit
		// of v's own row (the neighbors above rv), plus bit rv of each
		// lower row (the neighbors below). Reading every stored bit, not
		// just those above rv, lets a stray bit fail the comparison.
		base := int(rv) >> 6
		for wi, w := range b.UpperRow(rv) {
			for w != 0 {
				q := (base+wi)<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				out = append(out, order[q])
			}
		}
		for r := int32(0); r < rv; r++ {
			if b.UpperRow(r)[int(rv)>>6-int(r)>>6]>>(uint(rv)&63)&1 == 1 {
				out = append(out, order[r])
			}
		}
	} else {
		// Hybrid keeps forward lists only: v's neighbors are its forward
		// neighbors plus every u whose forward list contains v.
		for _, q := range b.Forward(rv) {
			out = append(out, order[q])
		}
		for r := int32(0); int(r) < b.N(); r++ {
			for _, q := range b.Forward(r) {
				if q == rv {
					out = append(out, order[r])
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestBitAdjacencyReconstructsNeighbors pins the tentpole layout to the
// CSR ground truth: both bitset forms reconstruct exactly the
// Neighbors() views on every corpus graph.
func TestBitAdjacencyReconstructsNeighbors(t *testing.T) {
	for gi, g := range bitsetCorpus(t) {
		for _, b := range []*BitAdjacency{NewBitAdjacencyDense(g), NewBitAdjacencyHybrid(g)} {
			if b.N() != g.N() || b.M() != g.M() {
				t.Fatalf("graph %d (%v) %s: size mismatch n=%d m=%d", gi, g, b.Mode(), b.N(), b.M())
			}
			for r := int32(0); b.Mode() == BitDense && int(r) < b.N(); r++ {
				if got, want := len(b.UpperRow(r)), b.Words()-int(r)>>6; got != want {
					t.Fatalf("graph %d (%v): upper row %d holds %d words, want %d", gi, g, r, got, want)
				}
			}
			for v := 0; v < g.N(); v++ {
				got := reconstruct(b, v)
				want := g.Neighbors(v)
				if len(got) != len(want) {
					t.Fatalf("graph %d (%v) %s vertex %d: %d neighbors, want %d\ngot %v\nwant %v",
						gi, g, b.Mode(), v, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("graph %d (%v) %s vertex %d: neighbors %v, want %v",
							gi, g, b.Mode(), v, got, want)
					}
				}
			}
		}
	}
}

// TestBitAdjacencyModeSelection pins the automatic dense/hybrid choice
// at the two ends of the budget.
func TestBitAdjacencyModeSelection(t *testing.T) {
	if got := NewBitAdjacency(Complete(16)).Mode(); got != BitDense {
		t.Fatalf("small graph chose %s, want dense", got)
	}
	// n × ceil(n/64) words must exceed denseWordBudget to go hybrid:
	// n = 11586 gives 11586 × 182 > 2^21.
	rng := rand.New(rand.NewSource(3))
	big := GNM(11586, 20000, rng)
	if got := NewBitAdjacency(big).Mode(); got != BitHybrid {
		t.Fatalf("big sparse graph chose %s, want hybrid", got)
	}
}

// TestBitAdjacencyForwardOrdering pins the invariants the kernels lean
// on: forward lists are ascending ranks, strictly above the row's own
// rank, and no longer than the degeneracy.
func TestBitAdjacencyForwardOrdering(t *testing.T) {
	for gi, g := range bitsetCorpus(t) {
		b := NewBitAdjacencyHybrid(g)
		for r := int32(0); int(r) < b.N(); r++ {
			fwd := b.Forward(r)
			if len(fwd) > b.Degeneracy() {
				t.Fatalf("graph %d (%v): rank %d has %d forward neighbors > degeneracy %d",
					gi, g, r, len(fwd), b.Degeneracy())
			}
			prev := r
			for _, q := range fwd {
				if q <= prev {
					t.Fatalf("graph %d (%v): rank %d forward list %v not strictly ascending above the rank",
						gi, g, r, fwd)
				}
				prev = q
			}
		}
	}
}

// BenchmarkNewBitAdjacency builds the churn shape's dense adjacency, rows
// included: it walks every CSR row, so it is where a slower Neighbors
// shows.
func BenchmarkNewBitAdjacency(b *testing.B) {
	g := churnShape()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		NewBitAdjacency(g)
	}
}
