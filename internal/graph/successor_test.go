package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// churnStep draws a delta of half deletes and half inserts against g,
// so a chain of them keeps the density put.
func churnStep(rng *rand.Rand, g *Graph, changes int) EdgeDelta {
	var d EdgeDelta
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	d.Delete = edges[:min(changes/2, len(edges))]
	for tries := 0; len(d.Insert) < changes/2 && tries < 100*changes; tries++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		e := [2]int{min(u, v), max(u, v)}
		if u == v || g.HasEdge(u, v) || slices.Contains(d.Insert, e) {
			continue
		}
		d.Insert = append(d.Insert, e)
	}
	return d
}

// forwardUnder returns, rank by rank, the ascending ranks of g's
// neighbors above each rank under the given order.
func forwardUnder(g *Graph, order, rank []int32) [][]int32 {
	out := make([][]int32, g.N())
	for r, v := range order {
		for _, w := range g.Neighbors(int(v)) {
			if rank[w] > int32(r) {
				out[r] = append(out[r], rank[w])
			}
		}
		slices.Sort(out[r])
	}
	return out
}

func longest(lists [][]int32) int {
	m := 0
	for _, l := range lists {
		m = max(m, len(l))
	}
	return m
}

// checkSuccessor pins next, the Successor of prev for child, to its
// contract: the inherited order while the longest forward list stays
// within repeelFactor times the last peel's degeneracy, child's own
// degeneracy order past it; forward lists that are child's edges oriented
// by that order, ascending; Degeneracy() the longest list; a scratch
// build's mode; and rows that wait for FillRows, then reconstruct
// Neighbors(). It reports whether next re-peeled.
func checkSuccessor(t *testing.T, step int, prev, next *BitAdjacency, child *Graph) bool {
	t.Helper()
	inherited := forwardUnder(child, prev.Order(), prev.Rank())
	repeel := longest(inherited) > repeelFactor*prev.peelDegen
	want := inherited
	if repeel {
		order, rank, degen := child.DegeneracyRank()
		if !slices.Equal(next.Order(), order) || !slices.Equal(next.Rank(), rank) {
			t.Fatalf("step %d: re-peeled successor's order is not DegeneracyRank's", step)
		}
		if next.peelDegen != degen {
			t.Fatalf("step %d: re-peeled successor records peel degeneracy %d, want %d", step, next.peelDegen, degen)
		}
		want = forwardUnder(child, order, rank)
	} else {
		if &next.Order()[0] != &prev.Order()[0] || &next.Rank()[0] != &prev.Rank()[0] {
			t.Fatalf("step %d: successor within the bound does not share its parent's order", step)
		}
		if next.peelDegen != prev.peelDegen {
			t.Fatalf("step %d: peel degeneracy %d, inherited %d", step, next.peelDegen, prev.peelDegen)
		}
		if next.rows != nil {
			t.Fatalf("step %d: successor filled its rows before FillRows", step)
		}
	}
	for r := range want {
		if got := next.Forward(int32(r)); !slices.Equal(got, want[r]) {
			t.Fatalf("step %d: rank %d forward list %v, want %v", step, r, got, want[r])
		}
	}
	if got, want := next.Degeneracy(), longest(want); got != want {
		t.Fatalf("step %d: Degeneracy() = %d, longest forward list %d", step, got, want)
	}
	if got, want := next.Mode(), NewBitAdjacency(child).Mode(); got != want {
		t.Fatalf("step %d: mode %s, scratch build %s", step, got, want)
	}
	if next.N() != child.N() || next.M() != child.M() {
		t.Fatalf("step %d: size n=%d m=%d, child n=%d m=%d", step, next.N(), next.M(), child.N(), child.M())
	}
	next.FillRows()
	for v := 0; v < child.N(); v++ {
		if got := reconstruct(next, v); !slices.Equal(got, child.Neighbors(v)) {
			t.Fatalf("step %d: vertex %d reconstructs as %v, want %v", step, v, got, child.Neighbors(v))
		}
	}
	return repeel
}

// TestSuccessorChain follows a 500-step chain of 8-change deltas, each
// child's adjacency the Successor of its parent's, and checks every step
// against checkSuccessor. The chain drifts past the re-peel bound, so
// both branches run.
func TestSuccessorChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cur := GNP(120, 0.08, rng)
	b := NewBitAdjacency(cur)
	repeels := 0
	for step := 0; step < 500; step++ {
		res, err := ApplyDelta(cur, churnStep(rng, cur, 8))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		next := b.Successor(res.Graph, res.Touched)
		if checkSuccessor(t, step, b, next, res.Graph) {
			repeels++
		}
		cur, b = res.Graph, next
	}
	if repeels == 0 || repeels == 500 {
		t.Fatalf("%d of 500 steps re-peeled: the chain must run both branches", repeels)
	}
}

// TestSuccessorRepeels joins the lowest-rank vertex of a cycle to ten
// others. Its forward list grows from 2 to 12, past twice the cycle's
// degeneracy, so the successor carries the child's own degeneracy order.
// One new edge (a list of 3) stays within the bound and keeps the order.
func TestSuccessorRepeels(t *testing.T) {
	g := Cycle(40)
	b := NewBitAdjacency(g)
	low := int(b.Order()[0])
	var d EdgeDelta
	for v := 0; v < g.N() && len(d.Insert) < 10; v++ {
		if v != low && !g.HasEdge(low, v) {
			d.Insert = append(d.Insert, [2]int{low, v})
		}
	}
	for i, delta := range []EdgeDelta{d, {Insert: d.Insert[:1]}} {
		res, err := ApplyDelta(g, delta)
		if err != nil {
			t.Fatal(err)
		}
		next := b.Successor(res.Graph, res.Touched)
		if repeel := checkSuccessor(t, i, b, next, res.Graph); repeel != (i == 0) {
			t.Fatalf("delta %d (%d inserts): re-peel %v, want %v", i, len(delta.Insert), repeel, i == 0)
		}
	}
}

// TestFillRowsConcurrent fills one successor's rows from several
// goroutines at once, each reading them back at once; under -race this
// pins that the fill happens once and is published to every caller.
func TestFillRowsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := GNP(300, 0.05, rng)
	res, err := ApplyDelta(g, churnStep(rng, g, 8))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBitAdjacency(g).Successor(res.Graph, res.Touched)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			b.FillRows()
			for v := w; v < res.Graph.N(); v += 4 {
				if got := reconstruct(b, v); !slices.Equal(got, res.Graph.Neighbors(v)) {
					t.Errorf("vertex %d reconstructs as %v, want %v", v, got, res.Graph.Neighbors(v))
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}
