package kernel

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"subgraph/internal/graph"
)

// TestCountDeltaMatchesScratch applies random deltas and checks the
// incremental count equals a from-scratch count of the child.
func TestCountDeltaMatchesScratch(t *testing.T) {
	k := New(2)
	defer k.Close()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 12 + rng.Intn(28)
		parent := graph.GNP(n, 0.25, rng)
		parent, _ = graph.PlantClique(parent, 5, rng)
		var d graph.EdgeDelta
		for _, e := range parent.Edges() {
			if rng.Float64() < 0.08 {
				d.Delete = append(d.Delete, e)
			}
		}
		for i := 0; i < 4; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || parent.HasEdge(u, v) {
				continue
			}
			dup := false
			for _, e := range d.Insert {
				if e == [2]int{u, v} || e == [2]int{v, u} {
					dup = true
				}
			}
			if !dup {
				d.Insert = append(d.Insert, [2]int{u, v})
			}
		}
		res, err := graph.ApplyDelta(parent, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		child := res.Graph
		pb := graph.NewBitAdjacency(parent)
		cb := graph.NewBitAdjacency(child)
		for s := 2; s <= 6; s++ {
			parentCount := k.Count(pb, s)
			want := k.Count(cb, s)
			got := k.CountDelta(parent, pb, child, cb, s, res.Touched, parentCount)
			if got != want {
				t.Fatalf("trial %d s=%d: CountDelta = %d, want %d (touched %d/%d)",
					trial, s, got, want, len(res.Touched), n)
			}
		}
	}
}

// TestCountDeltaEdgeCases covers the trivial sizes, an empty touched
// set, and touched sets that are unsorted, repeat vertices, run out of
// range or name vertices no changed edge ends at.
func TestCountDeltaEdgeCases(t *testing.T) {
	k := New(1)
	defer k.Close()
	g := graph.Complete(6)
	res, err := graph.ApplyDelta(g, graph.EdgeDelta{Delete: [][2]int{{0, 1}, {2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	child := res.Graph
	if got := k.CountDelta(g, nil, child, nil, 1, res.Touched, 6); got != 6 {
		t.Fatalf("s=1: got %d, want 6", got)
	}
	if got := k.CountDelta(g, nil, child, nil, 2, res.Touched, 15); got != 13 {
		t.Fatalf("s=2: got %d, want 13", got)
	}
	if got := k.CountDelta(g, nil, g, nil, 3, nil, 20); got != 20 {
		t.Fatalf("no change: got %d, want the parent count 20", got)
	}
	messy := []int32{5, 3, -1, 0, 2, 3, 1, 0, 6, 99, 4}
	for s := 3; s <= 6; s++ {
		want := child.CountCliques(s)
		for _, touched := range [][]int32{res.Touched, messy} {
			if got := k.CountDelta(g, nil, child, nil, s, touched, g.CountCliques(s)); got != want {
				t.Fatalf("K_%d with touched %v: CountDelta = %d, want %d", s, touched, got, want)
			}
		}
	}
}

// TestCountDeltaMatchesEnumeration checks CountDelta against enumeration
// on 400 random graphs of 6 to 35 vertices, for K_3..K_7. Each delta
// deletes and inserts, and re-inserts some of the edges it deletes, which
// is no change: the charge to a clique's first changed edge must then
// skip the re-inserted edge on both sides.
func TestCountDeltaMatchesEnumeration(t *testing.T) {
	k := New(1)
	defer k.Close()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := 6 + rng.Intn(30)
		g := graph.GNP(n, 0.2+0.5*rng.Float64(), rng)
		var d graph.EdgeDelta
		for _, e := range g.Edges() {
			switch r := rng.Float64(); {
			case r < 0.1:
				d.Delete = append(d.Delete, e)
			case r < 0.15:
				d.Delete = append(d.Delete, e)
				d.Insert = append(d.Insert, [2]int{e[1], e[0]})
			}
		}
		for i := 0; i < 6; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			e := [2]int{min(u, v), max(u, v)}
			if u != v && !g.HasEdge(u, v) && !slices.Contains(d.Insert, e) {
				d.Insert = append(d.Insert, e)
			}
		}
		res, err := graph.ApplyDelta(g, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for s := 3; s <= 7; s++ {
			want := res.Graph.CountCliques(s)
			if got := k.CountDelta(g, nil, res.Graph, nil, s, res.Touched, g.CountCliques(s)); got != want {
				t.Fatalf("trial %d K_%d on %v with delta %+v: CountDelta = %d, enumeration = %d",
					trial, s, g, d, got, want)
			}
		}
	}
}

// TestCountDeltaConcurrent runs CountDelta from several goroutines on one
// parent, each into its own child, so that under -race the pooled scratch
// is shown never to be shared between calls.
func TestCountDeltaConcurrent(t *testing.T) {
	k := New(1)
	defer k.Close()
	rng := rand.New(rand.NewSource(13))
	parent, _ := graph.PlantClique(graph.GNP(120, 0.15, rng), 6, rng)
	type step struct {
		res  *graph.DeltaResult
		want [MaxCliqueSize + 1]int64
	}
	steps := make([]step, 6)
	var pc [MaxCliqueSize + 1]int64
	for s := 3; s <= 6; s++ {
		pc[s] = parent.CountCliques(s)
	}
	for i := range steps {
		var d graph.EdgeDelta
		edges := parent.Edges()
		for _, j := range rng.Perm(len(edges))[:10+i] {
			d.Delete = append(d.Delete, edges[j])
		}
		res, err := graph.ApplyDelta(parent, d)
		if err != nil {
			t.Fatal(err)
		}
		steps[i].res = res
		for s := 3; s <= 6; s++ {
			steps[i].want[s] = res.Graph.CountCliques(s)
		}
	}
	var wg sync.WaitGroup
	for _, st := range steps {
		wg.Add(1)
		go func(st step) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for s := 3; s <= 6; s++ {
					if got := k.CountDelta(parent, nil, st.res.Graph, nil, s, st.res.Touched, pc[s]); got != st.want[s] {
						t.Errorf("K_%d: CountDelta = %d, want %d", s, got, st.want[s])
						return
					}
				}
			}
		}(st)
	}
	wg.Wait()
}

// TestCountSuccessorHybrid plants a K_6 through a delta on a graph past
// the dense budget (n = 11586), where a count job's adjacency of the
// successor takes the hybrid form. CountDelta into it must equal a
// scratch hybrid count.
func TestCountSuccessorHybrid(t *testing.T) {
	k := New(2)
	defer k.Close()
	rng := rand.New(rand.NewSource(9))
	g := graph.GNM(11586, 40000, rng)
	var d graph.EdgeDelta
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			u, v := 1000*i, 1000*j
			if !g.HasEdge(u, v) {
				d.Insert = append(d.Insert, [2]int{u, v})
			}
		}
	}
	res, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	pb, scratch := graph.NewBitAdjacency(g), graph.NewBitAdjacency(res.Graph)
	if graph.ModeFor(res.Graph.N()) != graph.BitHybrid || scratch.Mode() != graph.BitHybrid {
		t.Fatalf("modes %s (ModeFor), %s (scratch), want hybrid", graph.ModeFor(res.Graph.N()), scratch.Mode())
	}
	for s := 3; s <= 6; s++ {
		want := k.Count(scratch, s)
		if s == 6 && want == 0 {
			t.Fatal("the planted K_6 was not counted")
		}
		if got := k.CountDelta(g, nil, res.Graph, nil, s, res.Touched, k.Count(pb, s)); got != want {
			t.Fatalf("K_%d: CountDelta into the successor = %d, scratch Count = %d", s, got, want)
		}
	}
}
