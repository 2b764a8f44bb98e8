package graph

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func deltaTestBase(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6)
	// Path 0-1-2-3 plus triangle 3-4-5.
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	return b.Build()
}

func TestApplyDeltaBasic(t *testing.T) {
	g := deltaTestBase(t)
	res, err := ApplyDelta(g, EdgeDelta{
		Insert: [][2]int{{0, 2}},
		Delete: [][2]int{{4, 5}},
	})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	child := res.Graph
	if child.N() != g.N() {
		t.Fatalf("child N = %d, want %d", child.N(), g.N())
	}
	if child.M() != g.M() {
		t.Fatalf("child M = %d, want %d (one in, one out)", child.M(), g.M())
	}
	if !child.HasEdge(0, 2) || child.HasEdge(4, 5) {
		t.Fatalf("delta not applied: has(0,2)=%v has(4,5)=%v", child.HasEdge(0, 2), child.HasEdge(4, 5))
	}
	if g.HasEdge(0, 2) || !g.HasEdge(4, 5) {
		t.Fatalf("base graph mutated")
	}
	want := []int32{0, 2, 4, 5}
	if len(res.Touched) != len(want) {
		t.Fatalf("touched = %v, want %v", res.Touched, want)
	}
	for i, v := range want {
		if res.Touched[i] != v {
			t.Fatalf("touched = %v, want %v", res.Touched, want)
		}
	}
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("counts = (%d,%d), want (1,1)", res.Inserted, res.Deleted)
	}
}

func TestApplyDeltaEmpty(t *testing.T) {
	g := deltaTestBase(t)
	res, err := ApplyDelta(g, EdgeDelta{})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res.Graph != g {
		t.Fatalf("empty delta should return the base graph itself")
	}
	if len(res.Touched) != 0 {
		t.Fatalf("empty delta touched %v", res.Touched)
	}
	if res.Graph.Digest() != g.Digest() {
		t.Fatalf("empty delta changed the digest")
	}
}

func TestApplyDeltaDeleteThenReinsert(t *testing.T) {
	g := deltaTestBase(t)
	// Same edge in both halves: delete applies first, then the insert,
	// so the edge set — and the digest — are unchanged, but the
	// endpoints are still touched.
	res, err := ApplyDelta(g, EdgeDelta{
		Insert: [][2]int{{0, 1}},
		Delete: [][2]int{{1, 0}},
	})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res.Graph.Digest() != g.Digest() {
		t.Fatalf("delete+reinsert changed the digest")
	}
	if len(res.Touched) != 2 || res.Touched[0] != 0 || res.Touched[1] != 1 {
		t.Fatalf("touched = %v, want [0 1]", res.Touched)
	}
}

func TestDeltaValidation(t *testing.T) {
	g := deltaTestBase(t)
	cases := []struct {
		name   string
		d      EdgeDelta
		reason string
	}{
		{"delete missing", EdgeDelta{Delete: [][2]int{{0, 5}}}, DeltaDeleteMissing},
		{"insert existing", EdgeDelta{Insert: [][2]int{{0, 1}}}, DeltaInsertExisting},
		{"insert self-loop", EdgeDelta{Insert: [][2]int{{2, 2}}}, DeltaSelfLoop},
		{"delete self-loop", EdgeDelta{Delete: [][2]int{{2, 2}}}, DeltaSelfLoop},
		{"insert out of range", EdgeDelta{Insert: [][2]int{{0, 6}}}, DeltaEdgeOutOfRange},
		{"delete out of range", EdgeDelta{Delete: [][2]int{{-1, 2}}}, DeltaEdgeOutOfRange},
		{"duplicate insert", EdgeDelta{Insert: [][2]int{{0, 2}, {2, 0}}}, DeltaDuplicateEntry},
		{"duplicate delete", EdgeDelta{Delete: [][2]int{{0, 1}, {1, 0}}}, DeltaDuplicateEntry},
		{"insert existing not deleted", EdgeDelta{
			Delete: [][2]int{{1, 2}},
			Insert: [][2]int{{0, 1}},
		}, DeltaInsertExisting},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate(g)
			var de *DeltaError
			if !errors.As(err, &de) {
				t.Fatalf("Validate = %v, want *DeltaError", err)
			}
			if de.Reason != tc.reason {
				t.Fatalf("reason = %q, want %q", de.Reason, tc.reason)
			}
			if _, aerr := ApplyDelta(g, tc.d); aerr == nil {
				t.Fatalf("ApplyDelta accepted an invalid delta")
			}
		})
	}
}

func TestChurnRatio(t *testing.T) {
	g := deltaTestBase(t) // m = 6
	d := EdgeDelta{Insert: [][2]int{{0, 2}}, Delete: [][2]int{{0, 1}, {1, 2}}}
	if got := d.ChurnRatio(g); got != 0.5 {
		t.Fatalf("ChurnRatio = %v, want 0.5", got)
	}
	if got := (EdgeDelta{}).ChurnRatio(g); got != 0 {
		t.Fatalf("empty ChurnRatio = %v, want 0", got)
	}
	empty := NewBuilder(3).Build()
	if got := (EdgeDelta{Insert: [][2]int{{0, 1}}}).ChurnRatio(empty); got != 1 {
		t.Fatalf("edgeless-base ChurnRatio = %v, want 1", got)
	}
}

// TestApplyDeltaMatchesScratch drives random delta sequences and checks
// the applied chain stays byte-identical (by digest) to a graph rebuilt
// from scratch out of an independently maintained edge set.
func TestApplyDeltaMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(20)
		cur := GNP(n, 0.3, rng)
		edges := make(map[[2]int32]struct{})
		for _, e := range cur.Edges() {
			edges[normEdge(e[0], e[1])] = struct{}{}
		}
		for step := 0; step < 8; step++ {
			var d EdgeDelta
			for _, e := range cur.Edges() {
				if rng.Float64() < 0.15 {
					d.Delete = append(d.Delete, e)
				}
			}
			for k := 0; k < 3; k++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || cur.HasEdge(u, v) {
					continue
				}
				dup := false
				for _, e := range d.Insert {
					if normEdge(e[0], e[1]) == normEdge(u, v) {
						dup = true
						break
					}
				}
				if !dup {
					d.Insert = append(d.Insert, [2]int{u, v})
				}
			}
			res, err := ApplyDelta(cur, d)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for _, e := range d.Delete {
				delete(edges, normEdge(e[0], e[1]))
			}
			for _, e := range d.Insert {
				edges[normEdge(e[0], e[1])] = struct{}{}
			}
			b := NewBuilder(n)
			for key := range edges {
				b.AddEdge(int(key[0]), int(key[1]))
			}
			scratch := b.Build()
			if res.Graph.Digest() != scratch.Digest() {
				t.Fatalf("trial %d step %d: delta digest %s != scratch digest %s",
					trial, step, res.Graph.Digest(), scratch.Digest())
			}
			cur = res.Graph
		}
	}
}

// TestCycleDirtyCheckMatchesTruth pins the dirty-region cycle rules
// against the centralized ground truth on random deltas.
func TestCycleDirtyCheckMatchesTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(16)
		parent := GNP(n, 0.12, rng)
		var d EdgeDelta
		for _, e := range parent.Edges() {
			if rng.Float64() < 0.1 {
				d.Delete = append(d.Delete, e)
			}
		}
		for k := 0; k < 2+rng.Intn(3); k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || parent.HasEdge(u, v) {
				continue
			}
			dup := false
			for _, e := range d.Insert {
				if normEdge(e[0], e[1]) == normEdge(u, v) {
					dup = true
					break
				}
			}
			if !dup {
				d.Insert = append(d.Insert, [2]int{u, v})
			}
		}
		res, err := ApplyDelta(parent, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		child := res.Graph
		for _, L := range []int{3, 4, 5} {
			parentHas := ContainsSubgraph(Cycle(L), parent)
			wantHas := ContainsSubgraph(Cycle(L), child)
			has, ok := CycleDirtyCheck(child, d, L, parentHas)
			if !ok {
				// Fallback cases must only arise when the rules say so.
				if !(parentHas && len(d.Delete) > 0) {
					t.Fatalf("trial %d L=%d: unexpected fallback", trial, L)
				}
				continue
			}
			if has != wantHas {
				t.Fatalf("trial %d L=%d: CycleDirtyCheck = %v, want %v (parentHas=%v, delta=%+v)",
					trial, L, has, wantHas, parentHas, d)
			}
		}
	}
}

// TestApplyDeltaAllocBytes bounds what an 8-change delta on the churn
// shape allocates: the child's CSR arrays, 4·(2m + n + 1) bytes, plus at
// most 32 KiB for the change maps, the touched list and the copied block
// sums. A per-vertex array of row views (24 bytes a vertex, 48 KB here)
// does not fit in that slack.
func TestApplyDeltaAllocBytes(t *testing.T) {
	g := churnShape()
	g.Digest()
	d := churnStep(rand.New(rand.NewSource(2)), g, 8)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := ApplyDelta(g, d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	floor := uint64(4 * (2*g.M() + g.N() + 1))
	if perOp > floor+32<<10 {
		t.Fatalf("ApplyDelta allocated %d bytes per delta, want at most %d (CSR) + %d", perOp, floor, 32<<10)
	}
}

func BenchmarkApplyDelta(b *testing.B) {
	g := churnShape()
	g.Digest()
	d := churnStep(rand.New(rand.NewSource(2)), g, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ApplyDelta(g, d); err != nil {
			b.Fatal(err)
		}
	}
}

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
