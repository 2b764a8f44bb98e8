package kernel

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"subgraph/internal/comm"
	"subgraph/internal/graph"
	"subgraph/internal/lower"
)

// wordsOf packs fuzz bytes into uint64 rows (little-endian, zero-padded
// tail) so arbitrary inputs exercise partial words.
func wordsOf(data []byte) []uint64 {
	out := make([]uint64, (len(data)+7)/8)
	for i, b := range data {
		out[i>>3] |= uint64(b) << (uint(i&7) * 8)
	}
	return out
}

// naiveAbove materializes both rows as explicit vertex sets and returns
// their intersection strictly above bit off, ascending — the reference
// the masked word primitives must match.
func naiveAbove(a, b []uint64, off uint) []int {
	in := make(map[int]bool)
	for wi, w := range a {
		for w != 0 {
			in[wi<<6+bits.TrailingZeros64(w)] = true
			w &= w - 1
		}
	}
	var out []int
	for wi, w := range b {
		for w != 0 {
			q := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if q > int(off) && in[q] {
				out = append(out, q)
			}
		}
	}
	return out
}

// checkAbove runs both masked intersections on the aligned suffixes a
// and b (equal lengths) and compares them, and the row the writing form
// leaves in its destination, to naiveAbove.
func checkAbove(t *testing.T, a, b []uint64, off uint) {
	t.Helper()
	want := naiveAbove(a, b, off)
	if got := intersectCountAbove(a, b, off); got != int64(len(want)) {
		t.Fatalf("intersectCountAbove(off %d) = %d, naive intersection = %d (%d words)", off, got, len(want), len(a))
	}
	if got := intersectCountAbove(b, a, off); got != int64(len(want)) {
		t.Fatalf("intersectCountAbove(off %d) not symmetric: %d vs naive %d", off, got, len(want))
	}
	// One sentinel word past the end catches a write beyond len(a).
	const sentinel = 0x5a5a5a5a5a5a5a5a
	dst := make([]uint64, len(a)+1)
	dst[len(a)] = sentinel
	if got := intersectAboveInto(dst, a, b, off); got != int64(len(want)) {
		t.Fatalf("intersectAboveInto(off %d) = %d, naive intersection = %d", off, got, len(want))
	}
	wantRow := make([]uint64, len(a)+1)
	wantRow[len(a)] = sentinel
	for _, q := range want {
		wantRow[q>>6] |= 1 << (uint(q) & 63)
	}
	for i := range dst {
		if dst[i] != wantRow[i] {
			t.Fatalf("intersectAboveInto(off %d) wrote word %d = %#x, want %#x", off, i, dst[i], wantRow[i])
		}
	}
}

// FuzzIntersectCount pins the dense kernel's masked intersections to a
// naive set intersection on arbitrary row contents, lengths and bit
// offsets 0–63 — the CI fuzz smoke job runs it.
func FuzzIntersectCount(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{0xff}, []byte{0x0f}, uint8(2))
	f.Add(binary.LittleEndian.AppendUint64(nil, ^uint64(0)), []byte{1, 2, 3, 4, 5, 6, 7, 0x80}, uint8(63))
	seed := make([]byte, 40)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, seed[8:], uint8(17))
	f.Fuzz(func(t *testing.T, araw, braw []byte, off uint8) {
		a, b := wordsOf(araw), wordsOf(braw)
		// The kernels only intersect suffixes aligned to the same word.
		n := min(len(a), len(b))
		checkAbove(t, a[:n], b[:n], uint(off)&63)
	})
}

// fuzzMaxRecords bounds the graph-edge records, and separately the delta
// records, that decodeDeltaCase keeps. It bounds a K_5 count by edges
// rather than vertices: the densest decodable graph is K_23, while sparse
// gadgets of up to 255 vertices still decode.
const fuzzMaxRecords = 256

// decodeDeltaCase reads a graph and a delta against it from fuzz bytes.
// data[0] is n; then each 3-byte record (op, u, v) names the pair
// {u mod n, v mod n}. An even op adds it to the graph; an odd op puts it
// in the delta, as a delete when the graph has the edge and an insert
// when it does not. Records of either kind beyond fuzzMaxRecords, delta
// self-loops and repeats are skipped, so every input decodes to a valid
// delta.
func decodeDeltaCase(data []byte) (*graph.Graph, graph.EdgeDelta) {
	n := 0
	if len(data) > 0 {
		n = int(data[0])
		data = data[1:]
	}
	b := graph.NewBuilder(n)
	var changes [][2]int
	graphRecords := 0
	for ; n > 0 && len(data) >= 3; data = data[3:] {
		e := [2]int{int(data[1]) % n, int(data[2]) % n}
		switch {
		case data[0]&1 == 0 && graphRecords < fuzzMaxRecords:
			graphRecords++
			b.AddEdgeOK(e[0], e[1])
		case data[0]&1 == 1 && len(changes) < fuzzMaxRecords && e[0] != e[1]:
			changes = append(changes, e)
		}
	}
	g := b.Build()
	return g, toggles(g, changes)
}

// toggles is the delta that flips each listed pair of g, skipping
// self-loops and repeats: a delete when g has the edge, an insert when it
// does not.
func toggles(g *graph.Graph, pairs [][2]int) graph.EdgeDelta {
	var d graph.EdgeDelta
	seen := make(map[[2]int]bool)
	for _, e := range pairs {
		key := [2]int{min(e[0], e[1]), max(e[0], e[1])}
		if e[0] == e[1] || seen[key] {
			continue
		}
		seen[key] = true
		if g.HasEdge(e[0], e[1]) {
			d.Delete = append(d.Delete, e)
		} else {
			d.Insert = append(d.Insert, e)
		}
	}
	return d
}

// encodeDeltaCase is decodeDeltaCase's inverse, for seeding the corpus.
func encodeDeltaCase(g *graph.Graph, d graph.EdgeDelta) []byte {
	out := []byte{byte(g.N())}
	for _, e := range g.Edges() {
		out = append(out, 0, byte(e[0]), byte(e[1]))
	}
	for _, e := range append(append([][2]int(nil), d.Delete...), d.Insert...) {
		out = append(out, 1, byte(e[0]), byte(e[1]))
	}
	return out
}

// cliqueOrders are the orders FuzzCountDelta's fresh leg counts K_3..K_5
// in; the last byte of the fuzz input picks one.
var cliqueOrders = [][]int{{3, 4, 5}, {3, 5, 4}, {4, 3, 5}, {4, 5, 3}, {5, 3, 4}, {5, 4, 3}}

// FuzzCountDelta pins the incremental count churn runs to enumeration:
// for a decoded graph and delta, CountDelta from the parent's count must
// equal CountCliques on the child, for K_3..K_6, and so must CountDelta
// from the child into a grandchild, whose delta flips each of the first
// delta's pairs with the second endpoint moved up by one. Both deltas mix
// deletes and inserts, and the second can re-insert what the first
// deleted. CountDelta gets no bitset adjacency. A fresh leg counts
// K_3..K_5 on one new adjacency of each form, in the order the input's
// last byte picks, so that K_4 and K_5 run before or after the K_3 pass
// that records the start edges, and checks each count against
// enumeration. The seeds are the extremal shapes for clique counting: a
// planted K_5, the C4-free projective-plane incidence graph, whose deltas
// create the first triangles, and the paper's gadgets H_2 and G_{2,2},
// each with one delete and one insert; each comes once more with a
// trailing byte, which no record reads, that puts K_5 first.
func FuzzCountDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	planted, k5 := graph.PlantClique(graph.GNP(24, 0.2, rng), 5, rng)
	seeds := [][]byte{encodeDeltaCase(planted, graph.EdgeDelta{
		Delete: [][2]int{{k5[0], k5[1]}},
		Insert: [][2]int{{0, 23}, {5, 17}},
	})}
	plane := graph.ProjectivePlaneIncidence(3) // points 0..12, lines 13..25
	seeds = append(seeds, encodeDeltaCase(plane, graph.EdgeDelta{
		Delete: [][2]int{plane.Edges()[0]},
		Insert: [][2]int{{0, 1}, {1, 2}, {0, 2}, {13, 14}},
	}))
	inst := &comm.DisjointnessInstance{N: 2,
		X: map[[2]int]bool{{0, 1}: true}, Y: map[[2]int]bool{{0, 1}: true, {1, 0}: true}}
	for _, g := range []*graph.Graph{lower.BuildHk(2).G, lower.BuildGkn(2, inst).G} {
		seeds = append(seeds, encodeDeltaCase(g, graph.EdgeDelta{
			Delete: [][2]int{g.Edges()[0]},
			Insert: [][2]int{{0, g.N() - 1}},
		}))
	}
	for _, seed := range seeds {
		f.Add(seed)
		f.Add(append(seed, 4)) // cliqueOrders[4] is K_5, K_3, K_4
	}
	k := New(2)
	defer k.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, d := decodeDeltaCase(data)
		order := cliqueOrders[0]
		if len(data) > 0 {
			order = cliqueOrders[int(data[len(data)-1])%len(cliqueOrders)]
		}
		for _, build := range []func(*graph.Graph) *graph.BitAdjacency{
			graph.NewBitAdjacencyDense, graph.NewBitAdjacencyHybrid,
		} {
			b := build(g)
			for _, s := range order {
				if got, want := k.Count(b, s), g.CountCliques(s); got != want {
					t.Fatalf("%s K_%d on %v counted in the order %v: Count = %d, enumeration = %d",
						b.Mode(), s, g, order, got, want)
				}
			}
		}

		res, err := graph.ApplyDelta(g, d)
		if err != nil {
			t.Fatalf("decoded delta rejected: %v", err)
		}
		var shifted [][2]int
		for _, e := range append(append([][2]int(nil), d.Delete...), d.Insert...) {
			shifted = append(shifted, [2]int{e[0], (e[1] + 1) % g.N()})
		}
		d2 := toggles(res.Graph, shifted)
		res2, err := graph.ApplyDelta(res.Graph, d2)
		if err != nil {
			t.Fatalf("second delta rejected: %v", err)
		}
		for s := 3; s <= 6; s++ {
			pc, want, want2 := g.CountCliques(s), res.Graph.CountCliques(s), res2.Graph.CountCliques(s)
			if got := k.CountDelta(g, nil, res.Graph, nil, s, res.Touched, pc); got != want {
				t.Fatalf("K_%d on %v with delta %+v: CountDelta = %d, enumeration = %d",
					s, g, d, got, want)
			}
			if got := k.CountDelta(res.Graph, nil, res2.Graph, nil, s, res2.Touched, want); got != want2 {
				t.Fatalf("K_%d on %v with deltas %+v then %+v: CountDelta into the grandchild = %d, enumeration = %d",
					s, g, d, d2, got, want2)
			}
		}
	})
}
