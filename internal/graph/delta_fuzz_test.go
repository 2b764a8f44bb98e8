package graph_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"subgraph/internal/comm"
	"subgraph/internal/graph"
	"subgraph/internal/lower"
)

// decodeRawDelta reads a base graph and two raw deltas from fuzz bytes:
// the first against the base, the second against the first's child.
// data[0] is n, so the base has at most 255 vertices. Each 3-byte record
// (op, a, b) is then, by op mod 5, a base edge {a mod n, b mod n}
// (self-loops and repeats skipped), a delete or an insert entry of the
// first delta, or a delete or an insert entry of the second. Delta
// entries are (a-1, b-1) as they stand, so a delta may be invalid: a
// self-loop, an endpoint out of range (-1, or n and up), a repeat within
// a half, a delete of a missing edge or an insert of a present one.
func decodeRawDelta(data []byte) (*graph.Graph, [2]graph.EdgeDelta) {
	n := 0
	if len(data) > 0 {
		n, data = int(data[0]), data[1:]
	}
	b := graph.NewBuilder(n)
	var ds [2]graph.EdgeDelta
	for ; len(data) >= 3; data = data[3:] {
		e := [2]int{int(data[1]) - 1, int(data[2]) - 1}
		switch op := data[0] % 5; op {
		case 0:
			if n > 0 {
				b.AddEdgeOK(int(data[1])%n, int(data[2])%n)
			}
		case 1, 3:
			ds[op/3].Delete = append(ds[op/3].Delete, e)
		default:
			ds[op/3].Insert = append(ds[op/3].Insert, e)
		}
	}
	return b.Build(), ds
}

// encodeRawDelta is decodeRawDelta's inverse, for seeding the corpus: ds
// holds the first delta and, optionally, the second.
func encodeRawDelta(g *graph.Graph, ds ...graph.EdgeDelta) []byte {
	out := []byte{byte(g.N())}
	for _, e := range g.Edges() {
		out = append(out, 0, byte(e[0]), byte(e[1]))
	}
	for i, d := range ds {
		for _, e := range d.Delete {
			out = append(out, byte(1+2*i), byte(e[0]+1), byte(e[1]+1))
		}
		for _, e := range d.Insert {
			out = append(out, byte(2+2*i), byte(e[0]+1), byte(e[1]+1))
		}
	}
	return out
}

// referenceDelta applies d to a plain edge set of g by the documented
// semantics: every delete against the base first, then every insert
// against the result. It returns the child's edge set, or the
// DeltaError.Reason the first bad entry must be rejected with.
func referenceDelta(g *graph.Graph, d graph.EdgeDelta) (map[[2]int]bool, string) {
	edges := make(map[[2]int]bool, g.M())
	for _, e := range g.Edges() {
		edges[e] = true
	}
	apply := func(entries [][2]int, insert bool) string {
		seen := make(map[[2]int]bool, len(entries))
		for _, e := range entries {
			key := [2]int{min(e[0], e[1]), max(e[0], e[1])}
			switch {
			case key[0] == key[1]:
				return graph.DeltaSelfLoop
			case key[0] < 0 || key[1] >= g.N():
				return graph.DeltaEdgeOutOfRange
			case seen[key]:
				return graph.DeltaDuplicateEntry
			case !insert && !edges[key]:
				return graph.DeltaDeleteMissing
			case insert && edges[key]:
				return graph.DeltaInsertExisting
			}
			seen[key] = true
			if insert {
				edges[key] = true
			} else {
				delete(edges, key)
			}
		}
		return ""
	}
	if reason := apply(d.Delete, false); reason != "" {
		return nil, reason
	}
	if reason := apply(d.Insert, true); reason != "" {
		return nil, reason
	}
	return edges, ""
}

// firstRowDiff walks two graphs' CSR rows, offsets and columns, and
// names the first row in which they differ ("" when none does).
func firstRowDiff(got, want *graph.Graph) string {
	if got.N() != want.N() {
		return fmt.Sprintf("n = %d, want %d", got.N(), want.N())
	}
	gotPtrs, gotCols := got.CSR()
	wantPtrs, wantCols := want.CSR()
	for v := 0; v < got.N(); v++ {
		row, wantRow := gotCols[gotPtrs[v]:gotPtrs[v+1]], wantCols[wantPtrs[v]:wantPtrs[v+1]]
		if !slices.Equal(row, wantRow) {
			return fmt.Sprintf("row %d = %v, want %v", v, row, wantRow)
		}
	}
	if len(gotCols) != len(wantCols) {
		return fmt.Sprintf("%d CSR columns, want %d", len(gotCols), len(wantCols))
	}
	return ""
}

// FuzzApplyDelta checks ApplyDelta against a plain edge-set reference on
// raw, possibly invalid deltas. It must reject exactly when the reference
// does, with the same reason. An accepted child must equal a scratch
// Builder rebuild, by digest and then CSR row by row; Touched must be the
// sorted endpoints of the changes; and the base graph must not move.
//
// Each input runs the first delta twice: on a base that was never
// digested, whose child hashes its digest from scratch, and on a digested
// base, whose child patches the base's block sums. The second delta then
// runs on that patched child, so a child of a patched child is covered
// too. The seeds are the extremal shapes: a planted K_5, the C4-free
// projective-plane incidence graph, the paper's gadgets H_2 and G_{2,2},
// and a 60-vertex host of four digest blocks, two of which a chain of
// two deltas leaves untouched.
func FuzzApplyDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	planted, k5 := graph.PlantClique(graph.GNP(24, 0.2, rng), 5, rng)
	f.Add(encodeRawDelta(planted, graph.EdgeDelta{
		Delete: [][2]int{{k5[0], k5[1]}},
		Insert: [][2]int{{k5[1], k5[0]}, {0, 23}}, // delete and re-insert
	}))
	f.Add(encodeRawDelta(planted, graph.EdgeDelta{Insert: [][2]int{{k5[2], k5[3]}}}))
	plane := graph.ProjectivePlaneIncidence(3) // points 0..12, lines 13..25
	f.Add(encodeRawDelta(plane, graph.EdgeDelta{
		Delete: [][2]int{plane.Edges()[0]},
		Insert: [][2]int{{0, 1}, {1, 2}, {0, 2}, {13, 14}},
	}))
	f.Add(encodeRawDelta(plane, graph.EdgeDelta{Insert: [][2]int{{0, 1}, {5, 5}}}))
	hk := lower.BuildHk(2).G
	f.Add(encodeRawDelta(hk, graph.EdgeDelta{
		Delete: hk.Edges()[:3],
		Insert: [][2]int{{0, hk.N() - 1}},
	}))
	f.Add(encodeRawDelta(hk, graph.EdgeDelta{Insert: [][2]int{{hk.N(), 0}}}))
	inst := &comm.DisjointnessInstance{N: 2,
		X: map[[2]int]bool{{0, 1}: true}, Y: map[[2]int]bool{{0, 1}: true, {1, 0}: true}}
	gkn := lower.BuildGkn(2, inst).G
	e := gkn.Edges()[7]
	f.Add(encodeRawDelta(gkn, graph.EdgeDelta{Delete: gkn.Edges()[:5], Insert: [][2]int{{1, gkn.N() - 2}}}))
	f.Add(encodeRawDelta(gkn, graph.EdgeDelta{Delete: [][2]int{e, {e[1], e[0]}}}))
	f.Add(encodeRawDelta(gkn, graph.EdgeDelta{Delete: [][2]int{{0, gkn.N() - 1}}}))
	host := graph.GNP(60, 0.1, rng) // blocks 0-15, 16-31, 32-47, 48-59
	hostEdge := host.Edges()[0]
	f.Add(encodeRawDelta(host,
		graph.EdgeDelta{Insert: [][2]int{{1, 2}, {2, 50}}},
		graph.EdgeDelta{Delete: [][2]int{{1, 2}}, Insert: [][2]int{{3, 55}}}))
	f.Add(encodeRawDelta(host,
		graph.EdgeDelta{Delete: [][2]int{hostEdge}},
		graph.EdgeDelta{Insert: [][2]int{hostEdge, {59, 59}}})) // the second is rejected
	f.Fuzz(func(t *testing.T, data []byte) {
		cold, ds := decodeRawDelta(data)
		applyChecked(t, cold, ds[0])
		g, _ := decodeRawDelta(data)
		g.Digest()
		if child := applyChecked(t, g, ds[0]); child != nil {
			applyChecked(t, child, ds[1])
		}
	})
}

// applyChecked applies d to g and checks the outcome as FuzzApplyDelta
// describes, digesting the child. It returns the child, or nil when d is
// rightly rejected.
func applyChecked(t *testing.T, g *graph.Graph, d graph.EdgeDelta) *graph.Graph {
	t.Helper()
	baseEdges := g.Edges()
	want, reason := referenceDelta(g, d)
	res, err := graph.ApplyDelta(g, d)
	if !slices.Equal(g.Edges(), baseEdges) {
		t.Fatalf("ApplyDelta(%v, %+v) moved the base graph", g, d)
	}
	if reason != "" {
		var de *graph.DeltaError
		if !errors.As(err, &de) || de.Reason != reason || res != nil {
			t.Fatalf("ApplyDelta(%v, %+v) = %v, want a %s rejection", g, d, err, reason)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("ApplyDelta(%v, %+v) rejected a valid delta: %v", g, d, err)
	}
	b := graph.NewBuilder(g.N())
	for e := range want {
		b.AddEdge(e[0], e[1])
	}
	scratch := b.Build()
	if res.Graph.Digest() != scratch.Digest() {
		t.Fatalf("ApplyDelta(%v, %+v): child digest differs from a scratch rebuild's: %s",
			g, d, firstRowDiff(res.Graph, scratch))
	}
	if diff := firstRowDiff(res.Graph, scratch); diff != "" {
		t.Fatalf("ApplyDelta(%v, %+v): child matches a scratch rebuild's digest but not its rows: %s", g, d, diff)
	}
	var touched []int32
	for _, e := range slices.Concat(d.Delete, d.Insert) {
		touched = append(touched, int32(e[0]), int32(e[1]))
	}
	slices.Sort(touched)
	if touched = slices.Compact(touched); !slices.Equal(res.Touched, touched) {
		t.Fatalf("ApplyDelta(%v, %+v): Touched = %v, want %v", g, d, res.Touched, touched)
	}
	if res.Deleted != len(d.Delete) || res.Inserted != len(d.Insert) {
		t.Fatalf("ApplyDelta(%v, %+v): %d deleted, %d inserted", g, d, res.Deleted, res.Inserted)
	}
	return res.Graph
}
