package graph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// orderHash is FNV-1a over the order's ranks as little-endian uint32s.
func orderHash(order []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range order {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestDegeneracyRankGolden pins the exact order, not just its
// properties: ForEachClique's visit order and every rank the kernels see
// depend on how the peel breaks ties. One entry per bitsetCorpus graph,
// in corpus order; a rewrite of the peel must reproduce every hash.
func TestDegeneracyRankGolden(t *testing.T) {
	golden := []struct {
		n, degeneracy int
		hash          uint64
	}{
		{0, 0, 0xcbf29ce484222325},
		{1, 0, 0x4d25767f9dce13f5},
		{9, 1, 0x82e1846d303ec47d},
		{12, 2, 0xd153fd43b7fa7e65},
		{18, 1, 0x3f6bc999ccd93834},
		{13, 12, 0x227a832092eae779},
		{13, 5, 0x51942f0b6dc387c9},
		{12, 6, 0xc743c8b32abaace5},
		{40, 1, 0x31203d5b9ba96c15},
		{10, 2, 0x8020fc7ea60a72f4},
		{10, 3, 0x3f2fda61cc5ef5a4},
		{33, 3, 0xf0c1465a4f5e31b5},
		{33, 13, 0xefccef651d807bb5},
		{64, 6, 0x814797735f31e245},
		{64, 24, 0x89794120c96e74e5},
		{65, 7, 0xc437bc2dfcc12645},
		{65, 26, 0x07ccadc406c04b45},
		{100, 11, 0xb2dbb53e05310e15},
		{100, 40, 0x239c98920f60cfd5},
		{130, 13, 0x9968950a9a440854},
		{130, 51, 0xe5a65c520cec1174},
		{50, 4, 0xffe9a1dbe7c41014},
	}
	corpus := bitsetCorpus(t)
	if len(corpus) != len(golden) {
		t.Fatalf("corpus has %d graphs, golden table %d", len(corpus), len(golden))
	}
	for gi, g := range corpus {
		order, _, d := g.DegeneracyRank()
		want := golden[gi]
		if got := orderHash(order); g.N() != want.n || d != want.degeneracy || got != want.hash {
			t.Errorf("graph %d (%v): (n %d, degeneracy %d, order hash %#016x), want (%d, %d, %#016x)",
				gi, g, g.N(), d, got, want.n, want.degeneracy, want.hash)
		}
	}
}

// TestDegeneracyRankProperties pins the shared ordering helper to its
// definition: every vertex has at most `degeneracy` neighbors later in
// the order, and the bound is tight (some vertex meets it on non-empty
// graphs).
func TestDegeneracyRankProperties(t *testing.T) {
	for gi, g := range bitsetCorpus(t) {
		order, rank, d := g.DegeneracyRank()
		if len(order) != g.N() || len(rank) != g.N() {
			t.Fatalf("graph %d (%v): order/rank lengths %d/%d, want %d", gi, g, len(order), len(rank), g.N())
		}
		seen := make([]bool, g.N())
		for r, v := range order {
			if rank[v] != int32(r) {
				t.Fatalf("graph %d (%v): rank[order[%d]] = %d", gi, g, r, rank[v])
			}
			if seen[v] {
				t.Fatalf("graph %d (%v): vertex %d appears twice in the order", gi, g, v)
			}
			seen[v] = true
		}
		maxFwd := 0
		for v := 0; v < g.N(); v++ {
			fwd := 0
			for _, w := range g.Neighbors(v) {
				if rank[w] > rank[v] {
					fwd++
				}
			}
			if fwd > d {
				t.Fatalf("graph %d (%v): vertex %d has %d forward neighbors, degeneracy claimed %d", gi, g, v, fwd, d)
			}
			if fwd > maxFwd {
				maxFwd = fwd
			}
		}
		if g.M() > 0 && maxFwd != d {
			t.Fatalf("graph %d (%v): max forward degree %d ≠ claimed degeneracy %d", gi, g, maxFwd, d)
		}
	}
}

// TestDegeneracyRankAgainstLayerDecomposition pins the helper against
// the Barenboim–Elkin peeling in decompose.go: with threshold d (the
// claimed degeneracy) and enough rounds the decomposition must succeed,
// and with threshold d-1 it must fail — together these say the claimed
// value IS the degeneracy, as decompose.go computes it.
func TestDegeneracyRankAgainstLayerDecomposition(t *testing.T) {
	for gi, g := range bitsetCorpus(t) {
		_, _, d := g.DegeneracyRank()
		if g.N() == 0 {
			continue
		}
		if _, ok := LayerDecomposition(g, d, g.N()+1); !ok {
			t.Fatalf("graph %d (%v): peeling at threshold %d (the degeneracy) failed", gi, g, d)
		}
		if d > 0 {
			if _, ok := LayerDecomposition(g, d-1, g.N()+1); ok {
				t.Fatalf("graph %d (%v): peeling at threshold %d succeeded — degeneracy %d is not tight", gi, g, d-1, d)
			}
		}
	}
}

// TestDegeneracyOrderWrapperAgrees pins the []int convenience wrapper to
// the int32 helper.
func TestDegeneracyOrderWrapperAgrees(t *testing.T) {
	for gi, g := range bitsetCorpus(t) {
		o32, _, d32 := g.DegeneracyRank()
		o, d := g.DegeneracyOrder()
		if d != d32 || len(o) != len(o32) {
			t.Fatalf("graph %d (%v): wrapper (len %d, d %d) vs helper (len %d, d %d)", gi, g, len(o), d, len(o32), d32)
		}
		for i := range o {
			if o[i] != int(o32[i]) {
				t.Fatalf("graph %d (%v): order differs at %d: %d vs %d", gi, g, i, o[i], o32[i])
			}
		}
	}
}
