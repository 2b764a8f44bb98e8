package kernel

import (
	"fmt"
	"slices"
	"sync"

	"subgraph/internal/graph"
)

// Incremental clique counting over evolving graphs.
//
// A batch edge delta only perturbs cliques through its touched vertices:
// the induced subgraph on the untouched vertices is identical in parent
// and child, so
//
//	count(child) = count(parent) - incident(parent, T) + incident(child, T)
//
// where incident(g, T) counts the K_s copies of g containing at least
// one vertex of T. CountIncident computes that restriction directly —
// each clique is charged to its first T-member under a fixed order, and
// only the touched vertices' neighborhoods are examined — so the work
// scales with the delta's footprint, not the graph.
//
// The implementation filters forward (degeneracy-ordered) adjacency
// lists through per-level mark rows — the Chiba–Nishizeki shape the
// hybrid kernel uses — which works unchanged on both BitAdjacency
// forms. Its rank-indexed rows come from a sync.Pool and go back
// all-zero, each call clearing only the bits it set, so a call does no
// O(n) work, and concurrent delta requests never share scratch or touch
// the worker pool's serialization.

// CountIncident returns the number of K_s copies of g that contain at
// least one vertex of touched (original vertex ids; duplicates and
// out-of-range entries are ignored). b must be the BitAdjacency of g.
func (k *Kernel) CountIncident(g *graph.Graph, b *graph.BitAdjacency, s int, touched []int32) int64 {
	if s < 1 || s > MaxCliqueSize {
		panic(fmt.Sprintf("kernel: clique size %d outside [1, %d]", s, MaxCliqueSize))
	}
	n := g.N()
	if n != b.N() {
		panic(fmt.Sprintf("kernel: graph (n=%d) and adjacency (n=%d) disagree", n, b.N()))
	}
	// Dedupe and bound the touched set.
	ts := make([]int32, 0, len(touched))
	for _, t := range touched {
		if t >= 0 && int(t) < n {
			ts = append(ts, t)
		}
	}
	slices.Sort(ts)
	ts = slices.Compact(ts)
	if len(ts) == 0 {
		return 0
	}
	if s == 1 {
		return int64(len(ts))
	}

	rank := b.Rank()
	deg := 0
	for _, t := range ts {
		deg = max(deg, g.Degree(int(t)))
	}
	sc := incPool.Get().(*incScratch)
	sc.grow(b.Words(), s)
	sc.earlier = fitRow(sc.earlier, b.Words())
	if cap(sc.cands) < deg {
		sc.cands = make([]int32, 0, deg)
	}
	// earlier marks the ranks of already-processed touched vertices:
	// each clique is counted exactly once, by its first touched member
	// in ts order.
	var cnt int64
	for _, t := range ts {
		cands := sc.cands[:0]
		for _, w := range g.Neighbors(int(t)) {
			r := rank[w]
			if sc.earlier[r>>6]>>(uint(r)&63)&1 == 0 {
				cands = append(cands, r)
			}
		}
		if len(cands) >= s-1 {
			cnt += sc.cliquesWithin(b, cands, s-1, 0)
		}
		tr := rank[t]
		sc.earlier[tr>>6] |= 1 << (uint(tr) & 63)
	}
	for _, t := range ts {
		sc.earlier[rank[t]>>6] = 0 // every set bit is a touched rank
	}
	incPool.Put(sc)
	return cnt
}

// CountDelta returns the K_s count of the child graph given the
// parent's count and the delta's touched vertices, recounting only
// cliques through the touched set on each side.
func (k *Kernel) CountDelta(parent *graph.Graph, pb *graph.BitAdjacency,
	child *graph.Graph, cb *graph.BitAdjacency, s int, touched []int32, parentCount int64) int64 {
	switch s {
	case 1:
		return int64(child.N())
	case 2:
		return int64(child.M())
	}
	return parentCount -
		k.CountIncident(parent, pb, s, touched) +
		k.CountIncident(child, cb, s, touched)
}

// incScratch is an incident count's pooled scratch: the earlier row, all
// zero in incPool like the marks, and the touched vertex's candidates.
type incScratch struct {
	cliqueScratch
	earlier []uint64
	cands   []int32
}

var incPool = sync.Pool{New: func() any { return new(incScratch) }}
