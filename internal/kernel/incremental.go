package kernel

import (
	"fmt"
	"slices"
	"sync"

	"subgraph/internal/graph"
)

// Incremental clique counting over evolving graphs.
//
// A K_s of the parent that the delta leaves standing contains no deleted
// edge, and a K_s of the child that the parent lacks contains an inserted
// edge, so
//
//	count(child) = count(parent) - lost + gained
//
// where lost counts the parent's K_s through at least one deleted edge and
// gained the child's K_s through at least one inserted edge. A K_s through
// the edge {u, v} is {u, v} plus an (s-2)-clique of N(u) ∩ N(v), the
// edge-local view behind Dolev–Lenzen–Peled's triangle finding, so both
// terms are counted on the graphs' CSR rows around the changed edges
// alone: the work follows the delta and the degrees at it, not n, and no
// bitset adjacency is read or built.
//
// Each clique is charged once, to its first changed edge in ascending
// (lower, higher) endpoint order. The i-th edge's count skips a common
// neighbour that an earlier changed edge joins to u or v, and treats an
// earlier changed edge between two candidates as absent. An earlier-edge
// probe is a binary search of the sorted edge keys, O(log changes), so a
// delta at the churn threshold stays near linear in its size.

// CountDelta returns the K_s count of child, the graph an edge delta
// derived from parent, given parent's K_s count parentCount. touched must
// hold both endpoints of every changed edge, as DeltaResult.Touched does;
// each touched vertex's rows in the two graphs are compared to find the
// changed edges, so an edge deleted and re-inserted is no change, and a
// duplicate or out-of-range entry costs nothing. s must be in
// [1, MaxCliqueSize].
//
// pb and cb, the graphs' bitset adjacencies, are not read: callers may
// pass nil. They stay in the signature for the callers that still hold
// them. CountDelta allocates nothing in steady state and is safe for
// concurrent use: its scratch comes from a pool, not the worker pool.
func (k *Kernel) CountDelta(parent *graph.Graph, pb *graph.BitAdjacency,
	child *graph.Graph, cb *graph.BitAdjacency, s int, touched []int32, parentCount int64) int64 {
	switch {
	case s < 1 || s > MaxCliqueSize:
		panic(fmt.Sprintf("kernel: clique size %d outside [1, %d]", s, MaxCliqueSize))
	case s == 1:
		return int64(child.N())
	case s == 2:
		return int64(child.M())
	case parent.N() != child.N():
		panic(fmt.Sprintf("kernel: delta from n=%d to n=%d", parent.N(), child.N()))
	}
	sc := deltaPool.Get().(*deltaScratch)
	sc.diff(parent, child, touched)
	sc.mark = fitRow(sc.mark, (child.N()+63)/64)
	for len(sc.lists) < s-2 { // a list per level: N(u) ∩ N(v), then each narrowing
		sc.lists = append(sc.lists, nil)
	}
	cnt := parentCount - sc.through(parent, sc.del, s) + sc.through(child, sc.ins, s)
	deltaPool.Put(sc)
	return cnt
}

// deltaScratch is one CountDelta call's scratch, reused through deltaPool.
type deltaScratch struct {
	// del and ins hold the deleted and inserted edges as edgeKeys,
	// ascending and distinct.
	del, ins []uint64
	// lists holds a candidate list per recursion level.
	lists [][]int32
	// mark is an n-bit row, all zero between uses.
	mark []uint64
}

var deltaPool = sync.Pool{New: func() any { return new(deltaScratch) }}

// edgeKey packs the edge {u, v}, u < v, so that keys sort by (u, v).
func edgeKey(u, v int32) uint64 { return uint64(u)<<32 | uint64(v) }

// diff fills del and ins with the changed edges at the touched vertices.
// A touched vertex's rows in parent and child, both ascending, are merged
// above it: an entry in one row only is an edge that the delta deleted or
// inserted, taken from its lower endpoint.
func (sc *deltaScratch) diff(parent, child *graph.Graph, touched []int32) {
	sc.del, sc.ins = sc.del[:0], sc.ins[:0]
	n := int32(parent.N())
	for _, t := range touched {
		if t < 0 || t >= n {
			continue
		}
		p, c := above(parent.Neighbors(int(t)), t), above(child.Neighbors(int(t)), t)
		i, j := 0, 0
		for i < len(p) && j < len(c) {
			switch {
			case p[i] == c[j]:
				i++
				j++
			case p[i] < c[j]:
				sc.del = append(sc.del, edgeKey(t, p[i]))
				i++
			default:
				sc.ins = append(sc.ins, edgeKey(t, c[j]))
				j++
			}
		}
		for ; i < len(p); i++ {
			sc.del = append(sc.del, edgeKey(t, p[i]))
		}
		for ; j < len(c); j++ {
			sc.ins = append(sc.ins, edgeKey(t, c[j]))
		}
	}
	sc.del, sc.ins = sortedSet(sc.del), sortedSet(sc.ins)
}

// above returns the part of the ascending row above t.
func above(row []int32, t int32) []int32 {
	i, _ := slices.BinarySearch(row, t)
	return row[i:]
}

// sortedSet sorts keys, unless an ascending touched set left them sorted
// already, and drops repeats.
func sortedSet(keys []uint64) []uint64 {
	if !slices.IsSorted(keys) {
		slices.Sort(keys)
	}
	return slices.Compact(keys)
}

// through counts the K_s of g that contain an edge of keys (edges of g,
// ascending), each charged to the first it contains.
func (sc *deltaScratch) through(g *graph.Graph, keys []uint64, s int) int64 {
	var cnt int64
	for i, key := range keys {
		u, v := int32(key>>32), int32(key)
		earlier := keys[:i]
		// N(u) ∩ N(v) through a mark row rather than a merge of the two
		// rows, whose every step takes a data-dependent branch.
		nu := g.Neighbors(int(u))
		for _, w := range nu {
			sc.mark[w>>6] |= 1 << (uint(w) & 63)
		}
		cands := sc.lists[0][:0]
		for _, w := range g.Neighbors(int(v)) {
			if sc.mark[w>>6]>>(uint(w)&63)&1 == 1 {
				cands = append(cands, w)
			}
		}
		for _, w := range nu {
			sc.mark[w>>6] = 0 // every set bit is a neighbour of u
		}
		cands = dropEarlier(cands, u, earlier)
		cands = dropEarlier(cands, v, earlier)
		sc.lists[0] = cands
		cnt += sc.cliques(g, earlier, cands, s-2, 1)
	}
	return cnt
}

// cliques counts the need-cliques of g inside cands (ascending) that use
// no edge of earlier, each from its lowest member. level indexes the
// scratch list the next narrowing writes.
func (sc *deltaScratch) cliques(g *graph.Graph, earlier []uint64, cands []int32, need, level int) int64 {
	if need == 1 {
		return int64(len(cands))
	}
	var cnt int64
	for i, c := range cands {
		rest := cands[i+1:]
		if len(rest) < need-1 {
			break
		}
		// The candidates are few, so each is looked up in c's row.
		next, nc := sc.lists[level][:0], g.Neighbors(int(c))
		for _, w := range rest {
			if _, ok := slices.BinarySearch(nc, w); ok {
				next = append(next, w)
			}
		}
		next = dropEarlier(next, c, earlier)
		sc.lists[level] = next
		if need == 2 {
			cnt += int64(len(next))
		} else if len(next) >= need-1 {
			cnt += sc.cliques(g, earlier, next, need-1, level+1)
		}
	}
	return cnt
}

// dropEarlier removes, in place, each w of ws such that {c, w} is in
// earlier.
func dropEarlier(ws []int32, c int32, earlier []uint64) []int32 {
	if len(earlier) == 0 {
		return ws
	}
	return slices.DeleteFunc(ws, func(w int32) bool {
		_, found := slices.BinarySearch(earlier, edgeKey(min(c, w), max(c, w)))
		return found
	})
}
