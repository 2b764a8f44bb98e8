package graph

// Degeneracy ordering, shared by the Chiba–Nishizeki clique enumeration
// (cliques.go) and the word-parallel detection kernels (internal/kernel
// via the BitAdjacency layout in bitset.go).
//
// The ordering is produced by standard bucket peeling in O(n+m):
// repeatedly remove a minimum-degree vertex. Each vertex then has at
// most `degeneracy` neighbors later in the order, which is the bound
// every forward-neighborhood algorithm in this repository leans on.

// DegeneracyRank computes a degeneracy ordering in the flat int32 form
// the kernels consume: order[r] is the vertex at rank r, rank[v] is the
// position of v in the order, and degeneracy is the largest forward
// degree any vertex has under the ordering (the graph's degeneracy).
//
// Ties are broken LIFO: among the vertices of minimum current degree,
// the one that reached that degree last is removed first, and initially
// the highest-numbered one. ForEachClique's visit order and every rank
// the kernels see follow from this rule, so TestDegeneracyRankGolden
// pins the exact order, not just its properties.
//
// DegeneracyOrder (cliques.go) is the []int convenience wrapper around
// this helper; both produce the same ordering.
func (g *Graph) DegeneracyRank() (order, rank []int32, degeneracy int) {
	order, rank, degeneracy, _, _ = g.peel(false)
	return order, rank, degeneracy
}

// peel runs the bucket peel behind DegeneracyRank. With forward set it
// also fills the forward CSR by rank that BitAdjacency keeps: list r
// holds, ascending, the ranks of the rank-r vertex's higher-rank
// neighbors, at fwd[fwdOff[r]:fwdOff[r+1]].
//
// The peel produces those lists as it goes. A vertex's live neighbors
// when it is peeled are exactly its forward neighbors, so list r's
// length is known the moment rank r is given out; and each later rank
// reaches the lists of its already-peeled neighbors while it scans its
// adjacency, in increasing rank order, so every list comes out sorted.
func (g *Graph) peel(forward bool) (order, rank []int32, degeneracy int, fwdOff, fwd []int32) {
	n := g.n
	order = make([]int32, n)
	rank = make([]int32, n)
	if forward {
		fwdOff = make([]int32, n+1)
		fwd = make([]int32, g.m)
	}
	off, csr := g.off, g.csr // in locals, the loop's stores do not reload them
	deg := make([]int32, n)  // current degree; -1 once peeled
	maxDeg := int32(0)
	for v := range deg {
		deg[v] = off[v+1] - off[v]
		maxDeg = max(maxDeg, deg[v])
	}
	// Bucket d is a stack of the live vertices of current degree d,
	// threaded through next/prev (-1 ends a list) with head[d] on top.
	// Unlinking in place keeps each vertex in exactly one bucket, so the
	// peel allocates nothing per vertex or per degree change. Once a
	// vertex is peeled its next slot is free, and holds the write cursor
	// of its forward list.
	head := make([]int32, maxDeg+1)
	for d := range head {
		head[d] = -1
	}
	next := make([]int32, n)
	prev := make([]int32, n)
	push := func(v, d int32) {
		h := head[d]
		next[v], prev[v] = h, -1
		if h >= 0 {
			prev[h] = v
		}
		head[d] = v
	}
	for v := int32(0); v < int32(n); v++ {
		push(v, deg[v])
	}
	cur := int32(0)
	for r := int32(0); r < int32(n); r++ {
		for head[cur] < 0 {
			cur++
		}
		v := head[cur]
		head[cur] = next[v]
		if next[v] >= 0 {
			prev[next[v]] = -1
		}
		deg[v] = -1
		rank[v] = r
		order[r] = v
		degeneracy = max(degeneracy, int(cur))
		if forward {
			fwdOff[r+1] = fwdOff[r] + cur
			next[v] = fwdOff[r]
		}
		for _, w := range csr[off[v]:off[v+1]] {
			d := deg[w]
			if d < 0 {
				if forward {
					fwd[next[w]] = r
					next[w]++
				}
				continue
			}
			p, nx := prev[w], next[w]
			if p >= 0 {
				next[p] = nx
			} else {
				head[d] = nx
			}
			if nx >= 0 {
				prev[nx] = p
			}
			d--
			deg[w] = d
			push(w, d)
			cur = min(cur, d)
		}
	}
	return order, rank, degeneracy, fwdOff, fwd
}
