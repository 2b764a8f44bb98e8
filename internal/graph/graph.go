// Package graph provides the undirected simple graphs, generators,
// decompositions and ground-truth subgraph searches that the CONGEST
// algorithms and lower-bound constructions are built on.
//
// Vertices are dense integers 0..N-1. Graphs are immutable after
// construction via Builder, which makes them safe to share across the
// concurrent simulator engines without locking; the one thing a graph
// computes later, its digest, it computes once under its own lock.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable undirected simple graph on vertices 0..N-1.
//
// Neighbor lists are stored in compressed-sparse-row (CSR) form alone: one
// flat array of neighbor entries plus per-vertex offsets, which
// Neighbors(v) slices. Iterating consecutive vertices walks contiguous
// memory, so the simulator's per-round scans and the traversal/clique
// kernels are cache-line friendly, and the two arrays hold no pointers
// for the garbage collector to scan, whatever the graph's size.
type Graph struct {
	n   int
	m   int
	off []int32 // off[v]..off[v+1] bounds v's segment of csr
	csr []int32 // all neighbor lists, concatenated, each sorted
	dig digestMemo
}

// Builder accumulates edges for a Graph. Duplicate edges and self-loops are
// rejected with a panic: every construction in this repository is explicit
// about its edge set, so a duplicate indicates a bug in the construction.
type Builder struct {
	n     int
	edges map[[2]int32]struct{}
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{n: n, edges: make(map[[2]int32]struct{})}
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge inserts the undirected edge {u,v}. It panics on self-loops,
// out-of-range endpoints, or duplicate edges.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	key := normEdge(u, v)
	if _, dup := b.edges[key]; dup {
		panic(fmt.Sprintf("graph: duplicate edge (%d,%d)", u, v))
	}
	b.edges[key] = struct{}{}
}

// AddEdgeOK is like AddEdge but ignores duplicates and self-loops, returning
// whether the edge was newly inserted. Random generators use it.
func (b *Builder) AddEdgeOK(u, v int) bool {
	if u == v || u < 0 || u >= b.n || v < 0 || v >= b.n {
		return false
	}
	key := normEdge(u, v)
	if _, dup := b.edges[key]; dup {
		return false
	}
	b.edges[key] = struct{}{}
	return true
}

// HasEdge reports whether {u,v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	_, ok := b.edges[normEdge(u, v)]
	return ok
}

func normEdge(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}

// Build produces the immutable graph in CSR form. The builder may keep
// being used.
func (b *Builder) Build() *Graph {
	ends := make([]int32, 0, 2*len(b.edges))
	for e := range b.edges {
		ends = append(ends, e[0], e[1])
	}
	g, _ := fromEdges(b.n, ends)
	return g
}

// fromEdges is the package's one CSR constructor. ends lists the edges
// flat — ends[2i], ends[2i+1] is edge i — with endpoints in [0,n) and no
// self-loops. After a degree count it fills the rows without a sort: a
// scatter in input order, which leaves every row ascending for input in
// WriteEdgeList's order, else a transpose of the scattered rows taken in
// ascending order. dup reports whether some edge is listed twice: its row
// then holds two equal adjacent entries (the graph is not simple).
func fromEdges(n int, ends []int32) (g *Graph, dup bool) {
	g = &Graph{
		n:   n,
		m:   len(ends) / 2,
		off: make([]int32, n+1),
		csr: make([]int32, len(ends)),
	}
	for _, v := range ends {
		g.off[v+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	next := make([]int32, n)
	copy(next, g.off[:n])
	for i := 0; i < len(ends); i += 2 {
		u, w := ends[i], ends[i+1]
		g.csr[next[u]] = w
		g.csr[next[w]] = u
		next[u]++
		next[w]++
	}
	if ascendingRows(g) {
		return g, false
	}
	rows := g.csr
	g.csr = make([]int32, len(ends))
	copy(next, g.off[:n])
	for w := int32(0); int(w) < n; w++ {
		for _, u := range rows[g.off[w]:g.off[w+1]] {
			g.csr[next[u]] = w
			next[u]++
		}
	}
	return g, !ascendingRows(g)
}

// ascendingRows reports whether every row of g is strictly ascending.
func ascendingRows(g *Graph) bool {
	for v := 0; v < g.n; v++ {
		row := g.Neighbors(v)
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				return false
			}
		}
	}
	return true
}

// CSR exposes the compressed-sparse-row neighbor storage: off has n+1
// entries and nbrs[off[v]:off[v+1]] is v's sorted neighbor list. Callers
// must not modify either slice. The congest simulator builds its flat
// directed-edge indexes directly on this layout.
func (g *Graph) CSR() (off, nbrs []int32) { return g.off, g.csr }

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the maximum degree, or 0 on the empty graph.
func (g *Graph) MaxDegree() int {
	d := int32(0)
	for v := 0; v < g.n; v++ {
		d = max(d, g.off[v+1]-g.off[v])
	}
	return int(d)
}

// Neighbors returns v's sorted neighbor list. The caller must not modify it.
func (g *Graph) Neighbors(v int) []int32 {
	lo, hi := g.off[v], g.off[v+1]
	return g.csr[lo:hi:hi]
}

// HasEdge reports whether {u,v} is an edge, in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	if u == v || u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	a := g.Neighbors(u)
	t := int32(v)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= t })
	return i < len(a) && a[i] == t
}

// Edges returns all edges as (u,v) pairs with u < v, in sorted order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				out = append(out, [2]int{u, int(w)})
			}
		}
	}
	return out
}

// Clone returns a Builder pre-populated with g's edges, for derived graphs.
func (g *Graph) Clone() *Builder {
	b := NewBuilder(g.n)
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	return b
}

// InducedSubgraph returns the subgraph induced by keep (a vertex predicate)
// along with the mapping from new vertex indices to original ones.
func (g *Graph) InducedSubgraph(keep func(v int) bool) (*Graph, []int) {
	oldToNew := make([]int, g.n)
	var newToOld []int
	for v := 0; v < g.n; v++ {
		if keep(v) {
			oldToNew[v] = len(newToOld)
			newToOld = append(newToOld, v)
		} else {
			oldToNew[v] = -1
		}
	}
	b := NewBuilder(len(newToOld))
	for u := 0; u < g.n; u++ {
		if oldToNew[u] < 0 {
			continue
		}
		for _, w := range g.Neighbors(u) {
			if int(w) > u && oldToNew[w] >= 0 {
				b.AddEdge(oldToNew[u], oldToNew[int(w)])
			}
		}
	}
	return b.Build(), newToOld
}

// DisjointUnion returns the disjoint union of graphs, with vertex offsets
// assigned in argument order, and the offset of each component.
func DisjointUnion(gs ...*Graph) (*Graph, []int) {
	total := 0
	offsets := make([]int, len(gs))
	for i, g := range gs {
		offsets[i] = total
		total += g.N()
	}
	b := NewBuilder(total)
	for i, g := range gs {
		for _, e := range g.Edges() {
			b.AddEdge(e[0]+offsets[i], e[1]+offsets[i])
		}
	}
	return b.Build(), offsets
}

// String returns a short description like "Graph(n=5, m=4)".
func (g *Graph) String() string { return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, g.m) }
