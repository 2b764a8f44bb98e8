package graph

// Clique enumeration and counting, used by the Lemma 1.3 experiment
// (any graph on m edges has at most O(m^{s/2}) copies of K_s) and as
// ground truth for the clique detection and listing algorithms.
//
// The enumeration follows the classic Chiba–Nishizeki idea: order vertices
// by degeneracy and extend cliques only within each vertex's higher-ordered
// neighborhood, giving O(m · d^{s-2}) time where d is the degeneracy.

// DegeneracyOrder returns a vertex ordering v_1..v_n such that each vertex
// has at most `degeneracy` neighbors later in the order, along with the
// degeneracy itself. It is the []int convenience form of DegeneracyRank
// (degeneracy.go), which the bitset layout and the kernels use directly.
func (g *Graph) DegeneracyOrder() (order []int, degeneracy int) {
	o32, _, degeneracy := g.DegeneracyRank()
	order = make([]int, len(o32))
	for i, v := range o32 {
		order[i] = int(v)
	}
	return order, degeneracy
}

// CountCliques returns the number of (unordered) copies of K_s in g.
// s ≥ 1; s == 1 counts vertices, s == 2 counts edges.
func (g *Graph) CountCliques(s int) int64 {
	var count int64
	g.ForEachClique(s, func([]int) bool {
		count++
		return true
	})
	return count
}

// ForEachClique enumerates all unordered K_s copies, invoking visit with
// the clique's vertices (ascending by position in the degeneracy order's
// rank). visit returns false to stop early.
func (g *Graph) ForEachClique(s int, visit func(clique []int) bool) {
	if s < 1 {
		return
	}
	if s == 1 {
		buf := make([]int, 1)
		for v := 0; v < g.n; v++ {
			buf[0] = v
			if !visit(buf) {
				return
			}
		}
		return
	}
	order, rank, _ := g.DegeneracyRank()
	// later[v] = neighbors of v with higher rank.
	later := make([][]int, g.n)
	for v := 0; v < g.n; v++ {
		for _, w := range g.Neighbors(v) {
			if rank[w] > rank[v] {
				later[v] = append(later[v], int(w))
			}
		}
	}
	clique := make([]int, 0, s)
	var extend func(cands []int) bool
	extend = func(cands []int) bool {
		if len(clique) == s {
			return visit(clique)
		}
		// Prune: not enough candidates left to finish.
		if len(clique)+len(cands) < s {
			return true
		}
		for i, v := range cands {
			clique = append(clique, v)
			if len(clique) == s {
				if !visit(clique) {
					clique = clique[:len(clique)-1]
					return false
				}
			} else {
				var next []int
				for _, w := range cands[i+1:] {
					if g.HasEdge(v, w) {
						next = append(next, w)
					}
				}
				if !extend(next) {
					clique = clique[:len(clique)-1]
					return false
				}
			}
			clique = clique[:len(clique)-1]
		}
		return true
	}
	for _, v := range order {
		clique = append(clique[:0], int(v))
		if !extend(later[v]) {
			return
		}
	}
}

// CountTriangles is CountCliques(3), provided for readability at call sites.
func (g *Graph) CountTriangles() int64 { return g.CountCliques(3) }

// ListTriangles returns all triangles as vertex triples.
func (g *Graph) ListTriangles() [][3]int {
	var out [][3]int
	g.ForEachClique(3, func(c []int) bool {
		out = append(out, [3]int{c[0], c[1], c[2]})
		return true
	})
	return out
}
