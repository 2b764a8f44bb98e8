package graph

import "slices"

// BFS returns the distance from src to every vertex (-1 if unreachable).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return dist
}

// Connected reports whether g is connected (vacuously true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Components returns the connected component index of each vertex and the
// number of components.
func (g *Graph) Components() (comp []int, count int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	for v := 0; v < g.n; v++ {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = count
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = count
					queue = append(queue, int(w))
				}
			}
		}
		count++
	}
	return comp, count
}

// Diameter returns the eccentricity maximum over all vertices, or -1 if g
// is disconnected (or has no vertices). O(n·(n+m)): fine at test scale.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		dist := g.BFS(v)
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// IsTree reports whether g is connected and acyclic.
func (g *Graph) IsTree() bool {
	return g.Connected() && g.m == g.n-1
}

// IsCompleteMultipartite reports whether g has an edge and its
// non-adjacency is an equivalence relation, so its vertices split into
// parts with every edge between two parts present (K_s, C4 = K_{2,2},
// K_{a,b}, …): any two non-adjacent vertices have the same neighbours.
func (g *Graph) IsCompleteMultipartite() bool {
	for u := 0; u < g.n; u++ {
		for w := u + 1; w < g.n; w++ {
			if !g.HasEdge(u, w) && !slices.Equal(g.Neighbors(u), g.Neighbors(w)) {
				return false
			}
		}
	}
	return g.m > 0
}

// IsBipartite reports whether g is 2-colorable, and returns a proper
// 2-coloring when it is.
func (g *Graph) IsBipartite() (bool, []int) {
	color := make([]int, g.n)
	for i := range color {
		color[i] = -1
	}
	for v := 0; v < g.n; v++ {
		if color[v] >= 0 {
			continue
		}
		color[v] = 0
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if color[w] < 0 {
					color[w] = 1 - color[u]
					queue = append(queue, int(w))
				} else if color[w] == color[u] {
					return false, nil
				}
			}
		}
	}
	return true, color
}

// Girth returns the length of a shortest cycle, or -1 if g is acyclic.
// It runs a BFS from every vertex; O(n·(n+m)).
func (g *Graph) Girth() int {
	best := -1
	dist := make([]int, g.n)
	parent := make([]int, g.n)
	for src := 0; src < g.n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		parent[src] = -1
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, wi := range g.Neighbors(u) {
				w := int(wi)
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					parent[w] = u
					queue = append(queue, w)
				} else if parent[u] != w {
					// Cross or back edge: cycle through src of length
					// dist[u]+dist[w]+1 (an upper bound that is tight for
					// the shortest cycle through src when scanned in BFS
					// order; taking the min over all sources is exact).
					c := dist[u] + dist[w] + 1
					if best < 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}
