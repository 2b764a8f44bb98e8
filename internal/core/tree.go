package core

import (
	"fmt"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// Tree detection by color-coding dynamic programming (the constant-round
// regime of [12]): label the tree's vertices 0..t-1, color every network
// node with a uniform label, and compute bottom-up which network nodes can
// root a properly-colored embedding of each subtree. Because labels inside
// a subtree are distinct and each network node carries one color, a
// successful root embedding is automatically injective. The DP needs
// depth(T) ≤ t rounds of t-bit broadcasts, so the round complexity is
// O(|T|) — constant for fixed T — matching the paper's "trees are easy"
// citation.

// TreeConfig configures the tree detector.
type TreeConfig struct {
	Exec
	// Tree is the pattern; it must be a tree (connected, acyclic).
	Tree *graph.Graph
	// Reps is the number of independent colorings; default 1.
	Reps int
	// Coloring optionally injects a coloring (id, rep) → {0..t-1}.
	Coloring func(id congest.NodeID, rep int) int
}

// TreeReport is the outcome of the tree detector.
type TreeReport struct {
	Outcome
	RoundsPerRep int
}

// treePlan precomputes the rooted structure of the pattern.
type treePlan struct {
	cfg      TreeConfig
	t        int     // |V(T)|
	children [][]int // children[x] under root 0
	order    []int   // post-order (children before parents)
	depth    int
	perRep   int
}

func newTreePlan(cfg TreeConfig) *treePlan {
	tr := cfg.Tree
	t := tr.N()
	children := make([][]int, t)
	parent := make([]int, t)
	for i := range parent {
		parent[i] = -2
	}
	parent[0] = -1
	queue := []int{0}
	var bfsOrder []int
	depth := make([]int, t)
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		bfsOrder = append(bfsOrder, x)
		for _, y := range tr.Neighbors(x) {
			if parent[y] == -2 {
				parent[y] = x
				depth[int(y)] = depth[x] + 1
				children[x] = append(children[x], int(y))
				queue = append(queue, int(y))
			}
		}
	}
	order := make([]int, t)
	for i, x := range bfsOrder {
		order[t-1-i] = x // reverse BFS = valid post-order for the DP
	}
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	return &treePlan{cfg: cfg, t: t, children: children, order: order,
		depth: maxDepth, perRep: maxDepth + 2}
}

// treeNode is the per-node DP program. Round structure per repetition:
// round 1 broadcasts the initial (leaf) bitmask; each later round updates
// the DP from neighbors' masks and rebroadcasts; after depth+1 rounds the
// DP has converged and a root-capable node rejects.
type treeNode struct {
	plan  *treePlan
	color int
	can   []bool
	nbr   map[congest.NodeID][]bool
}

func (tn *treeNode) Init(env *congest.Env) {}

func (tn *treeNode) mask() bitio.BitString {
	w := bitio.NewWriter()
	for _, b := range tn.can {
		if b {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
	}
	return w.BitString()
}

func (tn *treeNode) Round(env *congest.Env, inbox []congest.Message) {
	p := tn.plan
	r := env.Round() - 1
	rep, offset := r/p.perRep, r%p.perRep
	if rep >= p.cfg.Reps {
		env.Halt()
		return
	}
	if offset == 0 {
		tn.color = colorOf(env, p.cfg.Coloring, rep, p.t)
		tn.can = make([]bool, p.t)
		tn.nbr = make(map[congest.NodeID][]bool)
		// Leaves embed wherever the color matches.
		for x := 0; x < p.t; x++ {
			if len(p.children[x]) == 0 && tn.color == x {
				tn.can[x] = true
			}
		}
		env.Broadcast(tn.mask())
		return
	}
	// Absorb neighbor masks.
	for _, m := range inbox {
		if m.Payload.Len() != p.t {
			continue
		}
		bits := make([]bool, p.t)
		for i := 0; i < p.t; i++ {
			bits[i] = m.Payload.Bit(i) == 1
		}
		tn.nbr[m.From] = bits
	}
	// DP update in post-order: v can root subtree x iff its color is x
	// and every child subtree is rooted at some (distinct, by colors)
	// neighbor.
	for _, x := range p.order {
		if tn.can[x] || tn.color != x {
			continue
		}
		ok := true
		for _, y := range p.children[x] {
			found := false
			for _, bits := range tn.nbr {
				if bits[y] {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			tn.can[x] = true
		}
	}
	if tn.can[0] {
		env.Reject() // a properly-colored copy of T is rooted here
	}
	if offset < p.perRep-1 {
		env.Broadcast(tn.mask())
	}
	if offset == p.perRep-1 && rep == p.cfg.Reps-1 {
		env.Halt()
	}
}

// DetectTree runs the color-coding tree detector on nw.
func DetectTree(nw *congest.Network, cfg TreeConfig) (*TreeReport, error) {
	if cfg.Tree == nil || !cfg.Tree.IsTree() {
		return nil, fmt.Errorf("core: pattern is not a tree")
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	plan := newTreePlan(cfg)
	factory := func() congest.Node { return &treeNode{plan: plan} }
	res, err := cfg.run(nw, factory, congest.Config{B: plan.t, MaxRounds: plan.perRep*cfg.Reps + 1})
	if res == nil {
		return nil, err
	}
	return &TreeReport{Outcome: outcome(res, plan.t), RoundsPerRep: plan.perRep}, err
}
