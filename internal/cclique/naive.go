package cclique

import (
	"math/bits"
	"sort"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// ListCliquesNaive is the all-to-all baseline: every node broadcasts its
// full adjacency row (n bits) to everyone, B bits per pair per round, in
// ⌈n/B⌉ rounds; then every node knows the whole graph and lists the
// cliques whose minimum vertex it is. Round complexity Θ(n/B) = Θ(n/log n)
// at B = Θ(log n) — asymptotically worse than the partition scheme's
// Θ(n^{1-2/s}), though its tiny constants win at small n; the
// BenchmarkAblationListing pair records the comparison.
func ListCliquesNaive(g *graph.Graph, s int, bandwidth int) (*ListResult, error) {
	return listCliquesNaive(g, s, bandwidth, congest.Config{})
}

// listCliquesNaive is ListCliquesNaive on the engine eng selects.
func listCliquesNaive(g *graph.Graph, s int, bandwidth int, eng congest.Config) (*ListResult, error) {
	n := g.N()
	if err := checkS(s); err != nil {
		return nil, err
	}
	if n < s {
		return &ListResult{}, nil
	}
	if bandwidth <= 0 {
		bandwidth = 8 * bits.Len(uint(n)) // Θ(log n)
	}
	chunks := (n + bandwidth - 1) / bandwidth
	res := &ListResult{B: bandwidth}
	newNode := func() finder { return &naiveNode{g: g, n: n, s: s, b: bandwidth, chunks: chunks} }
	if err := runOnClique(g, res, chunks+2, eng, newNode); err != nil {
		return nil, err
	}
	return res, nil
}

type naiveNode struct {
	g               *graph.Graph
	n, s, b, chunks int

	me    int
	row   bitio.BitString
	rows  map[int]*bitio.Writer
	found [][]int
}

func (nn *naiveNode) cliques() [][]int { return nn.found }

func (nn *naiveNode) Init(env *congest.Env) {
	nn.me = int(env.ID())
	w := bitio.NewWriter()
	nbrs := map[int]bool{}
	for _, x := range nn.g.Neighbors(nn.me) {
		nbrs[int(x)] = true
	}
	for v := 0; v < nn.n; v++ {
		if nbrs[v] {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
	}
	nn.row = w.BitString()
	nn.rows = map[int]*bitio.Writer{}
}

func (nn *naiveNode) Round(env *congest.Env, inbox []congest.Message) {
	// Absorb row chunks (senders arrive sorted, chunks arrive in round
	// order, so appending reconstructs each row).
	for _, m := range inbox {
		w, ok := nn.rows[int(m.From)]
		if !ok {
			w = bitio.NewWriter()
			nn.rows[int(m.From)] = w
		}
		w.WriteBits(m.Payload)
	}
	r := env.Round()
	if r <= nn.chunks {
		lo := (r - 1) * nn.b
		hi := lo + nn.b
		if hi > nn.n {
			hi = nn.n
		}
		env.Broadcast(nn.row.Slice(lo, hi))
		return
	}
	// All rows received: rebuild the graph and list own-minimum cliques.
	b := graph.NewBuilder(nn.n)
	add := func(v int, row bitio.BitString) {
		for u := 0; u < nn.n && u < row.Len(); u++ {
			if row.Bit(u) == 1 {
				b.AddEdgeOK(v, u)
			}
		}
	}
	add(nn.me, nn.row)
	for v, w := range nn.rows {
		add(v, w.BitString())
	}
	full := b.Build()
	full.ForEachClique(nn.s, func(c []int) bool {
		min := c[0]
		for _, v := range c {
			if v < min {
				min = v
			}
		}
		if min == nn.me {
			cl := append([]int(nil), c...)
			sort.Ints(cl)
			nn.found = append(nn.found, cl)
		}
		return true
	})
	env.Halt()
}
