package core

import (
	"fmt"
	"sort"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// Generic H-detection by edge collection: every node gossips the edges it
// knows, one new edge (2 identifiers) per round, and at the end of the
// budget searches its local copy for H. By the standard pipelining bound
// (Topkis-style flooding: k items flood in ≤ k + D rounds), every edge
// reaches every node of its component within m + D ≤ m + n rounds, so the
// budget m + n + 2 is sound and the round complexity is O(m + n) — the
// universal baseline. The paper's Section 1.1 remark is that for bipartite
// H this baseline is already sub-quadratic on H-free inputs
// (m ≤ ex(n,H) = O(n^{2-Ω(1)})), while Theorem 1.2 exhibits patterns that
// need near-quadratic time; the E2/E7 experiments run this detector on
// those constructions.
//
// The budget is derived from the instance's true m; distributedly, m can
// be aggregated along a BFS tree in O(D) extra rounds, which the
// simulation elides (every node would learn the same budget).
//
// The pattern H is global knowledge (part of the problem definition).
// Detection is exact and deterministic for connected networks; on a
// disconnected network each component detects the copies inside it, which
// is all any distributed algorithm can do.

// CollectConfig configures the edge-collection detector.
type CollectConfig struct {
	Exec
	// H is the pattern graph.
	H *graph.Graph
}

// CollectReport is the outcome of the edge-collection detector.
type CollectReport struct {
	Outcome
}

type edgeKey struct{ a, b congest.NodeID }

func mkEdge(a, b congest.NodeID) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{a, b}
}

type collectNode struct {
	h      *graph.Graph
	idBits int
	budget int

	known    map[edgeKey]struct{}
	pending  []edgeKey
	announce bool
}

func (cn *collectNode) Init(env *congest.Env) {
	cn.known = make(map[edgeKey]struct{})
}

func (cn *collectNode) Round(env *congest.Env, inbox []congest.Message) {
	if !cn.announce {
		cn.announce = true
		for _, nb := range env.Neighbors() {
			e := mkEdge(env.ID(), nb)
			cn.known[e] = struct{}{}
			cn.pending = append(cn.pending, e)
		}
	}
	for _, m := range inbox {
		r := bitio.NewReader(m.Payload)
		a, ok1 := r.ReadUint(cn.idBits)
		b, ok2 := r.ReadUint(cn.idBits)
		if !ok1 || !ok2 {
			continue
		}
		e := mkEdge(congest.NodeID(a), congest.NodeID(b))
		if _, seen := cn.known[e]; !seen {
			cn.known[e] = struct{}{}
			cn.pending = append(cn.pending, e)
		}
	}
	if env.Round() >= cn.budget {
		if containsPattern(cn.h, cn.known) {
			env.Reject()
		}
		env.Halt()
		return
	}
	if len(cn.pending) > 0 {
		e := cn.pending[0]
		cn.pending = cn.pending[1:]
		w := bitio.NewWriter()
		w.WriteUint(uint64(e.a), cn.idBits)
		w.WriteUint(uint64(e.b), cn.idBits)
		env.Broadcast(w.BitString())
	}
}

// containsPattern checks for H inside a collected edge set.
func containsPattern(h *graph.Graph, edges map[edgeKey]struct{}) bool {
	idSet := make(map[congest.NodeID]int)
	for e := range edges {
		for _, id := range []congest.NodeID{e.a, e.b} {
			if _, ok := idSet[id]; !ok {
				idSet[id] = len(idSet)
			}
		}
	}
	if len(idSet) < h.N() {
		return false
	}
	// Deterministic compaction for reproducibility.
	ids := make([]congest.NodeID, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		idSet[id] = i
	}
	b := graph.NewBuilder(len(ids))
	for e := range edges {
		b.AddEdgeOK(idSet[e.a], idSet[e.b])
	}
	return graph.ContainsSubgraph(h, b.Build())
}

// CollectNodeFactory exposes the edge-collection node program for callers
// that drive the simulator themselves (e.g. the two-party reduction of
// Theorem 1.2). budget is the evaluation round, normally m + n + 2.
func CollectNodeFactory(h *graph.Graph, idBits, budget int) func() congest.Node {
	return func() congest.Node {
		return &collectNode{h: h, idBits: idBits, budget: budget}
	}
}

// DetectCollect runs the edge-collection detector on nw.
func DetectCollect(nw *congest.Network, cfg CollectConfig) (*CollectReport, error) {
	if cfg.H == nil || cfg.H.N() == 0 {
		return nil, fmt.Errorf("core: empty pattern")
	}
	idBits := nw.IDBits()
	budget := nw.G.M() + nw.N() + 2
	factory := func() congest.Node {
		return &collectNode{h: cfg.H, idBits: idBits, budget: budget}
	}
	res, err := cfg.run(nw, factory, congest.Config{B: 2 * idBits, MaxRounds: budget + 1})
	if res == nil {
		return nil, err
	}
	return &CollectReport{Outcome: outcome(res, 2*idBits)}, err
}
