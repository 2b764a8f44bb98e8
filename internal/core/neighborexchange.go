package core

import (
	"fmt"
	"math/bits"
	"slices"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// Complete multipartite detection (K_s, C4 = K_{2,2}, K_{a,b}, …) by
// neighbour-list exchange, the O(n)-round K_s bound of [10] halted on
// time: every node streams its sorted neighbour list, one ID per round, so
// at round deg(v)+1 it holds the whole list of every neighbour of degree
// at most its own, searches its view and halts. A run takes Δ+1 rounds.
//
// Let v be the highest-degree vertex of a copy of a complete multipartite
// H. Every copy edge has an end outside v's part, a neighbour v heard in
// full, so v's view holds the whole copy. A copy vertex not adjacent to v
// is in v's part, so it is on the lists of the |H| − |part| ≥ δ(H) copy
// vertices outside it, and v keeps only non-neighbours heard ≥ δ(H)
// times. Every edge in a view is real: the answer is exact.

// NeighborExchangeConfig configures the neighbour-exchange detector.
type NeighborExchangeConfig struct {
	Exec
	// H is the pattern; it must be complete multipartite.
	H *graph.Graph
}

// NeighborExchangeReport is the outcome of the neighbour-exchange detector.
type NeighborExchangeReport struct {
	Outcome
}

type exchangeNode struct {
	h      *graph.Graph
	minDeg int // δ(H)
	idBits int
	sent   int
	lists  [][]congest.NodeID // lists[i]: what neighbour i has streamed
}

func (xn *exchangeNode) Init(env *congest.Env) {
	xn.lists = make([][]congest.NodeID, env.Degree())
}

func (xn *exchangeNode) Round(env *congest.Env, inbox []congest.Message) {
	nbrs := env.Neighbors()
	for _, m := range inbox {
		x, ok := bitio.NewReader(m.Payload).ReadUint(xn.idBits)
		i, isNbr := slices.BinarySearch(nbrs, m.From)
		if !ok || !isNbr {
			continue
		}
		// Lists arrive strictly increasing; an entry out of order was
		// corrupted in flight and is dropped.
		if l := xn.lists[i]; len(l) == 0 || l[len(l)-1] < congest.NodeID(x) {
			xn.lists[i] = append(l, congest.NodeID(x))
		}
	}
	if xn.sent < len(nbrs) {
		env.Broadcast(bitio.Uint(uint64(nbrs[xn.sent]), xn.idBits))
		xn.sent++
		return
	}
	if len(nbrs) >= xn.minDeg && xn.found(env.ID(), nbrs) {
		env.Reject()
	}
	env.Halt()
}

// found reports whether this node's view holds a copy of H.
func (xn *exchangeNode) found(self congest.NodeID, nbrs []congest.NodeID) bool {
	k, d := xn.h.N(), len(nbrs)
	if xn.minDeg == k-1 { // K_k: k−1 pairwise adjacent neighbours
		words := (d + 63) / 64
		adj, cand := make([]uint64, d*words), make([]uint64, words)
		for i, l := range xn.lists {
			cand[i/64] |= 1 << (i % 64)
			for _, x := range l {
				if j, ok := slices.BinarySearch(nbrs, x); ok {
					adj[i*words+j/64] |= 1 << (j % 64)
				}
			}
		}
		return hasClique(adj, cand, k-1)
	}
	var heard []congest.NodeID // every entry but self, once per list
	for _, l := range xn.lists {
		for _, x := range l {
			if x != self {
				heard = append(heard, x)
			}
		}
	}
	slices.Sort(heard)
	// C4: two lists share an entry. Otherwise the view is the neighbours
	// 0..d−1, self at d, then the non-neighbours heard ≥ δ(H) times.
	c4 := k == 4 && xn.h.M() == 4
	var far []congest.NodeID
	for i, j := 0, 0; i < len(heard); i = j {
		for j = i + 1; j < len(heard) && heard[j] == heard[i]; j++ {
		}
		if _, nbr := slices.BinarySearch(nbrs, heard[i]); c4 && j-i > 1 {
			return true
		} else if !nbr && j-i >= xn.minDeg {
			far = append(far, heard[i])
		}
	}
	if c4 {
		return false
	}
	b := graph.NewBuilder(d + 1 + len(far))
	for i, l := range xn.lists {
		b.AddEdge(i, d)
		for _, x := range l {
			if j, ok := slices.BinarySearch(nbrs, x); ok {
				b.AddEdgeOK(i, j)
			} else if j, ok := slices.BinarySearch(far, x); ok {
				b.AddEdge(i, d+1+j)
			}
		}
	}
	return graph.FindSubgraph(xn.h, b.Build()) != nil
}

// hasClique reports whether the ports in the bitset cand, which it
// consumes, hold s ≥ 1 pairwise adjacent ones; adj has len(cand) words a
// port.
func hasClique(adj, cand []uint64, s int) bool {
	words := len(cand)
	next := make([]uint64, words)
	for w := range cand {
		for cand[w] != 0 {
			i := w*64 + bits.TrailingZeros64(cand[w])
			cand[w] &= cand[w] - 1
			left := 0
			for x := range next {
				next[x] = cand[x] & adj[i*words+x]
				left += bits.OnesCount64(next[x])
			}
			if s == 1 || left >= s-1 && hasClique(adj, next, s-1) {
				return true
			}
		}
	}
	return false
}

// DetectNeighborExchange runs the neighbour-exchange detector for a
// complete multipartite pattern on nw, in Δ+1 rounds. It is deterministic
// and exact. Views are keyed by identifier, so a network with duplicate
// identifiers is refused.
func DetectNeighborExchange(nw *congest.Network, cfg NeighborExchangeConfig) (*NeighborExchangeReport, error) {
	if cfg.H == nil || !cfg.H.IsCompleteMultipartite() {
		return nil, fmt.Errorf("core: neighbour exchange needs a complete multipartite pattern")
	}
	if !nw.UniqueIDs() {
		return nil, fmt.Errorf("core: neighbour exchange needs unique identifiers")
	}
	minDeg := cfg.H.N()
	for v := 0; v < cfg.H.N(); v++ {
		minDeg = min(minDeg, cfg.H.Degree(v))
	}
	idBits := nw.IDBits()
	factory := func() congest.Node {
		return &exchangeNode{h: cfg.H, minDeg: minDeg, idBits: idBits}
	}
	res, err := cfg.run(nw, factory, congest.Config{B: idBits, MaxRounds: nw.G.MaxDegree() + 2})
	if res == nil {
		return nil, err
	}
	return &NeighborExchangeReport{Outcome: outcome(res, idBits)}, err
}
