package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// multipartite returns the complete multipartite graph with the given
// part sizes.
func multipartite(parts ...int) *graph.Graph {
	n := 0
	var part []int
	for p, size := range parts {
		n += size
		for i := 0; i < size; i++ {
			part = append(part, p)
		}
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			if part[u] != part[w] {
				b.AddEdge(u, w)
			}
		}
	}
	return b.Build()
}

// exchangePatterns are the patterns FuzzDetectNeighborExchange draws from
// its first byte: K3–K6, C4 = K_{2,2}, K_{2,3}, K_{1,1,2} and K_{2,2,2}.
var exchangePatterns = []*graph.Graph{
	graph.Complete(3), graph.Complete(4), graph.Complete(5), graph.Complete(6),
	multipartite(2, 2), multipartite(2, 3), multipartite(1, 1, 2), multipartite(2, 2, 2),
}

// FuzzDetectNeighborExchange checks the neighbour-exchange detector against
// VF2 in both directions, its Δ+2 round bound and bandwidth, and the
// byte-equality of the two engines' Stats. The input is one byte choosing
// the pattern from exchangePatterns, then a hostCase.
func FuzzDetectNeighborExchange(f *testing.F) {
	rng := rand.New(rand.NewSource(26))
	for p, mul := range []uint32{0x2545f491, 0x9e3779b9, 0x7feb352d, 0x85ebca6b} {
		g, _ := graph.PlantClique(graph.GNP(30, 0.12, rng), 4+p%2, rng)
		host := hostCase{n: 30, mul: mul, add: uint32(p) << 18, edges: g.Edges()}
		f.Add(append([]byte{byte(p)}, host.encode()...))
		f.Add(append([]byte{byte(4 + p)}, host.encode()...))
	}
	f.Add(append([]byte{4}, hostCase{n: 12, mul: 3, edges: graph.Cycle(12).Edges()}.encode()...))
	// K_{2,3} on {3,4} | {5,6,7}, with leaves 0–2 on 5. Only the
	// highest-degree vertex, 5, can see it, and it hears its part-mates
	// just δ(H) = 2 times.
	k23 := [][2]int{{3, 5}, {3, 6}, {3, 7}, {4, 5}, {4, 6}, {4, 7}, {0, 5}, {1, 5}, {2, 5}}
	f.Add(append([]byte{5}, hostCase{n: 8, mul: 1, edges: k23}.encode()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := exchangePatterns[int(data[0])%len(exchangePatterns)]
		nw := decodeHost(data[1:])
		seq, err := DetectNeighborExchange(nw, NeighborExchangeConfig{H: h})
		if err != nil {
			t.Fatal(err)
		}
		if want := graph.ContainsSubgraph(h, nw.G); seq.Detected != want {
			t.Fatalf("detected %v, VF2 containment %v (pattern %v, host %v)", seq.Detected, want, h.Edges(), nw.G.Edges())
		}
		if limit := nw.G.MaxDegree() + 2; seq.Rounds > limit {
			t.Fatalf("%d rounds, over Δ+2 = %d", seq.Rounds, limit)
		}
		if seq.Stats.MaxEdgeBitsRound > seq.Bandwidth {
			t.Fatalf("%d bits on one edge in a round, over B = %d", seq.Stats.MaxEdgeBitsRound, seq.Bandwidth)
		}
		par, err := DetectNeighborExchange(nw, NeighborExchangeConfig{H: h, Exec: Exec{Parallel: true}})
		if err != nil {
			t.Fatal(err)
		}
		sj, err1 := json.Marshal(seq.Stats)
		pj, err2 := json.Marshal(par.Stats)
		if err1 != nil || err2 != nil {
			t.Fatalf("encoding stats: %v, %v", err1, err2)
		}
		if par.Detected != seq.Detected || !bytes.Equal(sj, pj) {
			t.Fatalf("engines differ: detected %v vs %v; %s", seq.Detected, par.Detected, congest.DiffStats(seq.Stats, par.Stats))
		}
	})
}

// TestNeighborExchangeRefuses pins the detector's preconditions: a
// complete multipartite pattern and unique identifiers.
func TestNeighborExchangeRefuses(t *testing.T) {
	paw := graph.NewBuilder(4)
	paw.AddEdge(0, 1)
	paw.AddEdge(1, 2)
	paw.AddEdge(0, 2)
	paw.AddEdge(0, 3)
	nw := congest.NewNetwork(graph.Complete(6))
	for _, h := range []*graph.Graph{graph.Cycle(5), paw.Build(), graph.NewBuilder(3).Build(), nil} {
		if _, err := DetectNeighborExchange(nw, NeighborExchangeConfig{H: h}); err == nil {
			t.Errorf("pattern %v accepted", h)
		}
	}
	dup := congest.NewNetworkWithDuplicateIDs(graph.Complete(4), []congest.NodeID{0, 1, 0, 1})
	if _, err := DetectNeighborExchange(dup, NeighborExchangeConfig{H: graph.Complete(3)}); err == nil {
		t.Error("duplicate identifiers accepted")
	}
}
