package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// hostCase is a fuzzed host of at most 40 vertices whose identifiers are
// scrambled by the bijection v ↦ (mul·v + add) mod 2^30 (mul odd).
//
// Layout: n-1, mul and add (4 bytes each, little endian), then one (u, v)
// byte pair per edge.
type hostCase struct {
	n        int
	mul, add uint32
	edges    [][2]int
}

// treeCase is FuzzDetectTree's input: a tree of 1–8 vertices given by its
// Prüfer sequence, and a host. Layout: t-1, the t-2 Prüfer entries, then
// the host's.
type treeCase struct {
	prufer []int
	hostCase
}

const treeFuzzMaxT, hostFuzzMaxN = 8, 40

func (c hostCase) encode() []byte {
	b := []byte{byte(c.n - 1)}
	b = binary.LittleEndian.AppendUint32(b, c.mul)
	b = binary.LittleEndian.AppendUint32(b, c.add)
	for _, e := range c.edges {
		b = append(b, byte(e[0]), byte(e[1]))
	}
	return b
}

func (c treeCase) encode() []byte {
	b := []byte{byte(len(c.prufer) + 1)}
	for _, x := range c.prufer {
		b = append(b, byte(x))
	}
	return append(b, c.hostCase.encode()...)
}

// decodeHost reads any byte string as a host and its identifier
// assignment.
func decodeHost(data []byte) *congest.Network {
	n := 1
	if len(data) > 0 {
		n += int(data[0]) % hostFuzzMaxN
		data = data[1:]
	}
	var word [8]byte
	copy(word[:], data)
	data = data[min(len(data), 8):]
	mul := binary.LittleEndian.Uint32(word[:4]) | 1
	add := binary.LittleEndian.Uint32(word[4:])
	b := graph.NewBuilder(n)
	for len(data) >= 2 {
		if u, v := int(data[0])%n, int(data[1])%n; u != v {
			b.AddEdgeOK(u, v)
		}
		data = data[2:]
	}
	ids := make([]congest.NodeID, n)
	for v := range ids {
		ids[v] = congest.NodeID((mul*uint32(v) + add) & (1<<30 - 1))
	}
	return congest.NewNetworkWithIDs(b.Build(), ids)
}

// decodeTreeCase reads any byte string as a tree and a host.
func decodeTreeCase(data []byte) (tree *graph.Graph, nw *congest.Network) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		x := int(data[0])
		data = data[1:]
		return x
	}
	t := 1 + next()%treeFuzzMaxT
	prufer := make([]int, max(t-2, 0))
	for i := range prufer {
		prufer[i] = next() % t
	}
	return pruferTree(t, prufer), decodeHost(data)
}

// pruferTree decodes a Prüfer sequence of length t-2 over {0..t-1}: join
// the smallest remaining leaf to each entry in turn, then the last two.
func pruferTree(t int, prufer []int) *graph.Graph {
	b := graph.NewBuilder(t)
	deg := make([]int, t)
	for i := range deg {
		deg[i] = 1
	}
	for _, x := range prufer {
		deg[x]++
	}
	for _, x := range prufer {
		for v := 0; v < t; v++ {
			if deg[v] == 1 {
				b.AddEdge(v, x)
				deg[v], deg[x] = 0, deg[x]-1
				break
			}
		}
	}
	var last []int
	for v := 0; v < t; v++ {
		if deg[v] == 1 {
			last = append(last, v)
		}
	}
	if len(last) == 2 {
		b.AddEdge(last[0], last[1])
	}
	return b.Build()
}

// FuzzDetectTree checks the representative-family detector against VF2
// in both directions, its declared round cap and bandwidth, and the
// equality of the two engines.
func FuzzDetectTree(f *testing.F) {
	p4, star4, p6 := []int{1, 2}, []int{0, 0, 0}, []int{1, 2, 3, 4}
	f.Add(treeCase{p4, hostCase{n: 10, mul: 0x2545f491, add: 7, edges: graph.Cycle(10).Edges()}}.encode())
	f.Add(treeCase{star4, hostCase{n: 12, mul: 0x9e3779b9, add: 1 << 20, edges: graph.Cycle(12).Edges()}}.encode())
	f.Add(treeCase{star4, hostCase{n: 7, mul: 0x7feb352d, add: 3, edges: graph.Star(6).Edges()}}.encode())
	rng := rand.New(rand.NewSource(6))
	gnp := graph.GNP(30, 0.06, rng).Clone()
	path := rng.Perm(30)[:6]
	for i := 0; i+1 < len(path); i++ {
		gnp.AddEdgeOK(path[i], path[i+1])
	}
	f.Add(treeCase{p6, hostCase{n: 30, mul: 0x85ebca6b, add: 12345, edges: gnp.Build().Edges()}}.encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		tree, nw := decodeTreeCase(data)
		seq, err := DetectTree(nw, TreeConfig{Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		if want := graph.ContainsSubgraph(tree, nw.G); seq.Detected != want {
			t.Fatalf("detected %v, VF2 containment %v (tree %v, host %v)", seq.Detected, want, tree.Edges(), nw.G.Edges())
		}
		// Every node halts after its root decision, and the cap leaves a
		// spare round, so a run that reaches it was cut short.
		if seq.Rounds >= seq.MaxRounds {
			t.Fatalf("%d rounds reach the declared cap %d", seq.Rounds, seq.MaxRounds)
		}
		if seq.Stats.MaxEdgeBitsRound > seq.Bandwidth {
			t.Fatalf("%d bits on one edge in a round, over B = %d", seq.Stats.MaxEdgeBitsRound, seq.Bandwidth)
		}
		par, err := DetectTree(nw, TreeConfig{Tree: tree, Exec: Exec{Parallel: true}})
		if err != nil {
			t.Fatal(err)
		}
		if par.Detected != seq.Detected {
			t.Fatalf("parallel engine detected %v, sequential %v", par.Detected, seq.Detected)
		}
		if diff := congest.DiffStats(seq.Stats, par.Stats); diff != "" {
			t.Fatalf("engines differ: %s", diff)
		}
	})
}
