package cclique

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

func groundTruthCliques(g *graph.Graph, s int) [][]int {
	var out [][]int
	g.ForEachClique(s, func(c []int) bool {
		cl := append([]int(nil), c...)
		sort.Ints(cl)
		out = append(out, cl)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		for x := range out[i] {
			if out[i][x] != out[j][x] {
				return out[i][x] < out[j][x]
			}
		}
		return false
	})
	return out
}

func checkListing(t *testing.T, g *graph.Graph, s int) *ListResult {
	t.Helper()
	res, err := ListCliques(g, s, 0)
	if err != nil {
		t.Fatalf("ListCliques(s=%d): %v", s, err)
	}
	want := groundTruthCliques(g, s)
	if len(want) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(res.Cliques, want) {
		t.Fatalf("listing mismatch for s=%d:\n got %v\nwant %v", s, res.Cliques, want)
	}
	return res
}

func TestListTrianglesComplete(t *testing.T) {
	res := checkListing(t, graph.Complete(12), 3)
	if len(res.Cliques) != 220 { // C(12,3)
		t.Fatalf("K12 triangles: %d", len(res.Cliques))
	}
}

func TestListTrianglesTriangleFree(t *testing.T) {
	res := checkListing(t, graph.CompleteBipartite(6, 6), 3)
	if len(res.Cliques) != 0 {
		t.Fatalf("bipartite triangles: %d", len(res.Cliques))
	}
}

func TestListK4(t *testing.T) {
	res := checkListing(t, graph.Complete(10), 4)
	if len(res.Cliques) != 210 { // C(10,4)
		t.Fatalf("K10 K4s: %d", len(res.Cliques))
	}
}

func TestListK5Sparse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, _ := graph.PlantClique(graph.GNP(20, 0.2, rng), 5, rng)
	res := checkListing(t, g, 5)
	if len(res.Cliques) == 0 {
		t.Fatal("planted K5 not listed")
	}
}

func TestListRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(16, 0.4, rng)
		res, err := ListCliques(g, 3, 0)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(res.Cliques, normalize(groundTruthCliques(g, 3)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func normalize(c [][]int) [][]int {
	if len(c) == 0 {
		return nil
	}
	return c
}

func TestListingBandwidthRespected(t *testing.T) {
	g := graph.Complete(14)
	res, err := ListCliques(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxEdgeBitsRound > res.B {
		t.Fatalf("pair bits %d exceed B=%d", res.Stats.MaxEdgeBitsRound, res.B)
	}
	if res.Groups < 2 {
		t.Fatalf("groups = %d", res.Groups)
	}
	if res.Collectors > g.N() {
		t.Fatalf("collectors %d > n", res.Collectors)
	}
}

func TestListingTinyGraphs(t *testing.T) {
	checkListing(t, graph.Path(3), 3)  // no triangles
	checkListing(t, graph.Cycle(3), 3) // exactly one
	checkListing(t, graph.Complete(3), 3)
	res, err := ListCliques(graph.Path(2), 3, 0) // n < s
	if err != nil || len(res.Cliques) != 0 {
		t.Fatalf("n<s: %v %v", res, err)
	}
}

func TestListCliquesRejectsBadParams(t *testing.T) {
	if _, err := ListCliques(graph.Complete(5), 1, 0); err == nil {
		t.Fatal("s=1 accepted")
	}
	if _, err := ListCliques(graph.Complete(5), 3, 2); err == nil {
		t.Fatal("tiny bandwidth accepted")
	}
}

func TestMaxGroups(t *testing.T) {
	// C(k+2,3) ≤ n: n=20 → C(5,3)=10 ≤ 20, C(6,3)=20 ≤ 20, C(7,3)=35 > 20 → k=4.
	if k := maxGroups(20, 3); k != 4 {
		t.Fatalf("maxGroups(20,3)=%d", k)
	}
	if k := maxGroups(1, 3); k != 1 {
		t.Fatalf("maxGroups(1,3)=%d", k)
	}
}

func TestMultisets(t *testing.T) {
	ms := multisets(3, 2)
	// (0,0),(0,1),(0,2),(1,1),(1,2),(2,2)
	if len(ms) != 6 {
		t.Fatalf("multisets(3,2): %d", len(ms))
	}
	keys := map[string]bool{}
	for _, m := range ms {
		keys[multisetKey(m)] = true
	}
	if len(keys) != 6 {
		t.Fatal("multiset key collision")
	}
}

func TestContainsPair(t *testing.T) {
	if !containsPair([]int{0, 1, 2}, 0, 2) {
		t.Fatal("pair missing")
	}
	if containsPair([]int{0, 1, 2}, 0, 0) {
		t.Fatal("multiplicity-1 accepted for equal pair")
	}
	if !containsPair([]int{0, 0, 2}, 0, 0) {
		t.Fatal("multiplicity-2 rejected")
	}
}

// pairPeak is the most bits one ordered pair carried within a round.
func pairPeak(r *ListResult) int { return r.Stats.MaxEdgeBitsRound }

// TestListingEngineEquality runs both listers on the sequential and the
// parallel engine; the runs must agree on every stat and every clique.
func TestListingEngineEquality(t *testing.T) {
	listers := []struct {
		name string
		list func(*graph.Graph, int, int, congest.Config) (*ListResult, error)
	}{{"partition", listCliques}, {"naive", listCliquesNaive}}
	for _, n := range []int{16, 32, 48} {
		g := graph.GNP(n, 0.5, rand.New(rand.NewSource(int64(n))))
		for _, s := range []int{3, 4} {
			for _, l := range listers {
				seq, err := l.list(g, s, 0, congest.Config{})
				if err != nil {
					t.Fatalf("%s n=%d s=%d sequential: %v", l.name, n, s, err)
				}
				par, err := l.list(g, s, 0, congest.Config{Parallel: true, Workers: 4})
				if err != nil {
					t.Fatalf("%s n=%d s=%d parallel: %v", l.name, n, s, err)
				}
				if d := congest.DiffStats(seq.Stats, par.Stats); d != "" {
					t.Errorf("%s n=%d s=%d: stats differ: %s", l.name, n, s, d)
				}
				if !reflect.DeepEqual(seq.Cliques, par.Cliques) {
					t.Errorf("%s n=%d s=%d: cliques differ (%d vs %d)",
						l.name, n, s, len(seq.Cliques), len(par.Cliques))
				}
			}
		}
	}
}

// --- the model's contract on K_n ---

// runClique runs one factory program per vertex on congest.Run over K_n,
// the network both listers run on.
func runClique(n int, factory func() congest.Node, b, maxRounds int) error {
	_, err := congest.Run(congest.NewNetwork(graph.Complete(n)), factory,
		congest.Config{B: b, MaxRounds: maxRounds})
	return err
}

func TestCliqueRunnerBandwidthViolation(t *testing.T) {
	factory := func() congest.Node {
		return &congest.FuncNode{OnRound: func(env *congest.Env, _ []congest.Message) {
			env.Broadcast(bitio.Uint(0, 20))
		}}
	}
	if err := runClique(3, factory, 10, 3); err == nil {
		t.Fatal("violation not detected")
	}
}

func TestCliqueRunnerSelfSendRejected(t *testing.T) {
	factory := func() congest.Node {
		return &congest.FuncNode{OnRound: func(env *congest.Env, _ []congest.Message) {
			env.Send(env.ID(), bitio.Uint(0, 1))
		}}
	}
	if err := runClique(3, factory, 10, 2); err == nil {
		t.Fatal("self-send accepted")
	}
}

func TestCliqueRunnerAllToAll(t *testing.T) {
	// Every node sends its index to everyone; each must receive n-1
	// distinct values, one from every other node.
	got := make([]int, 5)
	factory := func() congest.Node {
		return &congest.FuncNode{OnRound: func(env *congest.Env, inbox []congest.Message) {
			me := int(env.ID())
			if env.Round() == 1 {
				env.Broadcast(bitio.Uint(uint64(me), 8))
				return
			}
			for _, m := range inbox {
				if v, _ := bitio.NewReader(m.Payload).ReadUint(8); congest.NodeID(v) == m.From {
					got[me]++
				}
			}
			env.Halt()
		}}
	}
	if err := runClique(5, factory, 8, 3); err != nil {
		t.Fatal(err)
	}
	for v, c := range got {
		if c != 4 {
			t.Fatalf("node %d received %d", v, c)
		}
	}
}
