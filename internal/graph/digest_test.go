package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestDigestPinned pins the digest of a fixed small graph. If this test
// fails, the serialization changed and every content-addressed store
// keyed by the old digests is invalidated — bump the magic ("sgd2") and
// migrate deliberately, never silently.
func TestDigestPinned(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	got := b.Build().Digest()
	const want = "456ca5b98f903df67ec4540c5970d36be1758214a0bfb99bb48d415cc611af5e"
	if got != want {
		t.Fatalf("pinned digest changed:\n got %s\nwant %s", got, want)
	}
}

// TestDigestGoldenSet pins the digests of a fixed graph family spanning
// every generator. The cluster router shards jobs by digest (rendezvous
// hashing on this exact string), so a digest drift would not just
// invalidate content-addressed stores — it would silently reshuffle
// which worker owns which graph across a rolling upgrade. Deterministic
// generators plus the math/rand compatibility promise make these stable
// across platforms; if one changes, either the serialization or a
// generator changed — bump the "sgd2" magic and migrate deliberately.
func TestDigestGoldenSet(t *testing.T) {
	golden := []struct {
		name string
		want string
	}{
		{"complete-6", "b05c5624dbf0226819ce9047d6ec461aee495bd998d842c953c5b50940613311"},
		{"cycle-9", "3067bbcba0562538ff8cc1e3087d3c1d34bb2bb4e4d45fdad9922f19005a17ae"},
		{"path-7", "22ea6829934dbe2624e748c42272dd70c08a7d0a2aac8430d23622c7ff49c49e"},
		{"star-5", "178bdea9b3e2fcfeb94846b31a998cb51d977c459475737609f0cc70942fb717"},
		{"bipartite-3x4", "3c1dc43c4696a606d001527e4712071828c19ff44a6c93d3912225a5d9e6169b"},
		{"blowup-cycle-4x3", "b1fb27533c1f9a7df897430c4d7046467f1dc564d8d2e3ef9425ace3cc2cd4c9"},
		{"gnp-40-seed7", "678b8dc6761ad975609bbdb75c76cd08cb83517ef62b2172dd4c9fe2b289ddf5"},
		{"gnm-25-60-seed11", "19f861a81961ac118b66a0a33bb7724400fc334294bf7d8b4185ffa4da02b0c5"},
		{"tree-30-seed3", "8f8ee068cecf1e4c9bed8024787db8f7291458a58610c3ec33c3f3369caf8481"},
		{"planted-k4-seed42", "9f3cec9aa1965a7c85a3f48ace4a79b1b777be5931fb178ab5d5ae6c100c9e05"},
	}
	for _, tc := range golden {
		if got := goldenFamily[tc.name]().Digest(); got != tc.want {
			t.Errorf("%s: pinned digest changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// goldenFamily builds the graphs TestDigestGoldenSet pins, by name.
var goldenFamily = map[string]func() *Graph{
	"complete-6":       func() *Graph { return Complete(6) },
	"cycle-9":          func() *Graph { return Cycle(9) },
	"path-7":           func() *Graph { return Path(7) },
	"star-5":           func() *Graph { return Star(5) },
	"bipartite-3x4":    func() *Graph { return CompleteBipartite(3, 4) },
	"blowup-cycle-4x3": func() *Graph { return BlowUpCycle(4, 3) },
	"gnp-40-seed7":     func() *Graph { return GNP(40, 0.15, rand.New(rand.NewSource(7))) },
	"gnm-25-60-seed11": func() *Graph { return GNM(25, 60, rand.New(rand.NewSource(11))) },
	"tree-30-seed3":    func() *Graph { return RandomTree(30, rand.New(rand.NewSource(3))) },
	"planted-k4-seed42": func() *Graph {
		rng := rand.New(rand.NewSource(42))
		g, _ := PlantClique(GNP(30, 0.1, rng), 4, rng)
		return g
	},
}

// TestDigestInsertionOrderInvariant: the digest is a function of the edge
// *set*, not the order the Builder saw it — any permutation of the same
// input yields the same digest, and repeated calls are stable.
func TestDigestInsertionOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(30)
		g := GNP(n, 0.3, rng)
		edges := g.Edges()
		want := g.Digest()
		if again := g.Digest(); again != want {
			t.Fatalf("digest not stable across calls: %s vs %s", want, again)
		}
		for perm := 0; perm < 4; perm++ {
			order := rng.Perm(len(edges))
			b := NewBuilder(n)
			for _, i := range order {
				b.AddEdge(edges[i][0], edges[i][1])
			}
			if got := b.Build().Digest(); got != want {
				t.Fatalf("trial %d perm %d: insertion order changed digest: %s vs %s",
					trial, perm, got, want)
			}
		}
	}
}

// TestDigestDiscriminates: the digest is over labeled graphs — changing
// the vertex count, dropping an edge, or relabeling vertices of an
// asymmetric graph all change it.
func TestDigestDiscriminates(t *testing.T) {
	base := func() *Builder {
		b := NewBuilder(4)
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		b.AddEdge(2, 3)
		return b
	}
	d := base().Build().Digest()

	bigger := NewBuilder(5)
	bigger.AddEdge(0, 1)
	bigger.AddEdge(1, 2)
	bigger.AddEdge(2, 3)
	if bigger.Build().Digest() == d {
		t.Fatal("adding an isolated vertex did not change the digest")
	}

	fewer := NewBuilder(4)
	fewer.AddEdge(0, 1)
	fewer.AddEdge(1, 2)
	if fewer.Build().Digest() == d {
		t.Fatal("dropping an edge did not change the digest")
	}

	relabeled := NewBuilder(4) // the same path relabeled 0↔3, 1↔2
	relabeled.AddEdge(3, 2)
	relabeled.AddEdge(2, 1)
	relabeled.AddEdge(1, 0)
	rd := relabeled.Build().Digest()
	if rd == d {
		// P_4 relabeled by the reversal automorphism IS the same labeled
		// graph: {0,1},{1,2},{2,3} maps to {3,2},{2,1},{1,0} — identical
		// edge set, so equal digests are correct here.
		t.Log("reversal is an automorphism of P4; equal digest expected")
	}
	if rd != d {
		t.Fatalf("reversal automorphism of P4 changed the edge set: %s vs %s", rd, d)
	}

	shifted := NewBuilder(4) // genuinely different labeled edge set
	shifted.AddEdge(0, 2)
	shifted.AddEdge(2, 1)
	shifted.AddEdge(1, 3)
	if shifted.Build().Digest() == d {
		t.Fatal("relabeled (non-automorphism) copy did not change the digest")
	}
}

// referenceDigest writes out the sgd2 format that Digest documents, from
// Edges() alone: blocks of 16 consecutive vertices, each vertex's count of
// higher neighbors and then those neighbors as big-endian uint32s, one
// SHA-256 per block, and the hex SHA-256 of "sgd2", n as a big-endian
// uint64 and the block sums.
func referenceDigest(g *Graph) string {
	higher := make([][]uint32, g.N())
	for _, e := range g.Edges() {
		higher[e[0]] = append(higher[e[0]], uint32(e[1]))
	}
	root := binary.BigEndian.AppendUint64([]byte("sgd2"), uint64(g.N()))
	for lo := 0; lo < g.N(); lo += 16 {
		var block []byte
		for u := lo; u < min(lo+16, g.N()); u++ {
			block = binary.BigEndian.AppendUint32(block, uint32(len(higher[u])))
			for _, w := range higher[u] {
				block = binary.BigEndian.AppendUint32(block, w)
			}
		}
		sum := sha256.Sum256(block)
		root = append(root, sum[:]...)
	}
	sum := sha256.Sum256(root)
	return hex.EncodeToString(sum[:])
}

// TestDigestReference checks Digest against referenceDigest on the golden
// family, on graphs around the 16-vertex block boundaries and of the churn
// shape's size, and along 5-step delta chains. In a chain whose parents are all
// digested, every child of a multi-block parent must start from its
// parent's block sums; in one that digests every other step, a child of
// an undigested parent must hash from scratch. Both must agree with the
// reference.
func TestDigestReference(t *testing.T) {
	check := func(name string, g *Graph) {
		t.Helper()
		if got, want := g.Digest(), referenceDigest(g); got != want {
			t.Errorf("%s (%v): Digest = %s, reference %s", name, g, got, want)
		}
	}
	for name, build := range goldenFamily {
		check(name, build())
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 15, 16, 17, 33, 2000} {
		check(fmt.Sprintf("gnp-%d", n), GNP(n, min(0.5, 40/float64(n)), rng))
	}
	for _, n := range []int{17, 33, 300, 2000} {
		for _, every := range []int{1, 2} {
			cur := GNP(n, min(0.5, 40/float64(n)), rng)
			for step := 0; step < 5; step++ {
				digested := step%every == 0
				if digested {
					check(fmt.Sprintf("n=%d chain step %d", n, step), cur)
				}
				res, err := ApplyDelta(cur, churnStep(rng, cur, 8))
				if err != nil {
					t.Fatalf("n=%d step %d: %v", n, step, err)
				}
				if patched := res.Graph.dig.sums != nil; patched != digested {
					t.Errorf("n=%d step %d: child starts from its parent's block sums: %v, want %v", n, step, patched, digested)
				}
				cur = res.Graph
			}
			check(fmt.Sprintf("n=%d chain end", n), cur)
		}
	}
}

// TestDigestConcurrent digests one fresh graph from several goroutines
// while others derive children from it and digest those. Under -race it
// pins that the memo is computed once and published safely, and that a
// child derived while its parent's digest is in flight is right whether
// it patched its parent's block sums or hashed from scratch.
func TestDigestConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := GNP(300, 0.05, rng)
	want := referenceDigest(g)
	deltas := make([]EdgeDelta, 4)
	for i := range deltas {
		deltas[i] = churnStep(rng, g, 8)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2*len(deltas); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if w%2 == 0 {
				if got := g.Digest(); got != want {
					t.Errorf("goroutine %d: Digest = %s, reference %s", w, got, want)
				}
				return
			}
			res, err := ApplyDelta(g, deltas[w/2])
			if err != nil {
				t.Errorf("goroutine %d: %v", w, err)
				return
			}
			if got, want := res.Graph.Digest(), referenceDigest(res.Graph); got != want {
				t.Errorf("goroutine %d: child Digest = %s, reference %s", w, got, want)
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// churnShape is the graph the churn and count-fresh workloads serve:
// GNP(2000, 40/1999), about 40k edges.
func churnShape() *Graph {
	return GNP(2000, 40.0/1999, rand.New(rand.NewSource(1)))
}

// BenchmarkDigest digests a fresh, never-digested copy of the churn shape
// in each iteration.
func BenchmarkDigest(b *testing.B) {
	g := churnShape()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		fresh := &Graph{n: g.n, m: g.m, off: g.off, csr: g.csr}
		_ = fresh.Digest()
	}
}

// BenchmarkDeltaChildDigest times the first Digest of a child that an
// 8-change delta derived from the digested churn shape; the ApplyDelta
// itself runs outside the timer.
func BenchmarkDeltaChildDigest(b *testing.B) {
	g := churnShape()
	g.Digest()
	d := churnStep(rand.New(rand.NewSource(2)), g, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		res, err := ApplyDelta(g, d)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_ = res.Graph.Digest()
	}
}
