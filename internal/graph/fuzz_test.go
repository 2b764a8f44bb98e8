package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// fuzzTight and fuzzBig are the two Limits the edge-list fuzzers parse
// every input under. fuzzTight has the shape of the serve layer's upload
// limits. fuzzBig is large but sane rather than unlimited: a fuzz input
// like "0 999999999" would otherwise make the parser allocate O(max
// vertex) memory and kill the fuzz worker. Its edge bound also caps the
// hub row of an adversarial star (every edge on one vertex): the parser
// finds duplicates by sorting each row and scanning it, and the reference
// parser of FuzzReadEdgeListReference sorts rows with sort.Slice.
var (
	fuzzTight = Limits{MaxVertices: 64, MaxEdges: 32, MaxLineBytes: 128}
	fuzzBig   = Limits{MaxVertices: 1 << 16, MaxEdges: 1 << 12}
)

// FuzzReadEdgeList: the parser must never panic, and anything it accepts
// must survive a write→read round trip. The fuzz body parses every input
// twice — under permissive and under tight Limits (the latter is the
// configuration shape the serve layer's untrusted upload path uses) —
// asserting that limited parsing never panics, never accepts anything
// beyond its bounds, rejects out-of-bounds input only with *LimitError,
// and agrees with the permissive parse on inputs inside the bounds.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("n 5\n0 1\n1 2\n")
	f.Add("0 1\n# comment\n\n2 3\n")
	f.Add("n x\n")
	f.Add("1 1\n")
	f.Add("n -3\n0 1\n")
	f.Add("0 1 2\n")
	f.Add("n 50\nn 50\n")
	f.Add("0 99999999999999999999\n")
	lim, big := fuzzTight, fuzzBig
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeListLimits(strings.NewReader(input), big)
		lg, lerr := ReadEdgeListLimits(strings.NewReader(input), lim)
		var bigLimit *LimitError
		if errors.As(err, &bigLimit) {
			// Beyond even the permissive bound. The strict parse scans the
			// same lines with lower limits, so it cannot have accepted.
			if lerr == nil {
				t.Fatalf("strict limits accepted what permissive limits rejected: %v", err)
			}
			return
		}
		if lerr == nil {
			if lg.N() > lim.MaxVertices {
				t.Fatalf("limited parse accepted %d vertices (max %d)", lg.N(), lim.MaxVertices)
			}
			if lg.M() > lim.MaxEdges {
				t.Fatalf("limited parse accepted %d edges (max %d)", lg.M(), lim.MaxEdges)
			}
			if err != nil {
				t.Fatalf("limited parse accepted what unlimited rejected: %v", err)
			}
			if lg.Digest() != g.Digest() {
				t.Fatalf("limited and unlimited parses disagree: %s vs %s", lg.Digest(), g.Digest())
			}
		} else if err == nil {
			// Unlimited accepted, limited rejected: only a limit may be the
			// reason.
			var le *LimitError
			if !errors.As(lerr, &le) {
				t.Fatalf("limited parse rejected in-bounds input with %v", lerr)
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("rewrite of accepted input rejected: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: (%d,%d) vs (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}

// FuzzSubgraphSearch: on tiny random graphs, the symmetry-broken
// existence search must agree with the exhaustive (non-broken) counter.
func FuzzSubgraphSearch(f *testing.F) {
	f.Add(uint16(0x0F), uint16(0xFFFF))
	f.Add(uint16(0x3), uint16(0x0))
	f.Fuzz(func(t *testing.T, hMask, gMask uint16) {
		h := graphFromMask(4, uint32(hMask))
		g := graphFromMask(6, uint32(gMask))
		fast := ContainsSubgraph(h, g)
		slow := CountEmbeddings(h, g, 1) > 0
		if fast != slow {
			t.Fatalf("symmetry breaking changed existence: %v vs %v", fast, slow)
		}
	})
}

// graphFromMask builds a graph on n vertices whose edges are selected by
// the low bits of mask over the C(n,2) vertex pairs.
func graphFromMask(n int, mask uint32) *Graph {
	b := NewBuilder(n)
	bit := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if mask&(1<<uint(bit)) != 0 {
				b.AddEdge(i, j)
			}
			bit++
		}
	}
	return b.Build()
}
