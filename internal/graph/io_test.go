package graph

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GNP(20, 0.3, rng)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: %v vs %v", g2, g)
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestEdgeListCommentsAndBlankLines(t *testing.T) {
	in := "# a comment\n\nn 5\n0 1\n\n# another\n3 4\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 2 {
		t.Fatalf("parsed %v", g)
	}
}

func TestEdgeListWithoutHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 || g.M() != 2 {
		t.Fatalf("parsed %v", g)
	}
}

func TestEdgeListErrors(t *testing.T) {
	for name, in := range map[string]string{
		"self-loop":        "2 2\n",
		"negative":         "-1 2\n",
		"garbage":          "0 x\n",
		"trailing-garbage": "0 1 2\n",
		"duplicate":        "0 1\n1 0\n",
		"exceeds-header":   "n 2\n0 5\n",
		"bad-header":       "n x\n",
		"negative-header":  "n -3\n0 1\n",
		"double-header":    "n 5\nn 6\n0 1\n",
		"overflow":         "0 99999999999999999999999999\n",
	} {
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: accepted %q", name, in)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v is not a *ParseError", name, err)
		}
	}
}

// TestEdgeListLimits: the upload-path entry point rejects oversized input
// with *LimitError before allocating proportionally to the claim.
func TestEdgeListLimits(t *testing.T) {
	lim := Limits{MaxVertices: 100, MaxEdges: 3, MaxLineBytes: 64}
	cases := map[string]struct {
		in   string
		what string
	}{
		"header-vertices": {"n 101\n0 1\n", "vertices"},
		"edge-vertices":   {"0 500\n", "vertices"},
		"edges":           {"0 1\n0 2\n0 3\n0 4\n", "edges"},
		"line-bytes":      {"# " + strings.Repeat("x", 200) + "\n0 1\n", "line bytes"},
	}
	for name, tc := range cases {
		_, err := ReadEdgeListLimits(strings.NewReader(tc.in), lim)
		var le *LimitError
		if !errors.As(err, &le) {
			t.Errorf("%s: want *LimitError, got %v", name, err)
			continue
		}
		if le.What != tc.what {
			t.Errorf("%s: exceeded %q, want %q", name, le.What, tc.what)
		}
	}

	// Input inside every bound parses identically to the unlimited path.
	ok := "n 100\n0 1\n0 2\n0 3\n"
	g, err := ReadEdgeListLimits(strings.NewReader(ok), lim)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != g2.N() || g.M() != g2.M() || g.Digest() != g2.Digest() {
		t.Fatalf("limited parse differs from unlimited: %v vs %v", g, g2)
	}
}

// TestEdgeListHugeEdgeBound: an edge bound too large to double in an int
// bounds nothing rather than overflowing: the parse still grows its
// endpoint buffer and accepts the input.
func TestEdgeListHugeEdgeBound(t *testing.T) {
	for _, bound := range []int{math.MaxInt, math.MaxInt/2 + 1} {
		g, err := ReadEdgeListLimits(strings.NewReader("0 1\n1 2\n"), Limits{MaxEdges: bound})
		if err != nil || g.M() != 2 {
			t.Errorf("MaxEdges %d: parsed %v, %v; want 2 edges", bound, g, err)
		}
	}
}

// TestEdgeListIndexBeyondInt32: the CSR stores vertices as int32, so an
// index of 2^31-1 or more is rejected as a vertex limit whatever Limits
// say, before any array is sized from it.
func TestEdgeListIndexBeyondInt32(t *testing.T) {
	for _, tc := range []struct {
		in  string
		lim Limits
		got int
	}{
		{"0 3000000000\n", Limits{}, 3000000001},
		{"2147483647 0\n", Limits{}, math.MaxInt32 + 1},
		{"n 3000000000\n", Limits{}, 3000000000},
		{"0 3000000000\n", Limits{MaxVertices: math.MaxInt}, 3000000001},
	} {
		_, err := ReadEdgeListLimits(strings.NewReader(tc.in), tc.lim)
		var le *LimitError
		if !errors.As(err, &le) {
			t.Errorf("%q: want *LimitError, got %v", tc.in, err)
			continue
		}
		if le.What != "vertices" || le.Got != tc.got || le.Max != math.MaxInt32 {
			t.Errorf("%q: got %+v, want vertices %d > %d", tc.in, *le, tc.got, math.MaxInt32)
		}
	}
}

func TestEdgeListIsolatedVertices(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("n 10\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 {
		t.Fatalf("n=%d", g.N())
	}
}

// Property: write→read is the identity on random graphs.
func TestQuickEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(12, 0.4, rng)
		var buf bytes.Buffer
		if WriteEdgeList(&buf, g) != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil || g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		for _, e := range g.Edges() {
			if !g2.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
