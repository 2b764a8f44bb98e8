package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceReadEdgeListLimits is the map-backed edge-list parser that
// ReadEdgeListLimits replaced, kept verbatim as the differential oracle:
// per-line strings through strings.TrimSpace/strings.Fields/strconv.Atoi,
// a [][2]int edge buffer replayed through Builder (a HasEdge + AddEdge map
// operation per edge). Its only change is the final build, which goes
// through referenceBuild — the old Builder.Build — so the oracle shares
// no CSR code with the parser it checks.
func referenceReadEdgeListLimits(r io.Reader, lim Limits) (*Graph, error) {
	maxLine := lim.MaxLineBytes
	if maxLine <= 0 {
		maxLine = 1 << 20
	}
	sc := bufio.NewScanner(r)
	// The scanner's cap is max(maxLine, cap(initial buffer)), so the
	// initial buffer must not exceed the limit.
	bufSize := 64 * 1024
	if bufSize > maxLine {
		bufSize = maxLine
	}
	sc.Buffer(make([]byte, bufSize), maxLine)
	n := -1
	var edges [][2]int
	maxV := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "n" {
			if n >= 0 {
				return nil, &ParseError{Line: line, Msg: fmt.Sprintf("duplicate header %q", text)}
			}
			if len(fields) != 2 {
				return nil, &ParseError{Line: line, Msg: fmt.Sprintf("bad header %q", text)}
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, &ParseError{Line: line, Msg: fmt.Sprintf("bad header %q", text)}
			}
			if lim.MaxVertices > 0 && v > lim.MaxVertices {
				return nil, &LimitError{What: "vertices", Got: v, Max: lim.MaxVertices}
			}
			n = v
			continue
		}
		if len(fields) != 2 {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("bad edge %q", text)}
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("bad edge %q", text)}
		}
		if u < 0 || v < 0 {
			return nil, &ParseError{Line: line, Msg: "negative vertex"}
		}
		if u == v {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("self-loop %d", u)}
		}
		if lim.MaxEdges > 0 && len(edges) == lim.MaxEdges {
			return nil, &LimitError{What: "edges", Got: len(edges) + 1, Max: lim.MaxEdges}
		}
		if lim.MaxVertices > 0 && (u >= lim.MaxVertices || v >= lim.MaxVertices) {
			m := u
			if v > m {
				m = v
			}
			return nil, &LimitError{What: "vertices", Got: m + 1, Max: lim.MaxVertices}
		}
		edges = append(edges, [2]int{u, v})
		if u > maxV {
			maxV = u
		}
		if v > maxV {
			maxV = v
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &LimitError{What: "line bytes", Got: maxLine + 1, Max: maxLine}
		}
		return nil, err
	}
	if n < 0 {
		n = maxV + 1
	}
	if maxV >= n {
		return nil, &ParseError{Line: 0, Msg: fmt.Sprintf("vertex %d exceeds declared n=%d", maxV, n)}
	}
	b := NewBuilder(n)
	for _, e := range edges {
		if b.HasEdge(e[0], e[1]) {
			return nil, &ParseError{Line: 0, Msg: fmt.Sprintf("duplicate edge (%d,%d)", e[0], e[1])}
		}
		b.AddEdge(e[0], e[1])
	}
	return referenceBuild(b), nil
}

// referenceBuild is the map-walking Builder.Build that fromEdges replaced:
// two passes over the edge map in its random order, then a reflection-based
// sort of every row.
func referenceBuild(b *Builder) *Graph {
	g := &Graph{
		n:   b.n,
		m:   len(b.edges),
		off: make([]int32, b.n+1),
		csr: make([]int32, 2*len(b.edges)),
	}
	for e := range b.edges {
		g.off[e[0]+1]++
		g.off[e[1]+1]++
	}
	for v := 0; v < b.n; v++ {
		g.off[v+1] += g.off[v]
	}
	cursor := make([]int32, b.n)
	for e := range b.edges {
		u, w := e[0], e[1]
		g.csr[g.off[u]+cursor[u]] = w
		g.csr[g.off[w]+cursor[w]] = u
		cursor[u]++
		cursor[w]++
	}
	for v := 0; v < b.n; v++ {
		row := g.Neighbors(v)
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
	return g
}

// sameParse fails t unless the two parses made the same decision: both
// accepted with identical n, m and CSR arrays, or both rejected with
// errors of the same type and text.
func sameParse(t *testing.T, input string, g *Graph, err error, rg *Graph, rerr error) {
	t.Helper()
	if (err == nil) != (rerr == nil) {
		t.Fatalf("%q: parser error %v, reference error %v", input, err, rerr)
	}
	if err != nil {
		if reflect.TypeOf(err) != reflect.TypeOf(rerr) || err.Error() != rerr.Error() {
			t.Fatalf("%q: parser error %T %q, reference error %T %q", input, err, err, rerr, rerr)
		}
		return
	}
	off, csr := g.CSR()
	roff, rcsr := rg.CSR()
	if g.N() != rg.N() || g.M() != rg.M() || !slices.Equal(off, roff) || !slices.Equal(csr, rcsr) {
		t.Fatalf("%q: parser built %v, reference built %v (CSR differs)", input, g, rg)
	}
}

// starEdgeList is a 4096-edge star written hub-last, so every row but the
// hub's has one entry and the hub's has them all.
func starEdgeList() string {
	var b strings.Builder
	for v := 1; v <= 4096; v++ {
		fmt.Fprintf(&b, "%d 0\n", v)
	}
	return b.String()
}

// paddedEdge is the line "0 1" padded with spaces to width bytes, its
// '\n' not counted.
func paddedEdge(width int) string {
	return "0" + strings.Repeat(" ", width-2) + "1"
}

// lineBoundSeeds are inputs at the scanner's line bound: under each fuzz
// Limits' MaxLineBytes, a line one byte shorter than the bound (it fits
// with its '\n'), one as long as the bound and one a byte longer (too
// long), each alone and as the last line without a '\n', plus a line at
// the bound behind 30 short lines, so that it starts partway into the
// scanner's buffer.
func lineBoundSeeds() []string {
	var seeds []string
	for _, bound := range []int{fuzzTight.MaxLineBytes, 1 << 20} {
		for _, w := range []int{bound - 1, bound, bound + 1} {
			seeds = append(seeds, paddedEdge(w)+"\n", "2 3\n"+paddedEdge(w))
		}
		var b strings.Builder
		for i := 0; i < 30; i++ {
			fmt.Fprintf(&b, "%d %d\n", i, i+1)
		}
		seeds = append(seeds, b.String()+paddedEdge(bound)+"\n")
	}
	return seeds
}

// FuzzReadEdgeListReference: the byte-scanning parser and the map-backed
// reference it replaced agree on every input under both fuzz Limits — the
// same accept/reject decision, the same error type and text, and
// identical CSR arrays. Beyond the general seeds, some sit at the edges
// of the parser's "digits SP digits" fast path (field widths, separators,
// line ends) and some at the scanner's line bound (lineBoundSeeds).
func FuzzReadEdgeListReference(f *testing.F) {
	for _, s := range append([]string{
		"n 5\n0 1\n1 2\n",
		"0 1\n# comment\n\n2 3\n",
		"3 1\n1 3\n", // duplicate, reported as its second occurrence
		"0 1\n2 3\n1 0\n3 2\n",
		"+1 2\n",
		"007 8\n",
		"-0 1\n",
		"0\u00a01\n",               // no-break space between the fields
		"\u00a0# c\n0 1\n",         // comment behind a Unicode space
		"0 1\u0085\n",              // NEL is white space too
		"\u2003 0\u30001 \u2028\n", // non-Latin-1 spaces around an edge
		"0 1 \xff\n",
		"n 3\r\n0 1\r\n1 2\r\n",
		"0\t1\v\n\f2 \r3\n",
		"0 12345678901234567890\n",
		"12345678901234567890 0\n",
		"n 99999999999999999999\n",
		"0 1000000000\n",
		"0 999999999\n",
		"n\n",
		"n 4 4\n",
		"n 2\n0 5\n",
		"1 1\n",
		"0 x\n",
		"#\n",
		starEdgeList(),
		// The fast path's edges: nine- and ten-digit fields, leading
		// zeros, two spaces or a tab between the fields, CRLF line ends,
		// a last line without '\n'.
		"123456789 1\n",
		"1234567890 1\n",
		"1 123456789\n",
		"1 1234567890\n",
		"000000001 000000002\n",
		"0000000001 2\n",
		"1 0000000002\n",
		"00 01\n",
		"0  1\n",
		"0\t1\n",
		" 0 1\n",
		"0 1 \n",
		"0 1\r\n1 2\r\n",
		"0 1\n1 2",
		"0 1\r",
		"0 1\r\r\n",
		"0 1\n\r\n2 3",
	}, lineBoundSeeds()...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, lim := range []Limits{fuzzBig, fuzzTight} {
			g, err := ReadEdgeListLimits(strings.NewReader(input), lim)
			rg, rerr := referenceReadEdgeListLimits(strings.NewReader(input), lim)
			sameParse(t, input, g, err, rg, rerr)
		}
	})
}

// TestBuilderMatchesReferenceBuild: Builder.Build, now on fromEdges,
// produces the same CSR arrays as the map-walking build it replaced.
func TestBuilderMatchesReferenceBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i, g := range []*Graph{
		GNP(200, 0.1, rng), Star(50), Complete(9), Path(1), NewBuilder(0).Build(),
	} {
		b := g.Clone()
		got, want := b.Build(), referenceBuild(b)
		sameParse(t, fmt.Sprintf("graph %d", i), got, nil, want, nil)
	}
}

// countFreshEdgeList is the edge list a count-fresh upload sends: a
// relabelled GNP(2000, 40/(n-1)) in WriteEdgeList form, ~40k edges.
func countFreshEdgeList(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	const n = 2000
	g := Relabel(GNP(n, 40.0/(n-1), rng), rng.Perm(n))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkReadEdgeList(b *testing.B) {
	text := countFreshEdgeList(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadEdgeListAllocs pins the ingest's allocation count: a 40k-edge
// parse allocates for the scanner, the growing endpoint buffer and the
// graph's arrays, never per line or per edge.
func TestReadEdgeListAllocs(t *testing.T) {
	text := countFreshEdgeList(t)
	g, err := ReadEdgeList(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() < 38000 {
		t.Fatalf("fixture has %d edges, want ~40k", g.M())
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadEdgeList(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 64 {
		t.Fatalf("parsing %d edges made %.0f allocations, want < 64", g.M(), allocs)
	}
}

// writeEdgeListRef is WriteEdgeList as it was before it formatted into
// one buffer: an fmt.Fprintf per line. It is the reference the buffered
// writer must match byte for byte.
func writeEdgeListRef(w io.Writer, g *Graph) error {
	if _, err := fmt.Fprintf(w, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(w, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

// TestWriteEdgeListMatchesReference: WriteEdgeList writes the bytes
// writeEdgeListRef writes, on the digest golden family, on random graphs
// of 0–300 vertices (some spanning several of its buffer's fills) and on
// the churn shape, and ReadEdgeList reads them back to the same graph.
func TestWriteEdgeListMatchesReference(t *testing.T) {
	graphs := map[string]*Graph{"churn-shape": churnShape()}
	for name, build := range goldenFamily {
		graphs[name] = build()
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		n := rng.Intn(301)
		graphs[fmt.Sprintf("gnp-%d-%d", i, n)] = GNP(n, rng.Float64(), rng)
	}
	for name, g := range graphs {
		var got, want bytes.Buffer
		if err := WriteEdgeList(&got, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := writeEdgeListRef(&want, g); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s (%v): WriteEdgeList wrote %d bytes that differ from the reference's %d", name, g, got.Len(), want.Len())
		}
		back, err := ReadEdgeList(&got)
		if err != nil {
			t.Fatalf("%s: reading back: %v", name, err)
		}
		sameParse(t, name, back, nil, g, nil)
	}
}

// failingWriter accepts limit bytes and then fails every write.
type failingWriter struct{ limit int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errors.New("writer full")
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteEdgeListWriterError: a failing writer's error comes back,
// whether it fails on the first buffer fill, a middle one or the last.
func TestWriteEdgeListWriterError(t *testing.T) {
	g := churnShape()
	var all bytes.Buffer
	if err := writeEdgeListRef(&all, g); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 100 << 10, all.Len() - 1} {
		if err := WriteEdgeList(&failingWriter{limit}, g); err == nil || err.Error() != "writer full" {
			t.Errorf("limit %d: WriteEdgeList = %v, want the writer's error", limit, err)
		}
	}
}

func BenchmarkWriteEdgeList(b *testing.B) {
	g := churnShape()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := WriteEdgeList(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}
