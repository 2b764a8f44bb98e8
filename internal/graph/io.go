package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Plain edge-list serialization: one "u v" pair per line, '#' comments and
// blank lines ignored; the vertex count is max index + 1 unless a header
// line "n <count>" pins it (isolated trailing vertices need the header).
// Used by the CLI tools to load and dump topologies, and by the serve
// layer's upload endpoint — the parser therefore treats its input as
// untrusted: every malformed or oversized input is rejected with a typed
// error (*ParseError / *LimitError), never a panic, and ReadEdgeListLimits
// bounds the memory a hostile upload can make it allocate.

// ParseError reports malformed edge-list input with its line number.
type ParseError struct {
	// Line is the 1-based input line the error was detected on (0 when the
	// error is not attributable to a single line, e.g. a truncated stream).
	Line int
	// Msg describes the problem.
	Msg string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("graph: line %d: %s", e.Line, e.Msg)
	}
	return "graph: " + e.Msg
}

// LimitError reports input that exceeds a ReadEdgeListLimits bound. It is
// distinct from ParseError so servers can map it to 413 rather than 400.
type LimitError struct {
	// What names the exceeded bound: "vertices", "edges", or "line bytes".
	What string
	// Got and Max are the offending value and the configured bound.
	Got, Max int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("graph: input exceeds %s limit: %d > %d", e.What, e.Got, e.Max)
}

// Limits bounds what ReadEdgeListLimits will accept from untrusted input.
// Zero fields mean "no bound" for that dimension.
type Limits struct {
	// MaxVertices caps the declared or inferred vertex count (bounds the
	// builder's O(n) allocations).
	MaxVertices int
	// MaxEdges caps the number of edge lines (bounds the edge buffer).
	MaxEdges int
	// MaxLineBytes caps a single line's length (bounds the scanner buffer;
	// default 1 MiB when unset — the permissive ReadEdgeList default).
	MaxLineBytes int
}

// WriteEdgeList writes g in edge-list format with an "n" header, each
// edge (u, v) with u < v on its own line in ascending order. The lines are
// formatted into one reused 32 KiB buffer, written whenever it fills.
func WriteEdgeList(w io.Writer, g *Graph) error {
	buf := strconv.AppendInt(append(make([]byte, 0, 32<<10), "n "...), int64(g.n), 10)
	buf = append(buf, '\n')
	for u := 0; u < g.n; u++ {
		row := g.Neighbors(u)
		i, _ := slices.BinarySearch(row, int32(u)+1) // the first w > u
		for _, v := range row[i:] {
			if len(buf) > cap(buf)-len("2147483647 2147483647\n") {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = strconv.AppendInt(append(strconv.AppendInt(buf, int64(u), 10), ' '), int64(v), 10)
			buf = append(buf, '\n')
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadEdgeList parses the format written by WriteEdgeList (duplicate
// edges are rejected; self-loops are an error). It applies no size limits
// beyond a 1 MiB line cap — use ReadEdgeListLimits for untrusted input.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListLimits(r, Limits{})
}

// ReadEdgeListLimits parses an edge list from untrusted input under the
// given limits. All rejections are typed: *ParseError for malformed input,
// *LimitError for oversized input, or the reader's own error. Vertex
// indices must fit the int32 CSR whatever the limits: a vertex count above
// math.MaxInt32 is a *LimitError even when MaxVertices is unset.
//
// The parse is one pass over runs of whole lines (scanLines). A "digits
// SP digits" line is parsed where it lies (parsePair), any other through
// the general field split. Endpoints go to one flat buffer that doubles,
// never beyond MaxEdges, and the CSR is built from it directly
// (fromEdges). A well-formed input allocates the scanner buffer, the
// endpoint buffer and the graph, nothing per line.
func ReadEdgeListLimits(r io.Reader, lim Limits) (*Graph, error) {
	maxLine := lim.MaxLineBytes
	if maxLine <= 0 {
		maxLine = 1 << 20
	}
	maxVerts := lim.MaxVertices
	if maxVerts <= 0 || maxVerts > math.MaxInt32 {
		maxVerts = math.MaxInt32
	}
	sc := bufio.NewScanner(r)
	// The scanner's cap is max(maxLine, cap(initial buffer)), so the
	// initial buffer must not exceed the limit.
	bufSize := 64 * 1024
	if bufSize > maxLine {
		bufSize = maxLine
	}
	sc.Buffer(make([]byte, bufSize), maxLine)
	sc.Split(scanLines)
	maxEnds := math.MaxInt
	if lim.MaxEdges > 0 && lim.MaxEdges <= math.MaxInt/2 {
		maxEnds = 2 * lim.MaxEdges
	}
	// Endpoints in input order, two per edge, in a buffer that doubles.
	ends := make([]int32, 0, min(maxEnds, 1<<12))
	n := -1
	maxV := -1
	line := 0
	var fields [3][]byte
	for sc.Scan() {
		for run := sc.Bytes(); len(run) > 0; {
			line++
			u, v, rest, ok := parsePair(run)
			run = rest
			if !ok {
				var text []byte
				text, run, _ = bytes.Cut(run, []byte{'\n'})
				text = bytes.TrimSuffix(text, []byte{'\r'})
				nf := splitFields(text, &fields)
				if nf == 0 || fields[0][0] == '#' {
					continue
				}
				if len(fields[0]) == 1 && fields[0][0] == 'n' {
					if n >= 0 {
						return nil, &ParseError{Line: line, Msg: fmt.Sprintf("duplicate header %q", lineText(text))}
					}
					h, ok := atoi(fields[1]) // a stale field when nf != 2, refused below
					if nf != 2 || !ok || h < 0 {
						return nil, &ParseError{Line: line, Msg: fmt.Sprintf("bad header %q", lineText(text))}
					}
					if h > maxVerts {
						return nil, &LimitError{What: "vertices", Got: h, Max: maxVerts}
					}
					n = h
					continue
				}
				var ok1, ok2 bool
				u, ok1 = atoi(fields[0])
				v, ok2 = atoi(fields[1]) // as in the header
				if nf != 2 || !ok1 || !ok2 {
					return nil, &ParseError{Line: line, Msg: fmt.Sprintf("bad edge %q", lineText(text))}
				}
				if u < 0 || v < 0 {
					return nil, &ParseError{Line: line, Msg: "negative vertex"}
				}
			}
			if u == v {
				return nil, &ParseError{Line: line, Msg: fmt.Sprintf("self-loop %d", u)}
			}
			if len(ends) == maxEnds {
				return nil, &LimitError{What: "edges", Got: lim.MaxEdges + 1, Max: lim.MaxEdges}
			}
			if u >= maxVerts || v >= maxVerts {
				return nil, &LimitError{What: "vertices", Got: max(u, v) + 1, Max: maxVerts}
			}
			if len(ends) == cap(ends) {
				ends = slices.Grow(ends, min(len(ends), maxEnds-len(ends)))
			}
			ends = append(ends, int32(u), int32(v))
			maxV = max(maxV, u, v)
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
	g, dup := fromEdges(n, ends)
	if dup {
		u, v := firstDuplicate(ends)
		return nil, &ParseError{Line: 0, Msg: fmt.Sprintf("duplicate edge (%d,%d)", u, v)}
	}
	return g, nil
}

// scanLines is the parser's bufio.SplitFunc: a token is every whole line
// the buffer holds, or at end of input what is left. It asks for more data
// exactly when bufio.ScanLines would, so ErrTooLong fires on the same inputs.
func scanLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line into white-space separated fields exactly as
// strings.Fields does, keeping the first three in f and returning how many
// it kept: a third field only matters as "more than two". ASCII lines are
// split in place; a line holding a byte ≥ 0x80 is split by bytes.Fields,
// which applies the same Unicode white-space rules as strings.Fields.
func splitFields(line []byte, f *[3][]byte) int {
	nf := 0
	for i := 0; i < len(line) && nf < len(f); {
		c := line[i]
		if c >= utf8.RuneSelf {
			return copy(f[:], bytes.Fields(line))
		}
		if asciiSpace[c] {
			i++
			continue
		}
		start := i
		for i < len(line) && line[i] < utf8.RuneSelf && !asciiSpace[line[i]] {
			i++
		}
		f[nf] = line[start:i]
		nf++
	}
	return nf
}

// atoi parses a field as strconv.Atoi does. Plain digit strings of up to
// nine digits (every int32 vertex index but the largest) are parsed in
// place; anything else — a sign, a longer number, a stray byte — goes
// through strconv.Atoi itself.
func atoi(b []byte) (int, bool) {
	if v, n := leadingDigits(b); n == len(b) && n > 0 && n <= 9 {
		return v, true
	}
	v, err := strconv.Atoi(string(b))
	return v, err == nil
}

// lineText is the trimmed line an error message quotes. Only error paths
// call it, so only they pay for the string.
func lineText(line []byte) string {
	return strings.TrimSpace(string(line))
}

// firstDuplicate returns the first edge of ends, in input order, whose
// unordered pair appeared earlier. fromEdges only says that one exists;
// this slower scan runs on that error path alone, so the error can name
// the first repeat in input order.
func firstDuplicate(ends []int32) (u, v int32) {
	seen := make(map[[2]int32]struct{}, len(ends)/2)
	for i := 0; i < len(ends); i += 2 {
		u, v = ends[i], ends[i+1]
		key := normEdge(int(u), int(v))
		if _, ok := seen[key]; ok {
			return u, v
		}
		seen[key] = struct{}{}
	}
	panic("graph: firstDuplicate on an edge list without duplicates")
}

// parsePair parses the line run starts with if it is "digits SP digits",
// each field one to nine digits, ended by '\n', "\r\n", '\r' or the end
// of run, and returns what follows it; otherwise ok is false.
func parsePair(run []byte) (u, v int, rest []byte, ok bool) {
	u, i := leadingDigits(run)
	if i == 0 || i > 9 || i == len(run) || run[i] != ' ' {
		return 0, 0, run, false
	}
	v, j := leadingDigits(run[i+1:])
	if j == 0 || j > 9 {
		return 0, 0, run, false
	}
	rest = run[i+1+j:]
	if len(rest) > 0 && rest[0] == '\r' {
		rest = rest[1:]
	}
	switch {
	case len(rest) == 0:
		return u, v, nil, true
	case rest[0] == '\n':
		return u, v, rest[1:], true
	}
	return 0, 0, run, false
}

// leadingDigits returns the length of the run of ASCII digits b starts
// with and, when that is at most nine digits, their value.
func leadingDigits(b []byte) (v, n int) {
	for ; n < len(b); n++ {
		d := b[n] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int(d)
	}
	return v, n
}
