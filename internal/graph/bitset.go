package graph

import (
	"fmt"
	"sync/atomic"
)

// Bitset adjacency: the word-parallel layout behind internal/kernel.
//
// Vertices are relabeled by degeneracy rank (DegeneracyRank), and the
// adjacency is stored in one of two forms chosen by size:
//
//   - dense: one row of []uint64 bit words per vertex, rows and bit
//     positions both indexed by rank. A neighborhood intersection is a
//     word-wise AND + popcount over 64 vertices at a time. Rows are
//     upper-triangular: every kernel read intersects above a rank, so
//     row r keeps only words [r/64, words) and only bits above r, which
//     halves the dense form's memory. The neighbors below r are bit r
//     of the rows before it.
//   - hybrid: above the dense memory budget, only the degeneracy-ordered
//     forward adjacency (higher-rank neighbors) is kept in CSR form. The
//     kernels pair it with per-worker n-bit scratch rows, marking one
//     forward neighborhood at a time — the Chiba–Nishizeki layout, bounded
//     by the degeneracy instead of n.
//
// Both forms describe the same graph; kernel results are pinned equal
// across them by tests and by the diffcheck kernel oracles.
//
// Once a kernel's first triangle count has recorded them, either form also
// carries its start edges (StartEdges), m bits in forward-CSR order: the
// forward edges (u, v) whose ends share at least two forward neighbours
// above v. The other s−2 vertices of a K_s (s ≥ 4) whose two lowest ranks
// are u < v lie in that set, so larger counts visit start edges alone.

// BitAdjacencyMode names the storage form a BitAdjacency chose.
type BitAdjacencyMode string

const (
	BitDense  BitAdjacencyMode = "dense"
	BitHybrid BitAdjacencyMode = "hybrid"
)

// denseWordBudget bounds the dense form's size (n × words-per-row uint64
// words, 16 MiB at the default): under it the n×n bit matrix fits
// comfortably in cache-adjacent memory; above it the hybrid form's
// O(m + n/64-per-worker) footprint wins. ~11.5k vertices at the boundary.
// The budget is stated for full rows, although the upper-triangular rows
// store only about half of them, so that the dense/hybrid choice (and
// with it every kernel's algorithm label) does not depend on the layout.
const denseWordBudget = 1 << 21

// BitAdjacency is an immutable rank-relabeled adjacency in bitset form.
// Build one per graph with NewBitAdjacency and share it freely: like
// Graph, it is never mutated after construction, except that a kernel
// publishes its start edges once.
type BitAdjacency struct {
	n     int
	m     int
	words int // uint64 words per full row: ceil(n/64)
	mode  BitAdjacencyMode

	order []int32 // order[r] = original vertex at rank r
	rank  []int32 // rank[v] = r
	degen int     // the degeneracy: the longest forward list

	// Dense form: rows[upperOffset(r, words):] starts the upper row of
	// rank r, words [r/64, words) of its neighborhood; bit q of the row
	// (q > r) is set iff {order[r], order[q]} is an edge. Nil in the
	// hybrid form.
	rows []uint64

	// Hybrid form: forward (higher-rank) neighbor ranks in CSR form,
	// ascending within each list. fwd always exists (the dense form keeps
	// it too — edge iteration walks it instead of scanning row words).
	fwdOff []int32
	fwd    []int32

	starts atomic.Pointer[[]uint64] // nil until SetStartEdges
}

// NewBitAdjacency builds the bitset adjacency for g in the form ModeFor
// picks for its size.
func NewBitAdjacency(g *Graph) *BitAdjacency {
	if ModeFor(g.n) == BitDense {
		return NewBitAdjacencyDense(g)
	}
	return NewBitAdjacencyHybrid(g)
}

// ModeFor is the storage form NewBitAdjacency chooses for n vertices:
// dense while n × ceil(n/64) words fit the memory budget, else hybrid.
func ModeFor(n int) BitAdjacencyMode {
	if n == 0 || n*((n+63)/64) <= denseWordBudget {
		return BitDense
	}
	return BitHybrid
}

// NewBitAdjacencyDense builds the dense form regardless of size, rows
// included. Tests and oracles use the explicit constructors to pin
// dense ≡ hybrid.
func NewBitAdjacencyDense(g *Graph) *BitAdjacency {
	b := newBitAdjacency(g, BitDense)
	b.rows = make([]uint64, upperOffset(b.n, b.words))
	for r := int32(0); int(r) < b.n; r++ {
		row := b.rows[upperOffset(int(r), b.words):]
		base := int(r) >> 6
		for _, q := range b.Forward(r) {
			row[int(q)>>6-base] |= 1 << (uint(q) & 63)
		}
	}
	return b
}

// upperOffset returns where rank r's upper row starts in the dense
// form's rows: each row i < r holds words - i/64 words.
func upperOffset(r, words int) int {
	a, b := r>>6, r&63
	return r*words - 32*a*(a-1) - a*b
}

// NewBitAdjacencyHybrid builds the hybrid form regardless of size.
func NewBitAdjacencyHybrid(g *Graph) *BitAdjacency {
	return newBitAdjacency(g, BitHybrid)
}

// newBitAdjacency computes the shared rank relabeling and the forward
// CSR both forms carry, both from one degeneracy peel.
func newBitAdjacency(g *Graph, mode BitAdjacencyMode) *BitAdjacency {
	order, rank, degen, fwdOff, fwd := g.peel(true)
	return &BitAdjacency{
		n:      g.n,
		m:      g.m,
		words:  (g.n + 63) / 64,
		mode:   mode,
		order:  order,
		rank:   rank,
		degen:  degen,
		fwdOff: fwdOff,
		fwd:    fwd,
	}
}

// N returns the vertex count.
func (b *BitAdjacency) N() int { return b.n }

// M returns the edge count.
func (b *BitAdjacency) M() int { return b.m }

// Words returns the uint64 words of a full n-bit row, ceil(N/64): the
// width of the kernels' scratch rows.
func (b *BitAdjacency) Words() int { return b.words }

// Mode reports which storage form was built.
func (b *BitAdjacency) Mode() BitAdjacencyMode { return b.mode }

// Degeneracy returns the graph's degeneracy, the longest forward list.
func (b *BitAdjacency) Degeneracy() int { return b.degen }

// Order returns the rank→vertex map. Callers must not modify it.
func (b *BitAdjacency) Order() []int32 { return b.order }

// Rank returns the vertex→rank map. Callers must not modify it.
func (b *BitAdjacency) Rank() []int32 { return b.rank }

// UpperRow returns the upper half of the rank-r vertex's dense row:
// words [r/64, Words()) of the n-bit neighborhood, so element i holds
// ranks 64·(r/64 + i) onward, with only the bits above r ever set. The
// neighbors below r are bit r of the rows before it. Callers must not
// modify it. It panics in hybrid mode: kernels branch on Mode() first.
func (b *BitAdjacency) UpperRow(r int32) []uint64 {
	if b.rows == nil {
		panic(fmt.Sprintf("graph: UpperRow(%d) on a %s BitAdjacency without rows", r, b.mode))
	}
	off := upperOffset(int(r), b.words)
	return b.rows[off : off+b.words-int(r)>>6]
}

// Forward returns the ascending ranks of the rank-r vertex's higher-rank
// neighbors (at most Degeneracy() of them). Callers must not modify it.
func (b *BitAdjacency) Forward(r int32) []int32 {
	return b.fwd[b.fwdOff[r]:b.fwdOff[r+1]]
}

// ForwardIndex returns the forward-CSR position of Forward(r)[0]: the
// edge numbering StartEdges uses. ForwardIndex(N()) is M().
func (b *BitAdjacency) ForwardIndex(r int32) int { return int(b.fwdOff[r]) }

// StartEdges returns the published start-edge set, if there is one: bit
// ForwardIndex(u)+i is set iff u and v = Forward(u)[i] share at least two
// forward neighbours above v. Callers must not modify it.
func (b *BitAdjacency) StartEdges() ([]uint64, bool) {
	if p := b.starts.Load(); p != nil {
		return *p, true
	}
	return nil, false
}

// SetStartEdges publishes set, (M()+63)/64 words, as the start-edge set
// unless one was published first, and reports whether it was. It is safe
// for concurrent use: the first caller wins.
func (b *BitAdjacency) SetStartEdges(set []uint64) bool {
	return b.starts.CompareAndSwap(nil, &set)
}
