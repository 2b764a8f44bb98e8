package graph

// Edge-delta codec for evolving graphs.
//
// An EdgeDelta is a batch of edge insertions and deletions against a
// base graph. Deltas are validated strictly — a delta that disagrees
// with the base graph's edge set is a client error, never silently
// reconciled — and applied atomically: ApplyDelta produces the complete
// successor graph (the base graph is immutable and untouched) plus the
// set of touched vertices, which is what the incremental detection
// kernels key their recounting on.
//
// Semantics: deletions apply to the base graph first, insertions to the
// result. An edge listed in both halves of one batch must therefore
// exist in the base (delete it, then re-insert it) — a net no-op for
// the edge set, but its endpoints still count as touched, because the
// conservative touched set is what keeps incremental recounting sound.

import (
	"fmt"
	"slices"
)

// Delta validation failure reasons (DeltaError.Reason). They are part
// of the serve wire contract: the delta endpoint surfaces them as the
// machine-readable "reason" field of its 4xx responses.
const (
	DeltaEdgeOutOfRange   = "edge_out_of_range"
	DeltaSelfLoop         = "self_loop"
	DeltaDuplicateEntry   = "duplicate_entry"
	DeltaDeleteMissing    = "delete_missing_edge"
	DeltaInsertExisting   = "insert_existing_edge"
	DeltaTooManyEdges     = "too_many_edges"
	DeltaEmptyInsertRange = "empty_graph" // insert into an n=0 graph
)

// DeltaError is a typed validation failure: which entry of the batch is
// wrong and why. The whole batch is rejected — deltas apply atomically
// or not at all.
type DeltaError struct {
	Reason string // one of the Delta* constants
	Op     string // "insert" or "delete"
	Edge   [2]int
}

func (e *DeltaError) Error() string {
	switch e.Reason {
	case DeltaEdgeOutOfRange:
		return fmt.Sprintf("delta: %s (%d,%d): endpoint out of range", e.Op, e.Edge[0], e.Edge[1])
	case DeltaSelfLoop:
		return fmt.Sprintf("delta: %s (%d,%d): self-loop", e.Op, e.Edge[0], e.Edge[1])
	case DeltaDuplicateEntry:
		return fmt.Sprintf("delta: %s (%d,%d): edge listed twice in the same batch half", e.Op, e.Edge[0], e.Edge[1])
	case DeltaDeleteMissing:
		return fmt.Sprintf("delta: delete (%d,%d): edge is not in the base graph", e.Edge[0], e.Edge[1])
	case DeltaInsertExisting:
		return fmt.Sprintf("delta: insert (%d,%d): edge already in the base graph (and not deleted in this batch)", e.Edge[0], e.Edge[1])
	case DeltaTooManyEdges:
		return fmt.Sprintf("delta: %s (%d,%d): resulting edge count exceeds the configured bound", e.Op, e.Edge[0], e.Edge[1])
	default:
		return fmt.Sprintf("delta: %s (%d,%d): %s", e.Op, e.Edge[0], e.Edge[1], e.Reason)
	}
}

// EdgeDelta is a batch of edge changes against a base graph. The vertex
// set is fixed: deltas mutate edges only, so the successor graph has the
// same N() and a digest determined entirely by the resulting edge set.
type EdgeDelta struct {
	Insert [][2]int
	Delete [][2]int
}

// Changes returns the number of edge changes the delta carries.
func (d EdgeDelta) Changes() int { return len(d.Insert) + len(d.Delete) }

// Empty reports whether the delta carries no changes.
func (d EdgeDelta) Empty() bool { return d.Changes() == 0 }

// ChurnRatio is the delta's size relative to the base graph's edge
// count — the quantity the serve layer compares against its incremental
// fallback threshold. A base graph with no edges reports 1 for any
// non-empty delta.
func (d EdgeDelta) ChurnRatio(base *Graph) float64 {
	if d.Changes() == 0 {
		return 0
	}
	if base.M() == 0 {
		return 1
	}
	return float64(d.Changes()) / float64(base.M())
}

// Validate checks the delta against the base graph without applying it:
// endpoints in range, no self-loops, no duplicate entries within either
// half, every deletion present in the base, and every insertion absent
// from the base unless the same batch deletes it first. The first
// offending entry is reported as a *DeltaError.
func (d EdgeDelta) Validate(base *Graph) error {
	_, _, err := d.check(base)
	return err
}

// check validates and returns the normalized delete/insert sets.
func (d EdgeDelta) check(base *Graph) (del, ins map[[2]int32]struct{}, err error) {
	n := base.N()
	del = make(map[[2]int32]struct{}, len(d.Delete))
	for _, e := range d.Delete {
		u, v := e[0], e[1]
		if u == v {
			return nil, nil, &DeltaError{Reason: DeltaSelfLoop, Op: "delete", Edge: e}
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, nil, &DeltaError{Reason: DeltaEdgeOutOfRange, Op: "delete", Edge: e}
		}
		key := normEdge(u, v)
		if _, dup := del[key]; dup {
			return nil, nil, &DeltaError{Reason: DeltaDuplicateEntry, Op: "delete", Edge: e}
		}
		if !base.HasEdge(u, v) {
			return nil, nil, &DeltaError{Reason: DeltaDeleteMissing, Op: "delete", Edge: e}
		}
		del[key] = struct{}{}
	}
	ins = make(map[[2]int32]struct{}, len(d.Insert))
	for _, e := range d.Insert {
		u, v := e[0], e[1]
		if u == v {
			return nil, nil, &DeltaError{Reason: DeltaSelfLoop, Op: "insert", Edge: e}
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, nil, &DeltaError{Reason: DeltaEdgeOutOfRange, Op: "insert", Edge: e}
		}
		key := normEdge(u, v)
		if _, dup := ins[key]; dup {
			return nil, nil, &DeltaError{Reason: DeltaDuplicateEntry, Op: "insert", Edge: e}
		}
		if _, deleted := del[key]; !deleted && base.HasEdge(u, v) {
			return nil, nil, &DeltaError{Reason: DeltaInsertExisting, Op: "insert", Edge: e}
		}
		ins[key] = struct{}{}
	}
	return del, ins, nil
}

// DeltaResult is the outcome of applying a validated delta.
type DeltaResult struct {
	// Graph is the successor graph. For an empty delta it is the base
	// graph itself (no copy; graphs are immutable).
	Graph *Graph
	// Touched lists every vertex incident to a changed edge, ascending
	// and deduplicated. Endpoints of a delete+re-insert pair are
	// included: the touched set is deliberately conservative.
	Touched []int32
	// Inserted and Deleted count the applied changes.
	Inserted, Deleted int
}

// ApplyDelta validates d against base and produces the successor graph.
// The base graph is never modified; callers key the result by its own
// Digest(). Validation failures return a *DeltaError and a nil result.
//
// Construction is a direct CSR patch, not a rebuild: untouched vertices'
// neighbor segments are block-copied from the base and only the rows of
// touched vertices are merged, so the cost is O(n + m) of memcpy plus
// O(changes · deg) of merging — an order of magnitude cheaper than
// re-inserting every edge through a Builder. The result is byte-identical
// to a from-scratch Build of the same edge set (sorted rows, same digest);
// the delta-vs-scratch oracle pins that equivalence. A child of a digested
// base copies its block sums (it keeps no reference to base), and its
// first Digest rehashes only the blocks that hold changed edges.
func ApplyDelta(base *Graph, d EdgeDelta) (*DeltaResult, error) {
	del, ins, err := d.check(base)
	if err != nil {
		return nil, err
	}
	if len(del) == 0 && len(ins) == 0 {
		return &DeltaResult{Graph: base, Touched: nil}, nil
	}
	// Per-vertex change lists. Only touched vertices appear as keys.
	delNbr := make(map[int32][]int32, 2*len(del))
	insNbr := make(map[int32][]int32, 2*len(ins))
	tv := make([]int32, 0, 2*(len(del)+len(ins)))
	for key := range del {
		delNbr[key[0]] = append(delNbr[key[0]], key[1])
		delNbr[key[1]] = append(delNbr[key[1]], key[0])
		tv = append(tv, key[0], key[1])
	}
	for key := range ins {
		insNbr[key[0]] = append(insNbr[key[0]], key[1])
		insNbr[key[1]] = append(insNbr[key[1]], key[0])
		tv = append(tv, key[0], key[1])
	}
	slices.Sort(tv)
	tv = slices.Compact(tv)

	m2 := base.m - len(del) + len(ins)
	ng := &Graph{
		n:   base.n,
		m:   m2,
		off: make([]int32, base.n+1),
		csr: make([]int32, 2*m2),
	}
	patchRows(ng.off, ng.csr, base.off, base.csr, tv, func(t int32, row []int32) int32 {
		dels, insv, src := delNbr[t], insNbr[t], base.Neighbors(int(t))
		k := len(src) + len(insv) - len(dels)
		mergeRow(row[:k], src, dels, insv)
		return int32(k)
	})
	ng.dig.sums, ng.dig.dirty = base.patchedSums(del, ins)
	return &DeltaResult{
		Graph:    ng,
		Touched:  tv,
		Inserted: len(ins),
		Deleted:  len(del),
	}, nil
}

// patchRows fills the CSR (off, dst) from the CSR (srcOff, src), row by
// row: each row not in rows (ascending, distinct) is copied from src, a
// run of them in one block whose offsets move by a running shift, and
// each row t in rows is written by fill, which gets dst from off[t] on and
// returns the row's length. The work is one memmove of the untouched rows
// plus the offsets, with no per-row lookup.
func patchRows(off, dst, srcOff, src, rows []int32, fill func(t int32, row []int32) int32) {
	var shift int32 // off[v] - srcOff[v] inside the current run
	lo := int32(0)
	copyRun := func(hi int32) {
		copy(dst[srcOff[lo]+shift:], src[srcOff[lo]:srcOff[hi]])
		for v := lo + 1; v <= hi; v++ {
			off[v] = srcOff[v] + shift
		}
	}
	for _, t := range rows {
		copyRun(t)
		off[t+1] = off[t] + fill(t, dst[off[t]:])
		shift = off[t+1] - srcOff[t+1]
		lo = t + 1
	}
	copyRun(int32(len(off) - 1))
}

// mergeRow writes src minus dels, merged in sorted order with insv, into
// dst. Validation guarantees dels ⊆ src and insv ∩ (src∖dels) = ∅; a
// delete+re-insert pair may put the same neighbor in both lists.
func mergeRow(dst, src, dels, insv []int32) {
	slices.Sort(dels)
	slices.Sort(insv)
	k, di, ii := 0, 0, 0
	for _, w := range src {
		if di < len(dels) && dels[di] == w {
			di++
			continue
		}
		for ii < len(insv) && insv[ii] < w {
			dst[k] = insv[ii]
			k++
			ii++
		}
		dst[k] = w
		k++
	}
	for ; ii < len(insv); ii++ {
		dst[k] = insv[ii]
		k++
	}
	if k != len(dst) {
		panic(fmt.Sprintf("graph: delta row merge wrote %d of %d entries", k, len(dst)))
	}
}

// CycleDirtyCheck decides whether the child graph contains the cycle
// C_L by re-examining only the dirty region around the delta, given
// whether the parent contains C_L. ok=false means the incremental rules
// do not apply (the parent contained the cycle and the delta deletes
// edges, so the witness may be gone) and the caller must fall back to a
// full check on the child.
//
// The rules are exact, not heuristic:
//
//   - parent has C_L and the delta deletes nothing → the witness
//     survives: child has C_L.
//   - parent has no C_L → every C_L of the child uses at least one
//     inserted edge, so it lies within distance L-1 of an insert
//     endpoint; deciding containment on the induced ball of radius L-1
//     around the insert endpoints is equivalent to deciding it on the
//     whole child.
func CycleDirtyCheck(child *Graph, d EdgeDelta, L int, parentHas bool) (has, ok bool) {
	if parentHas {
		if len(d.Delete) == 0 {
			return true, true
		}
		return false, false
	}
	if len(d.Insert) == 0 {
		// No parent cycle and nothing inserted: deletions cannot create one.
		return false, true
	}
	seeds := make([]int, 0, 2*len(d.Insert))
	for _, e := range d.Insert {
		seeds = append(seeds, e[0], e[1])
	}
	ball := ballAround(child, seeds, L-1)
	sub, _ := child.InducedSubgraph(func(v int) bool { return ball[v] })
	return ContainsSubgraph(Cycle(L), sub), true
}

// ballAround marks every vertex within the given hop distance of any
// seed (multi-source BFS).
func ballAround(g *Graph, seeds []int, radius int) []bool {
	in := make([]bool, g.N())
	dist := make([]int, g.N())
	queue := make([]int, 0, len(seeds))
	for _, s := range seeds {
		if s >= 0 && s < g.N() && !in[s] {
			in[s] = true
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] >= radius {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if !in[w] {
				in[w] = true
				dist[w] = dist[v] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return in
}
