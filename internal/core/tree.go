package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// Tree detection by representative families (Korhonen–Rybicki,
// "Deterministic subgraph detection in broadcast CONGEST"; the
// constant-round regime of [12]). Root the k-vertex pattern T at a centre
// and write T_x for the subtree under x. Bottom-up, every node v keeps,
// for each non-leaf pattern vertex x, a (k−|T_x|)-representative family of
// the ID sets of embeddings of T_x that map x to v: whenever some such
// embedding avoids a set Y of at most k−|T_x| IDs, a kept one avoids Y
// too. Joining representative families of x's children at v's neighbours
// therefore loses no copy of T, and v roots a copy of T iff its family for
// the root is non-empty. The answer is exact and deterministic.
//
// A family is built by Monien's branching: keep the first set that avoids
// Y (starting from Y = ∅), then branch on each of its IDs, Y growing by
// one, until |Y| = k−|T_x|. Every set holds v and no Y needs to, so the
// branching skips v and keeps at most Σ_{i≤q} (p−1)^i sets for p = |T_x|
// and q = k−p. Each node streams its non-root families one set per round,
// each followed by an end marker, so the round cap depends on the pattern
// alone, never on n. Leaf families cost nothing: a node knows its
// neighbours' IDs.

// treeRoundCap saturates the declared round cap of large patterns. It
// leaves room for congest.WrapResilient's stretch factor.
const treeRoundCap = 1 << 30

// TreeConfig configures the tree detector.
type TreeConfig struct {
	Exec
	// Tree is the pattern; it must be a tree (connected, acyclic).
	Tree *graph.Graph
}

// TreeReport is the outcome of the tree detector.
type TreeReport struct {
	Outcome
	// MaxRounds is the declared round cap, a function of the pattern
	// alone.
	MaxRounds int
}

// treePlan is the pattern rooted at a centre, and the order in which every
// node streams its non-root families.
type treePlan struct {
	k, idBits int
	root      int
	size      []int   // size[x] = |T_x|
	children  [][]int // non-leaf children, larger subtrees first
	leaves    []int   // number of leaf children
	stream    []int   // non-root, non-leaf pattern vertices in post-order
	slot      []int   // slot[x] = index of a streamed x in stream
	// need[j] is how many families every neighbour must have ended before
	// a node computes stream[j]; need[len(stream)] is the root's.
	need      []int
	end       bitio.BitString
	maxRounds int
	// ctx carries the run's deadline (nil = none); stopped records that
	// some node abandoned a family because ctx expired.
	ctx     context.Context
	stopped atomic.Bool
}

func newTreePlan(tr *graph.Graph, idBits int) *treePlan {
	k := tr.N()
	p := &treePlan{k: k, idBits: idBits, size: make([]int, k), children: make([][]int, k),
		leaves: make([]int, k), slot: make([]int, k), end: bitio.Uint(0, 1)}
	for v, ecc := 0, k; v < k; v++ {
		if e := slices.Max(tr.BFS(v)); e < ecc {
			p.root, ecc = v, e
		}
	}
	var walk func(x, parent int)
	walk = func(x, parent int) {
		need := 0
		for _, y := range tr.Neighbors(x) {
			if y := int(y); y != parent {
				walk(y, x)
				p.size[x] += p.size[y]
				if p.size[y] == 1 {
					p.leaves[x]++
				} else {
					p.children[x] = append(p.children[x], y)
					need = p.slot[y] + 1
				}
			}
		}
		p.size[x]++
		slices.SortStableFunc(p.children[x], func(a, b int) int { return p.size[b] - p.size[a] })
		if x != p.root && p.size[x] > 1 {
			p.slot[x] = len(p.stream)
			p.stream = append(p.stream, x)
		}
		if x == p.root || p.size[x] > 1 {
			p.need = append(p.need, need)
		}
	}
	walk(p.root, -1)
	p.maxRounds = 2
	for _, x := range p.stream {
		p.maxRounds = min(p.maxRounds+branchBound(p.size[x]-1, k-p.size[x])+1, treeRoundCap)
	}
	return p
}

// branchBound is Σ_{i≤q} b^i, the most sets the branching keeps when it
// branches b ways to depth q, saturating at treeRoundCap.
func branchBound(b, q int) int {
	sum, term := 0, 1
	for i := 0; i <= q && sum < treeRoundCap; i++ {
		sum += term
		term *= b
	}
	return min(sum, treeRoundCap)
}

// treeNode is the per-node program: it streams its families for stream[0],
// stream[1], … in turn, computing each once every neighbour has ended the
// families it joins, then decides on its root family and halts.
type treeNode struct {
	plan *treePlan
	self congest.NodeID
	nbrs []congest.NodeID
	got  [][]congest.NodeID // got[i*len(stream)+j]: neighbour i's family for stream[j]
	ends []int              // end markers received from each neighbour
	next int                // index in stream of the family being sent
	out  []congest.NodeID   // that family, once computed
	sent int                // its sets sent so far; -1 until computed
	work int                // branching steps since the clock was last read
	dead bool               // the deadline passed while building a family
}

func (tn *treeNode) Init(env *congest.Env) {
	tn.self, tn.nbrs, tn.sent = env.ID(), env.Neighbors(), -1
	tn.got = make([][]congest.NodeID, len(tn.nbrs)*len(tn.plan.stream))
	tn.ends = make([]int, len(tn.nbrs))
}

func (tn *treeNode) Round(env *congest.Env, inbox []congest.Message) {
	p := tn.plan
	for _, m := range inbox {
		tn.absorb(m)
	}
	if tn.next < len(p.stream) {
		x := p.stream[tn.next]
		if tn.sent < 0 {
			if !tn.heard(p.need[tn.next]) {
				return
			}
			if tn.out, tn.sent = tn.family(x), 0; tn.dead {
				return
			}
		}
		if w := p.size[x]; tn.sent*w < len(tn.out) {
			msg := bitio.NewWriter()
			msg.WriteBit(1)
			for _, id := range tn.out[tn.sent*w : (tn.sent+1)*w] {
				msg.WriteUint(uint64(id), p.idBits)
			}
			env.Broadcast(msg.BitString())
			tn.sent++
			return
		}
		env.Broadcast(p.end)
		tn.next, tn.sent = tn.next+1, -1
		if tn.next < len(p.stream) {
			return
		}
	}
	if !tn.heard(p.need[len(p.stream)]) {
		return
	}
	if root := tn.family(p.root); tn.dead {
		return
	} else if len(root) > 0 {
		env.Reject()
	}
	env.Halt()
}

// expired reports whether the run's deadline has passed, reading it once
// per 1024 branching steps; once true it stays true and every family
// computation unwinds without sending.
func (tn *treeNode) expired() bool {
	if tn.work++; tn.dead || tn.plan.ctx == nil || tn.work&1023 != 0 {
		return tn.dead
	}
	if tn.plan.ctx.Err() != nil {
		tn.dead = true
		tn.plan.stopped.Store(true)
	}
	return tn.dead
}

// absorb files a message under the family its sender is streaming. A
// payload of the wrong shape (corrupted in flight) is dropped.
func (tn *treeNode) absorb(m congest.Message) {
	p := tn.plan
	i, ok := slices.BinarySearch(tn.nbrs, m.From)
	if !ok || tn.ends[i] == len(p.stream) {
		return
	}
	j, s := tn.ends[i], m.Payload
	w := p.size[p.stream[j]]
	switch {
	case s.Len() == 1 && s.Bit(0) == 0:
		tn.ends[i]++
	case s.Len() == 1+w*p.idBits && s.Bit(0) == 1:
		r := bitio.NewReader(s)
		r.ReadBit()
		for n := 0; n < w; n++ {
			id, _ := r.ReadUint(p.idBits)
			tn.got[i*len(p.stream)+j] = append(tn.got[i*len(p.stream)+j], congest.NodeID(id))
		}
	}
}

// heard reports whether every neighbour has ended its first n families.
func (tn *treeNode) heard(n int) bool {
	for _, e := range tn.ends {
		if e < n {
			return false
		}
	}
	return true
}

// family computes this node's (k−|T_x|)-representative family for x:
// sorted ID sets of size |T_x|, flat. It joins x's non-leaf children one
// at a time, then all leaf children at once, keeping after each join only
// a family that represents what the remaining joins and the rest of the
// pattern can still need.
func (tn *treeNode) family(x int) []congest.NodeID {
	p := tn.plan
	acc, w := []congest.NodeID{tn.self}, 1
	for _, y := range p.children[x] {
		j, bw := p.slot[y], p.size[y]
		acc = tn.extend(acc, w, w+bw, func(a, avoid, dst []congest.NodeID) bool {
			for i, u := range tn.nbrs {
				if tn.expired() {
					return false
				}
				if slices.Contains(a, u) || slices.Contains(avoid, u) {
					continue
				}
				fam := tn.got[i*len(p.stream)+j]
				for b := 0; b < len(fam) && !tn.expired(); b += bw {
					if set := fam[b : b+bw]; !overlaps(set, a) && !overlaps(set, avoid) {
						merge(dst, a, set)
						return true
					}
				}
			}
			return false
		})
		w += bw
	}
	if l := p.leaves[x]; l > 0 {
		pick := make([]congest.NodeID, 0, l)
		acc = tn.extend(acc, w, w+l, func(a, avoid, dst []congest.NodeID) bool {
			pick = pick[:0]
			for _, u := range tn.nbrs {
				if len(pick) == l {
					break
				}
				if !slices.Contains(a, u) && !slices.Contains(avoid, u) {
					pick = append(pick, u)
				}
			}
			if len(pick) < l {
				return false
			}
			merge(dst, a, pick)
			return true
		})
	}
	return acc
}

// extend is Monien's branching over the sets A ∪ B with A in acc (sets of
// aw IDs) and B any set find can add to A: find writes A ∪ B into dst for
// some B disjoint from A and avoid, or reports that none exists. The
// result (k−w)-represents all such sets of w IDs that avoid this node.
// Kept sets are indexed by a hash. Two sets that collide are both kept:
// a repeated set costs a round but never a copy, and each branch visit
// still keeps at most one set, so the family stays within its bound.
func (tn *treeNode) extend(acc []congest.NodeID, aw, w int, find func(a, avoid, dst []congest.NodeID) bool) []congest.NodeID {
	q := tn.plan.k - w
	var out []congest.NodeID
	set := make([]congest.NodeID, w)
	avoid := make([]congest.NodeID, 0, q)
	seen := make(map[uint64]int)
	var branch func()
	branch = func() {
		ok := false
		for a := 0; a < len(acc) && !ok && !tn.expired(); a += aw {
			ok = !overlaps(acc[a:a+aw], avoid) && find(acc[a:a+aw], avoid, set)
		}
		if !ok {
			return
		}
		h := uint64(14695981039346656037) // FNV-1a over the IDs
		for _, id := range set {
			h = (h ^ uint64(id)) * 1099511628211
		}
		at, dup := seen[h]
		if !dup || !slices.Equal(out[at:at+w], set) {
			at = len(out)
			seen[h] = at
			out = append(out, set...)
		}
		if len(avoid) == q {
			return
		}
		for i := 0; i < w; i++ {
			if e := out[at+i]; e != tn.self {
				avoid = append(avoid, e)
				branch()
				avoid = avoid[:len(avoid)-1]
			}
		}
	}
	branch()
	return out
}

// merge writes the sorted union of the disjoint sorted sets a and b to dst.
func merge(dst, a, b []congest.NodeID) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && a[i] < b[j]) {
			dst[k], i = a[i], i+1
		} else {
			dst[k], j = b[j], j+1
		}
	}
}

func overlaps(a, b []congest.NodeID) bool {
	for _, x := range a {
		if slices.Contains(b, x) {
			return true
		}
	}
	return false
}

// DetectTree runs the representative-family tree detector on nw. It is
// deterministic and exact. Families are sets of identifiers, so a network
// with duplicate identifiers is refused. One family can take up to
// Σ (p−1)^q branching steps inside a single round, so Deadline also bounds
// the work inside a round: a run cut mid-family returns its partial report
// with an error wrapping context.DeadlineExceeded.
func DetectTree(nw *congest.Network, cfg TreeConfig) (*TreeReport, error) {
	if cfg.Tree == nil || !cfg.Tree.IsTree() {
		return nil, fmt.Errorf("core: pattern is not a tree")
	}
	if !nw.UniqueIDs() {
		return nil, fmt.Errorf("core: tree detection needs unique identifiers")
	}
	plan := newTreePlan(cfg.Tree, nw.IDBits())
	b := 1 + (plan.k-1)*plan.idBits
	ccfg := congest.Config{B: b, MaxRounds: plan.maxRounds}
	if cfg.Deadline > 0 {
		// One clock for the nodes and the runner: a node that sees ctx
		// expire sends nothing, and the runner aborts before the next round.
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
		defer cancel()
		plan.ctx, ccfg.Context = ctx, ctx
	}
	factory := func() congest.Node { return &treeNode{plan: plan} }
	res, err := cfg.run(nw, factory, ccfg)
	if res == nil {
		return nil, err
	}
	if err == nil && plan.stopped.Load() {
		// A node gave up in round MaxRounds, which no check follows.
		err = fmt.Errorf("core: tree detection deadline %v exceeded after %d rounds: %w",
			cfg.Deadline, res.Stats.Rounds, context.DeadlineExceeded)
	}
	return &TreeReport{Outcome: outcome(res, b), MaxRounds: plan.maxRounds}, err
}
