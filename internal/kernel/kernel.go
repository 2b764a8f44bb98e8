package kernel

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"subgraph/internal/graph"
)

// MaxCliqueSize bounds the clique patterns the kernels serve. Above 8
// the Chiba–Nishizeki d^{s-2} factor dominates and the general engines
// are the honest choice.
const MaxCliqueSize = 8

// CliqueSize reports whether the pattern graph h is a clique the kernels
// can count (K_2..K_8; triangle and cycle:3 parse to K_3), and its size.
func CliqueSize(h *graph.Graph) (int, bool) {
	n := h.N()
	if n < 2 || n > MaxCliqueSize {
		return 0, false
	}
	if h.M() != n*(n-1)/2 {
		return 0, false
	}
	return n, true
}

// AlgorithmName is the Report/JobResult algorithm label for a kernel
// execution over the given adjacency mode.
func AlgorithmName(mode graph.BitAdjacencyMode) string {
	return "kernel-bitset-" + string(mode)
}

// Kernel owns a persistent worker pool plus per-worker scratch and runs
// counting/detection passes over bitset adjacencies. A Kernel is safe
// for concurrent use; passes serialize internally (the scratch and the
// pool are shared), which also keeps each pass's cache locality intact.
type Kernel struct {
	workers int
	start   []chan chunk // per-worker dispatch, parked between passes
	wg      sync.WaitGroup
	ws      []*workerScratch

	mu     sync.Mutex // serializes passes; guards run + closed
	run    runState
	closed bool
}

type chunk struct{ lo, hi int32 }

// New starts a kernel pool. workers <= 0 takes GOMAXPROCS capped at 8
// (the kernels are memory-bandwidth bound well before that).
func New(workers int) *Kernel {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	k := &Kernel{
		workers: workers,
		start:   make([]chan chunk, workers),
		ws:      make([]*workerScratch, workers),
	}
	for w := 0; w < workers; w++ {
		k.ws[w] = &workerScratch{}
		k.start[w] = make(chan chunk, 1)
		go func(w int) {
			for c := range k.start[w] {
				k.run.runChunk(k.ws[w], w, c.lo, c.hi)
				k.wg.Done()
			}
		}(w)
	}
	return k
}

// Workers returns the pool size.
func (k *Kernel) Workers() int { return k.workers }

// Close parks the pool permanently. Idempotent.
func (k *Kernel) Close() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return
	}
	k.closed = true
	for _, ch := range k.start {
		close(ch)
	}
}

// Count returns the number of K_s copies in the graph b encodes.
// s must be in [1, MaxCliqueSize]. The first triangle count over b also
// records its start edges (StartEdges), which later passes of size 4 and
// up visit alone.
func (k *Kernel) Count(b *graph.BitAdjacency, s int) int64 {
	return k.pass(b, s, false)
}

// Detect reports whether the graph contains K_s, with early exit across
// the pool on the first witness. It uses recorded start edges but, ending
// early, never records them.
func (k *Kernel) Detect(b *graph.BitAdjacency, s int) bool {
	return k.pass(b, s, true) > 0
}

// pass runs one counting (or early-exit detection) sweep over the pool.
func (k *Kernel) pass(b *graph.BitAdjacency, s int, detect bool) int64 {
	switch {
	case s < 1 || s > MaxCliqueSize:
		panic(fmt.Sprintf("kernel: clique size %d outside [1, %d]", s, MaxCliqueSize))
	case s == 1:
		return int64(b.N())
	case s == 2:
		return int64(b.M())
	case b.N() < s:
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		panic("kernel: pass on closed Kernel")
	}
	r := &k.run
	r.bits = b
	r.s = s
	r.detect = detect
	starts, recorded := b.StartEdges()
	r.record, r.starts = s == 3 && !detect && !recorded, nil
	if s >= 4 {
		r.starts = starts // nil until recorded
	}
	r.stop.Store(false)
	if cap(r.counts) < k.workers*countStride {
		r.counts = make([]int64, k.workers*countStride)
	}
	r.counts = r.counts[:k.workers*countStride]
	clear(r.counts)
	setWords := (b.M() + 63) / 64
	for _, ws := range k.ws {
		ws.ensure(b.Words(), b.Degeneracy(), s)
		if r.record {
			ws.rec = fitRow(ws.rec, setWords)
			clear(ws.rec)
		}
	}

	// Degree-weighted contiguous rank chunks, one per worker.
	n := int32(b.N())
	total := int64(b.M()) + int64(n)
	per := total/int64(k.workers) + 1
	k.wg.Add(k.workers)
	lo := int32(0)
	for w := 0; w < k.workers; w++ {
		hi := lo
		var acc int64
		for hi < n && (acc < per || w == k.workers-1) {
			acc += int64(len(b.Forward(hi))) + 1
			hi++
		}
		if w == k.workers-1 {
			hi = n
		}
		k.start[w] <- chunk{lo, hi}
		lo = hi
	}
	k.wg.Wait()
	if r.record {
		// Workers record apart, as their ranges can share a word.
		set := make([]uint64, setWords)
		for _, ws := range k.ws {
			for i, x := range ws.rec {
				set[i] |= x
			}
		}
		b.SetStartEdges(set)
	}

	var count int64
	for w := 0; w < k.workers; w++ {
		count += r.counts[w*countStride]
	}
	r.bits = nil
	return count
}

// countStride pads per-worker counters onto separate cache lines.
const countStride = 8

// runState is the pass-scoped shared state workers read. All fields are
// written before dispatch (the channel send orders them) except stop and
// counts, which are atomic / per-worker.
type runState struct {
	bits   *graph.BitAdjacency
	s      int
	detect bool
	record bool     // the pass records b's start edges
	starts []uint64 // non-nil: the pass visits only these forward edges
	stop   atomic.Bool
	counts []int64 // worker w accumulates into counts[w*countStride]
}

// workerScratch is one worker's reusable buffers. Per recursion level it
// holds a dense candidate row and, for the hybrid form, a rank-indexed
// mark row (all zero between uses) and a candidate list; rec holds the
// start-edge words a recording pass sets.
type workerScratch struct {
	rows  [][]uint64
	marks [][]uint64
	lists [][]int32
	rec   []uint64
}

// ensure sizes the scratch for a pass of clique size s over rows of words
// words: s levels, at least every level index the pass uses. A mark row
// wide enough is resliced, being all zero.
func (ws *workerScratch) ensure(words, degen, s int) {
	for len(ws.rows) < s {
		ws.rows = append(ws.rows, nil)
		ws.marks = append(ws.marks, nil)
		ws.lists = append(ws.lists, nil)
	}
	for i := range ws.rows[:s] {
		ws.rows[i] = fitRow(ws.rows[i], words)
		ws.marks[i] = fitRow(ws.marks[i], words)
		if cap(ws.lists[i]) < degen {
			ws.lists[i] = make([]int32, 0, degen)
		}
	}
}

// runChunk processes ranks [lo, hi) on worker w.
func (r *runState) runChunk(ws *workerScratch, w int, lo, hi int32) {
	var cnt int64
	b := r.bits
	dense := b.Mode() == graph.BitDense
	for u := lo; u < hi; u++ {
		if r.detect && r.stop.Load() {
			break
		}
		fu := b.Forward(u)
		if len(fu) < r.s-1 {
			continue
		}
		if dense {
			cnt += r.denseFrom(ws, u, fu)
		} else {
			cnt += r.hybridFrom(ws, u, fu)
		}
		if r.detect && cnt > 0 {
			r.stop.Store(true)
			break
		}
	}
	r.counts[w*countStride] = cnt
}

// visits reports whether the pass visits forward edge e: any edge, or on
// a filtered pass a start edge.
func (r *runState) visits(e int) bool {
	return r.starts == nil || r.starts[e>>6]>>(uint(e)&63)&1 == 1
}

// denseFrom counts K_s copies whose lowest-rank vertex is u, using the
// upper bitset rows: each visited forward edge (u,v) contributes the
// (s-2)-cliques in row(u) ∩ row(v) above v, found 64 candidates per word.
// Both rows are read from v's word on, where row(v) starts.
func (r *runState) denseFrom(ws *workerScratch, u int32, fu []int32) int64 {
	b := r.bits
	ru := b.UpperRow(u)
	ubase := int(u) >> 6
	e0 := b.ForwardIndex(u)
	var cnt int64
	for i, v := range fu {
		if !r.visits(e0 + i) {
			continue
		}
		wi := int(v) >> 6
		a, rv := ru[wi-ubase:], b.UpperRow(v)
		if r.s == 3 {
			c := intersectCountAbove(a, rv, uint(v)&63)
			if r.record && c >= 2 {
				ws.rec[(e0+i)>>6] |= 1 << (uint(e0+i) & 63)
			}
			cnt += c
			continue
		}
		if c := intersectAboveInto(ws.rows[0][wi:], a, rv, uint(v)&63); c >= int64(r.s-2) {
			cnt += r.denseExtend(ws, ws.rows[0], wi, r.s-2, 1)
		}
	}
	return cnt
}

// denseExtend counts the `need`-cliques inside the candidate row cand
// (valid from word wi). need ≥ 2; level indexes the scratch row the next
// narrowing writes.
func (r *runState) denseExtend(ws *workerScratch, cand []uint64, wi, need, level int) int64 {
	b := r.bits
	var cnt int64
	for i := wi; i < len(cand); i++ {
		x := cand[i]
		for x != 0 {
			q := int32(i<<6 + bits.TrailingZeros64(x))
			x &= x - 1
			if need == 2 {
				cnt += intersectCountAbove(cand[i:], b.UpperRow(q), uint(q)&63)
				continue
			}
			next := ws.rows[level]
			if c := intersectAboveInto(next[i:], cand[i:], b.UpperRow(q), uint(q)&63); c >= int64(need-1) {
				cnt += r.denseExtend(ws, next, i, need-1, level+1)
			}
		}
	}
	return cnt
}

// hybridFrom is denseFrom on the hybrid form: it marks u's forward list
// in the level-0 scratch row and filters each visited v's forward list
// through the marks, which leaves row(u) ∩ row(v) above v.
func (r *runState) hybridFrom(ws *workerScratch, u int32, fu []int32) int64 {
	b := r.bits
	mark := ws.marks[0]
	for _, v := range fu {
		mark[v>>6] |= 1 << (uint(v) & 63)
	}
	e0 := b.ForwardIndex(u)
	var cnt int64
	for i, v := range fu {
		if !r.visits(e0 + i) {
			continue
		}
		if r.s == 3 {
			var c int64
			for _, w := range b.Forward(v) {
				c += int64(mark[w>>6] >> (uint(w) & 63) & 1)
			}
			if r.record && c >= 2 {
				ws.rec[(e0+i)>>6] |= 1 << (uint(e0+i) & 63)
			}
			cnt += c
			continue
		}
		next := ws.lists[0][:0]
		for _, w := range b.Forward(v) {
			if mark[w>>6]>>(uint(w)&63)&1 == 1 {
				next = append(next, w)
			}
		}
		if len(next) >= r.s-2 {
			cnt += ws.cliquesWithin(b, next, r.s-2, 1)
		}
	}
	for _, v := range fu {
		mark[v>>6] &^= 1 << (uint(v) & 63)
	}
	return cnt
}

// fitRow returns row resliced to words words, or a new zero row if short.
func fitRow(row []uint64, words int) []uint64 {
	if cap(row) < words {
		return make([]uint64, words)
	}
	return row[:words]
}

// cliquesWithin counts the `need`-cliques inside cands (distinct ranks,
// any order), using the scratch of recursion level level and up. It
// marks cands in the level's row, filters forward lists through the
// marks, and unmarks before returning — each clique is found once, from
// its lowest-rank member — which works unchanged on both forms.
func (ws *workerScratch) cliquesWithin(b *graph.BitAdjacency, cands []int32, need, level int) int64 {
	if need == 1 {
		return int64(len(cands))
	}
	mark := ws.marks[level]
	for _, v := range cands {
		mark[v>>6] |= 1 << (uint(v) & 63)
	}
	var cnt int64
	for _, v := range cands {
		if need == 2 {
			for _, w := range b.Forward(v) {
				cnt += int64(mark[w>>6] >> (uint(w) & 63) & 1)
			}
			continue
		}
		next := ws.lists[level][:0]
		for _, w := range b.Forward(v) {
			if mark[w>>6]>>(uint(w)&63)&1 == 1 {
				next = append(next, w)
			}
		}
		if len(next) >= need-1 {
			ws.lists[level] = next
			cnt += ws.cliquesWithin(b, next, need-1, level+1)
		}
	}
	for _, v := range cands {
		mark[v>>6] &^= 1 << (uint(v) & 63)
	}
	return cnt
}
