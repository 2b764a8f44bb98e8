package congest

import "sort"

// Delivery layout shared by both engines and the two-party split runner.
//
// The runner's steady-state round loop must not allocate (the PR 3
// zero-alloc invariant, pinned by TestSteadyStateRoundZeroAllocs). Two
// structures make that possible:
//
//   - deliveryIndex: an immutable, per-network precomputation mapping every
//     directed out-edge (sender, port) to the arena slot of the receiving
//     inbox. Slots within a recipient's range are ordered by the
//     documented inbox contract — sender ID ascending, ties broken by
//     sender vertex — so delivery becomes a two-pass counting sort instead
//     of a per-round sort.SliceStable with a fresh closure per inbox.
//
//   - inboxArena: a double-buffered message arena reused across rounds.
//     One buffer holds the inboxes the nodes are reading this round while
//     the other is filled with next round's messages; the buffers swap at
//     the end of delivery. All scratch (slot counters, cursors, staging)
//     is sized once and reused, so after the first few rounds grow it to
//     the run's high-water mark, a round performs zero heap allocations.
//
// The counting sort reproduces the previous sort.SliceStable semantics
// exactly: within one recipient, messages are grouped by sender in
// (ID, vertex) order, and each sender's messages keep their emission
// order, because the staging scan visits senders in vertex order and a
// slot's messages are placed in staging order.

// deliveryIndex is the immutable per-network edge indexing. It also owns
// the flat (ID-sorted) neighbor views handed to every Env, so building n
// environments costs O(1) allocations instead of O(n).
type deliveryIndex struct {
	n       int
	edgeOff []int32  // edgeOff[v+1]-edgeOff[v] = deg(v); out-edge e = edgeOff[v]+port
	ids     []NodeID // ids[edgeOff[v]:edgeOff[v+1]]: v's neighbor IDs, sorted by (ID, vertex)
	vs      []int32  // parallel to ids: the neighbor's vertex index
	slot    []int32  // out-edge e=(v,port) ↦ in-slot edgeOff[u]+rank of v in u's sorted list
}

// newDeliveryIndex builds the index in O(n + m) time using the graph's CSR
// layout.
func newDeliveryIndex(nw *Network) *deliveryIndex {
	n := nw.N()
	off, nbrs := nw.G.CSR()
	e := len(nbrs)
	d := &deliveryIndex{
		n:       n,
		edgeOff: off, // CSR offsets are exactly the directed-edge offsets
		ids:     make([]NodeID, e),
		vs:      make([]int32, e),
		slot:    make([]int32, e),
	}
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		for i := lo; i < hi; i++ {
			d.ids[i] = nw.ids[nbrs[i]]
			d.vs[i] = nbrs[i]
		}
		sort.Sort(&idVertexSort{d.ids[lo:hi], d.vs[lo:hi]})
	}

	// slot[edgeOff[v]+port] must be edgeOff[u] + rank_u(v) where u is the
	// port's target and rank_u(v) is v's position in u's (ID, vertex)-sorted
	// neighbor list. Computed by one counting pass: each receiver u deposits
	// (u, rank) into the sender's bucket, then each sender v resolves its
	// ports through a vertex-indexed rank scratch (valid per sender because
	// a simple graph lists each neighbor once).
	depU := make([]int32, e)
	depR := make([]int32, e)
	cursor := make([]int32, n)
	for u := 0; u < n; u++ {
		for i := off[u]; i < off[u+1]; i++ {
			v := d.vs[i]
			p := off[v] + cursor[v]
			cursor[v]++
			depU[p] = int32(u)
			depR[p] = i - off[u]
		}
	}
	rankOf := make([]int32, n)
	for v := 0; v < n; v++ {
		for p := off[v]; p < off[v+1]; p++ {
			rankOf[depU[p]] = depR[p]
		}
		for p := off[v]; p < off[v+1]; p++ {
			u := d.vs[p]
			d.slot[p] = off[u] + rankOf[u]
		}
	}
	return d
}

// neighborsOf returns the (ID, vertex)-sorted neighbor views for v, shared
// read-only with every Env built over this index.
func (d *deliveryIndex) neighborsOf(v int) ([]NodeID, []int32) {
	lo, hi := d.edgeOff[v], d.edgeOff[v+1]
	return d.ids[lo:hi:hi], d.vs[lo:hi:hi]
}

// inboxArena is the reusable per-run (or per-player, in split execution)
// delivery state. stage() is called once per delivered message in the
// deterministic scan order; deliver() then places every staged message into
// its slot and publishes the inboxes.
type inboxArena struct {
	idx *deliveryIndex

	slotCnt  []int32 // messages counted per in-slot this round
	slotPos  []int32 // arena write cursor per in-slot (scratch of deliver)
	recipLen []int32 // messages counted per recipient this round
	recips   []int32 // recipients counted this round, in first-touch order
	prev     []int32 // recipients whose inboxes are currently published
	total    int     // messages counted this round

	pending  []Message // staged messages, in stage order
	pendSlot []int32   // in-slot of each staged message

	arena   []Message // buffer being read by nodes this round
	spare   []Message // buffer deliver() fills for next round
	inboxes [][]Message
}

func newInboxArena(idx *deliveryIndex) *inboxArena {
	return &inboxArena{
		idx:      idx,
		slotCnt:  make([]int32, len(idx.slot)),
		slotPos:  make([]int32, len(idx.slot)),
		recipLen: make([]int32, idx.n),
		inboxes:  make([][]Message, idx.n),
	}
}

// reset readies the arena for a new run however the last one ended. It
// withdraws the inboxes the last round published, so round 1 of the next
// run starts with empty inboxes, and zeroes the counts a round that
// failed mid-scan left behind.
func (a *inboxArena) reset() {
	for _, u := range a.prev {
		a.inboxes[u] = nil
	}
	a.prev = a.prev[:0]
	for _, u := range a.recips {
		a.recipLen[u] = 0
		for s := a.idx.edgeOff[u]; s < a.idx.edgeOff[u+1]; s++ {
			a.slotCnt[s] = 0
		}
	}
	a.recips = a.recips[:0]
	a.total = 0
	a.pending = a.pending[:0]
	a.pendSlot = a.pendSlot[:0]
}

// count registers one delivered message for the counting sort without
// copying it — the fast path used when the sender's outbox can be walked a
// second time at placement. e is the sender's out-edge index
// (edgeOff[sender]+port), toV the recipient vertex.
func (a *inboxArena) count(e int32, toV int) {
	if a.recipLen[toV] == 0 {
		a.recips = append(a.recips, int32(toV))
	}
	a.recipLen[toV]++
	a.slotCnt[a.idx.slot[e]]++
	a.total++
}

// stage counts AND copies one delivered message. The adversary path and
// the split runner use it when the message as delivered differs from the
// sender's outbox copy (corruption) or the outbox cannot be re-walked at
// placement time; placement then comes from the staging buffer via
// deliver.
func (a *inboxArena) stage(e int32, toV int, m Message) {
	a.count(e, toV)
	a.pending = append(a.pending, m)
	a.pendSlot = append(a.pendSlot, a.idx.slot[e])
}

// beginDeliver retires the previous round's inboxes, sizes the spare
// buffer for the counted messages, computes every slot's write cursor and
// publishes the (still empty) inbox views. The caller fills the returned
// buffer with place() and must finish with endDeliver().
func (a *inboxArena) beginDeliver() []Message {
	for _, u := range a.prev {
		a.inboxes[u] = nil
	}
	a.prev = a.prev[:0]

	if cap(a.spare) < a.total {
		a.spare = make([]Message, a.total)
	}
	buf := a.spare[:a.total]

	pos := int32(0)
	for _, u := range a.recips {
		base := pos
		for s := a.idx.edgeOff[u]; s < a.idx.edgeOff[u+1]; s++ {
			a.slotPos[s] = pos
			pos += a.slotCnt[s]
		}
		a.inboxes[u] = buf[base:pos:pos]
	}
	return buf
}

// place writes one message into its slot, in call order within the slot.
// Calls must mirror the count() calls of the round, in the same
// deterministic scan order.
func (a *inboxArena) place(buf []Message, e int32, m Message) {
	s := a.idx.slot[e]
	buf[a.slotPos[s]] = m
	a.slotPos[s]++
}

// endDeliver resets the per-round scratch and swaps the double buffer so
// next round's delivery cannot clobber the inboxes nodes are now reading.
func (a *inboxArena) endDeliver(buf []Message) {
	for _, u := range a.recips {
		a.recipLen[u] = 0
		for s := a.idx.edgeOff[u]; s < a.idx.edgeOff[u+1]; s++ {
			a.slotCnt[s] = 0
		}
	}
	a.prev, a.recips = a.recips, a.prev
	a.total = 0
	a.spare, a.arena = a.arena[:0], buf
}

// deliver counting-sorts the messages staged via stage() and publishes the
// inboxes — the one-call form of beginDeliver/place/endDeliver used by the
// staging paths.
func (a *inboxArena) deliver() {
	buf := a.beginDeliver()
	for i, m := range a.pending {
		s := a.pendSlot[i]
		buf[a.slotPos[s]] = m
		a.slotPos[s]++
	}
	a.pending = a.pending[:0]
	a.pendSlot = a.pendSlot[:0]
	a.endDeliver(buf)
}
