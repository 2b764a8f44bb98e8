// Package congest simulates the CONGEST model of distributed computing:
// a synchronous message-passing network in which every node may send at
// most B bits over each incident edge per round (Peleg's CONGEST(B);
// Section 2 of the paper). Setting B ≤ 0 removes the bandwidth bound and
// yields the LOCAL model; a broadcast mode restricts nodes to sending the
// same message on all edges (the broadcast-CONGEST variant of [10]).
//
// Two execution engines are provided — a deterministic sequential engine
// and a parallel goroutine-per-worker engine — with identical semantics;
// the test suite property-checks that they produce bit-identical runs.
package congest

import (
	"fmt"
	"sort"
	"sync"

	"subgraph/internal/graph"
)

// NodeID is a node identifier drawn from a namespace. Identifiers are
// distinct from vertex indices: lower bounds (Section 4, Section 5) choose
// adversarial or random identifier assignments for a fixed topology.
type NodeID int64

// Network is a topology together with an identifier assignment.
//
// Its topology and identifiers never change once built, and any number
// of Runs, on either engine, may execute on one Network at the same time.
// Runs on a Network also reuse their working memory (environments and
// their out-queues, the node slice, the inbox arena and the bandwidth
// accumulators) through a pool the Network holds, so a service that keeps
// one Network per stored graph pays for that memory once, not per run.
// The pool is a sync.Pool, which the garbage collector may still empty,
// and reuse changes no run's decisions or Stats.
type Network struct {
	G   *graph.Graph
	ids []NodeID
	idx map[NodeID]int

	// deliv caches the delivery index (port → inbox-slot mapping plus the
	// ID-sorted neighbor views every Env shares; see delivery.go). It
	// depends only on the immutable topology and identifier assignment, so
	// repeated runs on one Network — the experiment sweeps' pattern — pay
	// for it once. Built lazily because split executions and plain Runs
	// share it too.
	delivOnce sync.Once
	deliv     *deliveryIndex

	// scratch pools Run's per-run working memory (see runScratch).
	scratch sync.Pool
}

// deliveryIndex returns the cached per-network delivery index, building it
// on first use. Safe for concurrent runs over the same Network.
func (nw *Network) deliveryIndex() *deliveryIndex {
	nw.delivOnce.Do(func() { nw.deliv = newDeliveryIndex(nw) })
	return nw.deliv
}

// NewNetwork builds a network over g with the default identifier
// assignment id(v) = v.
func NewNetwork(g *graph.Graph) *Network {
	ids := make([]NodeID, g.N())
	for v := range ids {
		ids[v] = NodeID(v)
	}
	return NewNetworkWithIDs(g, ids)
}

// NewNetworkWithIDs builds a network with an explicit identifier
// assignment. IDs must be unique; duplicate-ID experiments (Section 5
// remark) use NewNetworkWithDuplicateIDs instead.
func NewNetworkWithIDs(g *graph.Graph, ids []NodeID) *Network {
	if len(ids) != g.N() {
		panic(fmt.Sprintf("congest: %d ids for %d vertices", len(ids), g.N()))
	}
	idx := make(map[NodeID]int, len(ids))
	for v, id := range ids {
		if _, dup := idx[id]; dup {
			panic(fmt.Sprintf("congest: duplicate id %d", id))
		}
		idx[id] = v
	}
	return &Network{G: g, ids: ids, idx: idx}
}

// NewNetworkWithDuplicateIDs builds a network permitting duplicate
// identifiers. Vertex lookup by ID is unavailable; algorithms that run on
// such networks must address neighbors positionally. The Section 5
// experiment uses this to model the random-identifier input distribution.
func NewNetworkWithDuplicateIDs(g *graph.Graph, ids []NodeID) *Network {
	if len(ids) != g.N() {
		panic(fmt.Sprintf("congest: %d ids for %d vertices", len(ids), g.N()))
	}
	return &Network{G: g, ids: ids, idx: nil}
}

// UniqueIDs reports whether identifiers are guaranteed distinct, i.e. the
// network was not built by NewNetworkWithDuplicateIDs.
func (nw *Network) UniqueIDs() bool { return nw.idx != nil }

// N returns the number of nodes.
func (nw *Network) N() int { return nw.G.N() }

// ID returns the identifier of vertex v.
func (nw *Network) ID(v int) NodeID { return nw.ids[v] }

// Vertex returns the vertex carrying identifier id, or -1.
func (nw *Network) Vertex(id NodeID) int {
	if nw.idx == nil {
		for v, x := range nw.ids {
			if x == id {
				return v
			}
		}
		return -1
	}
	if v, ok := nw.idx[id]; ok {
		return v
	}
	return -1
}

// NeighborIDs returns the sorted identifiers of v's neighbors.
func (nw *Network) NeighborIDs(v int) []NodeID {
	nbrs := nw.G.Neighbors(v)
	out := make([]NodeID, len(nbrs))
	for i, w := range nbrs {
		out[i] = nw.ids[w]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxID returns the largest identifier in the network (the namespace
// bound used for fixed-width identifier encodings).
func (nw *Network) MaxID() NodeID {
	max := NodeID(0)
	for _, id := range nw.ids {
		if id > max {
			max = id
		}
	}
	return max
}

// IDBits returns the number of bits needed for a fixed-width encoding of
// any identifier in the network.
func (nw *Network) IDBits() int {
	max := uint64(nw.MaxID())
	bits := 1
	for max > 1 {
		bits++
		max >>= 1
	}
	return bits
}
