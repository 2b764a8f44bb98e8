package serve

import (
	"container/list"
	"sync"

	"subgraph"
	"subgraph/internal/graph"
)

// GraphInfo is the wire description of a stored graph.
type GraphInfo struct {
	Digest string `json:"digest"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	// Parent is the digest this graph was derived from via a delta, if
	// any. Lineage is advisory: the parent may have been evicted.
	Parent string `json:"parent,omitempty"`
}

// Store is the content-addressed graph store: graphs are keyed by their
// canonical digest (graph.Digest()), so repeated uploads of the same edge
// list dedupe to one entry, and jobs reference graphs by digest. Each
// entry also carries the shared *congest.Network for the graph — built
// once, reused by every job on the topology (concurrent Runs on one
// Network are safe; the identifier assignment is the identity, exactly
// what subgraph.NewNetwork gives a CLI run, so server and CLI executions
// are comparable bit for bit).
//
// Network construction is O(n+m), LAZY, and runs OUTSIDE the store lock:
// the network is built on the first Network() call for the digest, not
// at Put. Only detect-mode jobs call Network (prepare skips it for count
// jobs, which resolve the bitset adjacency through Bits instead); delta
// successors and router mirrors never touch it either. Storing a graph
// therefore costs only the CSR it already has — the build is paid exactly
// once, by the first detect-mode job on the topology, and is
// single-flighted per digest (concurrent callers wait for the one build;
// nobody holds the lock meanwhile).
//
// The store is LRU-bounded: inserting beyond the cap evicts the least
// recently *used* graph (uploads and job submissions both touch) —
// except pinned entries. Jobs pin their graph at admission and unpin on
// completion, so eviction can never invalidate an already-accepted job;
// while every entry is pinned the cap is a soft bound. Jobs referencing
// an evicted digest get 404 and re-upload. A lazy build pins its entry,
// so eviction cannot race a build in flight.
//
// Delta uploads record parent→child lineage, which the serve layer uses
// to forward count-mode cache entries along a graph's history.
type Store struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	byHash   map[string]*list.Element
	building map[string]chan struct{} // single-flight network build per digest
	parents  map[string]string        // child digest -> parent digest
	children map[string][]string      // parent digest -> child digests

	// buildNetwork is a test seam; nil means subgraph.NewNetwork.
	buildNetwork func(*graph.Graph) *subgraph.Network
	// buildBits is a test seam for Bits' scratch build; nil means
	// graph.NewBitAdjacency.
	buildBits func(*graph.Graph) *graph.BitAdjacency
}

type storedGraph struct {
	info GraphInfo
	g    *graph.Graph
	nw   *subgraph.Network   // nil until the first Network() call builds it
	bits *graph.BitAdjacency // nil until the first Bits() call builds it
	pins int                 // in-flight references holding the entry against eviction
}

// NewStore returns a store bounded to max graphs (max ≥ 1).
func NewStore(max int) *Store {
	if max < 1 {
		max = 1
	}
	return &Store{
		max:      max,
		ll:       list.New(),
		byHash:   make(map[string]*list.Element),
		building: make(map[string]chan struct{}),
		parents:  make(map[string]string),
		children: make(map[string][]string),
	}
}

// Put inserts g, returning its digest and whether an identical graph was
// already stored (deduped).
func (s *Store) Put(g *graph.Graph) (digest string, deduped bool) {
	return s.put(g, "")
}

// PutChild inserts g as the successor of parentDigest, recording the
// lineage edge. The graph itself dedupes exactly like Put.
func (s *Store) PutChild(g *graph.Graph, parentDigest string) (digest string, deduped bool) {
	return s.put(g, parentDigest)
}

func (s *Store) put(g *graph.Graph, parentDigest string) (digest string, deduped bool) {
	digest = g.Digest() // outside the lock: hashing is the expensive part
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byHash[digest]; ok {
		s.ll.MoveToFront(el)
		s.recordLineageLocked(el, parentDigest)
		return digest, true
	}
	el := s.ll.PushFront(&storedGraph{
		info: GraphInfo{Digest: digest, N: g.N(), M: g.M()},
		g:    g,
	})
	s.byHash[digest] = el
	s.recordLineageLocked(el, parentDigest)
	s.evictLocked()
	return digest, false
}

// recordLineageLocked attaches a parent to an entry. The first recorded
// parent wins: a graph reachable by two different deltas keeps its
// original lineage. A graph is never its own parent: a delta whose
// changes cancel out leads back to the graph it started from.
func (s *Store) recordLineageLocked(el *list.Element, parentDigest string) {
	sg := el.Value.(*storedGraph)
	if parentDigest == "" || parentDigest == sg.info.Digest || sg.info.Parent != "" {
		return
	}
	sg.info.Parent = parentDigest
	s.parents[sg.info.Digest] = parentDigest
	s.children[parentDigest] = append(s.children[parentDigest], sg.info.Digest)
}

// evictLocked enforces the LRU bound, skipping pinned entries. If every
// entry is pinned the store temporarily exceeds max.
func (s *Store) evictLocked() {
	for s.ll.Len() > s.max {
		var victim *list.Element
		for el := s.ll.Back(); el != nil; el = el.Prev() {
			if el.Value.(*storedGraph).pins == 0 {
				victim = el
				break
			}
		}
		if victim == nil {
			return
		}
		s.removeLocked(victim)
	}
}

func (s *Store) removeLocked(el *list.Element) {
	sg := el.Value.(*storedGraph)
	d := sg.info.Digest
	s.ll.Remove(el)
	delete(s.byHash, d)
	if p, ok := s.parents[d]; ok {
		delete(s.parents, d)
		kids := s.children[p]
		for i, c := range kids {
			if c == d {
				s.children[p] = append(kids[:i], kids[i+1:]...)
				break
			}
		}
		if len(s.children[p]) == 0 {
			delete(s.children, p)
		}
	}
	// Children of the evicted digest keep their (now dangling) parent
	// pointer: lineage is advisory and callers always resolve graphs
	// through Get.
}

// Pin marks the entry as referenced by in-flight work, holding it
// against eviction until a matching Unpin. Returns false if the digest
// is not stored.
func (s *Store) Pin(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byHash[digest]
	if !ok {
		return false
	}
	el.Value.(*storedGraph).pins++
	s.ll.MoveToFront(el)
	return true
}

// Unpin releases one Pin reference. Dropping the last pin re-enforces
// the LRU bound immediately.
func (s *Store) Unpin(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byHash[digest]
	if !ok {
		return
	}
	sg := el.Value.(*storedGraph)
	if sg.pins > 0 {
		sg.pins--
	}
	if sg.pins == 0 {
		s.evictLocked()
	}
}

// Parent returns the recorded parent digest of a delta-derived graph.
// The parent itself may have been evicted.
func (s *Store) Parent(digest string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.parents[digest]
	return p, ok
}

// Children returns the digests derived from digest by deltas, in
// recording order.
func (s *Store) Children(digest string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	kids := s.children[digest]
	out := make([]string, len(kids))
	copy(out, kids)
	return out
}

// Get returns the stored graph for digest, touching its recency.
func (s *Store) Get(digest string) (*graph.Graph, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byHash[digest]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*storedGraph).g, true
	}
	return nil, false
}

// Network returns the shared simulation network for digest, touching its
// recency. The first call for a digest builds the network outside the
// store lock (single-flighted; the entry is pinned for the duration so
// eviction cannot race the build); later calls return the shared one.
func (s *Store) Network(digest string) (*subgraph.Network, bool) {
	for {
		s.mu.Lock()
		el, ok := s.byHash[digest]
		if !ok {
			s.mu.Unlock()
			return nil, false
		}
		sg := el.Value.(*storedGraph)
		s.ll.MoveToFront(el)
		if sg.nw != nil {
			s.mu.Unlock()
			return sg.nw, true
		}
		ch, busy := s.building[digest]
		if busy {
			// Another caller is building this network: wait without the
			// lock, then re-check (the entry now has it, or was evicted).
			s.mu.Unlock()
			<-ch
			continue
		}
		ch = make(chan struct{})
		s.building[digest] = ch
		sg.pins++ // the build must not race eviction
		s.mu.Unlock()

		build := s.buildNetwork
		if build == nil {
			build = subgraph.NewNetwork
		}
		nw := build(sg.g) // outside the lock: this is the expensive part

		s.mu.Lock()
		sg.nw = nw
		if sg.pins > 0 {
			sg.pins--
		}
		if sg.pins == 0 {
			s.evictLocked()
		}
		close(ch)
		delete(s.building, digest)
		s.mu.Unlock()
		return nw, true
	}
}

// Bits returns the shared bitset adjacency for digest, touching its
// recency. Like Network, the first call builds it outside the store lock
// (single-flighted, entry pinned during the build); later calls — count
// jobs and delta watches on the same graph — share the one build. A
// delta child is built the same way, from scratch, and only if something
// needs it: forwarded counts and incremental watches read no adjacency.
func (s *Store) Bits(digest string) (*graph.BitAdjacency, bool) {
	key := digest + "\x00bits" // distinct single-flight slot from the network build
	for {
		s.mu.Lock()
		el, ok := s.byHash[digest]
		if !ok {
			s.mu.Unlock()
			return nil, false
		}
		sg := el.Value.(*storedGraph)
		s.ll.MoveToFront(el)
		if sg.bits != nil {
			s.mu.Unlock()
			return sg.bits, true
		}
		ch, busy := s.building[key]
		if busy {
			s.mu.Unlock()
			<-ch
			continue
		}
		ch = make(chan struct{})
		s.building[key] = ch
		sg.pins++ // the build must not race eviction
		s.mu.Unlock()

		build := s.buildBits
		if build == nil {
			build = graph.NewBitAdjacency
		}
		bits := build(sg.g) // outside the lock: this is the expensive part

		s.mu.Lock()
		sg.bits = bits
		if sg.pins > 0 {
			sg.pins--
		}
		if sg.pins == 0 {
			s.evictLocked()
		}
		close(ch)
		delete(s.building, key)
		s.mu.Unlock()
		return bits, true
	}
}

// Info returns the stored graph's description without touching recency.
func (s *Store) Info(digest string) (GraphInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byHash[digest]; ok {
		return el.Value.(*storedGraph).info, true
	}
	return GraphInfo{}, false
}

// List returns descriptions of every stored graph, most recently used
// first.
func (s *Store) List() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storedGraph).info)
	}
	return out
}

// Len returns the number of stored graphs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
