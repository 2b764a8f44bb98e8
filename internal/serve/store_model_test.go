package serve

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"subgraph/internal/graph"
)

// refStore is the model the Store is checked against: an MRU-ordered
// slice with pin counts and plain lineage maps.
type refStore struct {
	max      int
	mru      []string // front = most recently used
	pins     map[string]int
	parent   map[string]string
	children map[string][]string
}

func newRefStore(max int) *refStore {
	return &refStore{max: max, pins: map[string]int{},
		parent: map[string]string{}, children: map[string][]string{}}
}

func (m *refStore) has(d string) bool { return slices.Contains(m.mru, d) }

func (m *refStore) touch(d string) {
	i := slices.Index(m.mru, d)
	m.mru = append([]string{d}, slices.Delete(m.mru, i, i+1)...)
}

// put stores d (as a child of parent when parent != "") and reports
// whether it was already stored.
func (m *refStore) put(d, parent string) bool {
	deduped := m.has(d)
	if deduped {
		m.touch(d)
	} else {
		m.mru = append([]string{d}, m.mru...)
	}
	// The first recorded parent wins, and a graph is never its own.
	if _, ok := m.parent[d]; parent != "" && parent != d && !ok {
		m.parent[d] = parent
		m.children[parent] = append(m.children[parent], d)
	}
	if !deduped {
		m.evict()
	}
	return deduped
}

// evict drops unpinned entries from the least recently used end until
// the bound holds or only pinned entries are left.
func (m *refStore) evict() {
	for len(m.mru) > m.max {
		i := len(m.mru) - 1
		for i >= 0 && m.pins[m.mru[i]] > 0 {
			i--
		}
		if i < 0 {
			return
		}
		d := m.mru[i]
		m.mru = slices.Delete(m.mru, i, i+1)
		delete(m.pins, d)
		if p, ok := m.parent[d]; ok {
			delete(m.parent, d)
			kids := m.children[p]
			j := slices.Index(kids, d)
			m.children[p] = slices.Delete(kids, j, j+1)
			if len(m.children[p]) == 0 {
				delete(m.children, p)
			}
		}
	}
}

func (m *refStore) pin(d string) bool {
	if !m.has(d) {
		return false
	}
	m.pins[d]++
	m.touch(d)
	return true
}

func (m *refStore) unpin(d string) {
	if !m.has(d) {
		return
	}
	if m.pins[d] > 0 {
		m.pins[d]--
	}
	if m.pins[d] == 0 {
		m.evict()
	}
}

// TestStoreModel checks random operation sequences against refStore,
// with concurrent readers using the operations that leave recency alone.
func TestStoreModel(t *testing.T) {
	graphs := make([]*graph.Graph, 10)
	digests := make([]string, len(graphs))
	for i := range graphs {
		graphs[i] = graph.Cycle(3 + i)
		digests[i] = graphs[i].Digest()
	}
	for seed := int64(1); seed <= 20; seed++ {
		checkStoreModel(t, seed, graphs, digests)
	}
}

func checkStoreModel(t *testing.T, seed int64, graphs []*graph.Graph, digests []string) {
	rng := rand.New(rand.NewSource(seed))
	max := 1 + rng.Intn(6)
	s := NewStore(max)
	ref := newRefStore(max)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := digests[i%len(digests)]
				if info, ok := s.Info(d); ok && info.Digest != d {
					t.Errorf("Info(%s) describes %s", d, info.Digest)
				}
				s.Parent(d)
				s.Children(d)
				for _, info := range s.List() {
					if info.Digest == "" {
						t.Error("listed graph has no digest")
					}
				}
				runtime.Gosched()
			}
		}()
	}

	// pick draws a digest, now and then one the store can never hold.
	pick := func() (int, string) {
		if rng.Intn(10) == 0 {
			return -1, "deadbeef"
		}
		i := rng.Intn(len(digests))
		return i, digests[i]
	}
	for op := 0; op < 400; op++ {
		var name string
		switch k := rng.Intn(12); {
		case k < 2:
			name = "Put"
			i := rng.Intn(len(graphs))
			d, deduped := s.Put(graphs[i])
			if want := ref.put(digests[i], ""); d != digests[i] || deduped != want {
				t.Fatalf("seed %d op %d: Put(%d) = (%s, %v), model (%s, %v)", seed, op, i, d, deduped, digests[i], want)
			}
		case k < 4:
			name = "PutChild"
			i := rng.Intn(len(graphs))
			_, parent := pick()
			d, deduped := s.PutChild(graphs[i], parent)
			if want := ref.put(digests[i], parent); d != digests[i] || deduped != want {
				t.Fatalf("seed %d op %d: PutChild(%d) = (%s, %v), model (%s, %v)", seed, op, i, d, deduped, digests[i], want)
			}
		case k < 5:
			name = "Pin"
			_, d := pick()
			if got, want := s.Pin(d), ref.pin(d); got != want {
				t.Fatalf("seed %d op %d: Pin(%s) = %v, model %v", seed, op, d, got, want)
			}
		case k < 7:
			name = "Unpin"
			_, d := pick()
			s.Unpin(d)
			ref.unpin(d)
		case k < 8:
			name = "Get"
			i, d := pick()
			g, ok := s.Get(d)
			want := ref.has(d)
			if want {
				ref.touch(d)
			}
			if ok != want || (ok && g != graphs[i]) {
				t.Fatalf("seed %d op %d: Get(%s) = %v, model has it: %v", seed, op, d, ok, want)
			}
		case k < 9:
			name = "Parent"
			_, d := pick()
			p, ok := s.Parent(d)
			wantP, want := ref.parent[d]
			if p != wantP || ok != want {
				t.Fatalf("seed %d op %d: Parent(%s) = (%s, %v), model (%s, %v)", seed, op, d, p, ok, wantP, want)
			}
		case k < 10:
			name = "Children"
			_, d := pick()
			if got, want := s.Children(d), ref.children[d]; !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: Children(%s) = %v, model %v", seed, op, d, got, want)
			}
		case k < 11:
			name = "Info"
			i, d := pick()
			info, ok := s.Info(d)
			want := GraphInfo{}
			if ref.has(d) {
				want = GraphInfo{Digest: d, N: graphs[i].N(), M: graphs[i].M(), Parent: ref.parent[d]}
			}
			if ok != ref.has(d) || info != want {
				t.Fatalf("seed %d op %d: Info(%s) = (%+v, %v), model %+v", seed, op, d, info, ok, want)
			}
		default:
			name = "Len"
			if got, want := s.Len(), len(ref.mru); got != want {
				t.Fatalf("seed %d op %d: Len() = %d, model %d", seed, op, got, want)
			}
		}
		// The stored set, its recency order and its lineage match the
		// model after every operation.
		list := s.List()
		got := make([]string, len(list))
		for i, info := range list {
			got[i] = info.Digest
			if info.Parent != ref.parent[info.Digest] {
				t.Fatalf("seed %d op %d (%s): %s has parent %q, model %q",
					seed, op, name, info.Digest, info.Parent, ref.parent[info.Digest])
			}
		}
		if !slices.Equal(got, ref.mru) {
			t.Fatalf("seed %d op %d (%s): stored %v, model %v", seed, op, name, got, ref.mru)
		}
		for _, d := range digests {
			if got, want := s.Children(d), ref.children[d]; !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d (%s): Children(%s) = %v, model %v", seed, op, name, d, got, want)
			}
		}
	}
}
