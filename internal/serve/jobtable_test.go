package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// tjob is a JobTable payload for the model tests.
type tjob struct{ id string }

func newTestTable(max int) *JobTable[*tjob] {
	return NewJobTable("t", max, func(j *tjob, id string) { j.id = id })
}

// refTable is the model the JobTable is checked against: a registration
// ordered slice and a linear scan, the shape of the original worker and
// router job tables.
type refTable struct {
	max   int
	seq   int
	order []*refEntry // registration order
}

type refEntry struct {
	id   string
	key  string
	live bool
}

func (r *refTable) find(id string) int {
	for i, e := range r.order {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (r *refTable) register(key string, terminal bool) (id string, coalesced bool) {
	if key != "" && !terminal {
		for _, e := range r.order {
			if e.live && e.key == key {
				return e.id, true
			}
		}
	}
	r.seq++
	id = fmt.Sprintf("t-%06d", r.seq)
	r.order = append(r.order, &refEntry{id: id, key: key, live: !terminal})
	for len(r.order) > r.max {
		evicted := false
		for i, e := range r.order {
			if !e.live {
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live: retention is a soft bound
		}
	}
	return id, false
}

func (r *refTable) finish(id string) {
	if i := r.find(id); i >= 0 {
		r.order[i].live = false
	}
}

func (r *refTable) remove(id string) {
	if i := r.find(id); i >= 0 {
		r.order = append(r.order[:i], r.order[i+1:]...)
	}
}

func (r *refTable) pending() []string {
	var out []string
	for _, e := range r.order {
		if e.live {
			out = append(out, e.id)
		}
	}
	return out
}

func pendingIDs(t *JobTable[*tjob]) []string {
	var out []string
	for _, j := range t.Pending() {
		out = append(out, j.id)
	}
	sort.Strings(out)
	return out
}

func equalIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJobTableRetention pins the retention policy on a scripted sequence:
// the oldest terminal job goes first, live jobs are never evicted, and
// with every job live the bound is soft.
func TestJobTableRetention(t *testing.T) {
	tab := newTestTable(3)
	a, b, c, d := &tjob{}, &tjob{}, &tjob{}, &tjob{}
	tab.Register(a, "", false)
	tab.Register(b, "", true)
	tab.Register(c, "", false)
	tab.Finish(c.id)
	tab.Register(d, "", true) // four jobs: b (oldest terminal) goes
	for _, want := range []struct {
		j    *tjob
		kept bool
	}{{a, true}, {b, false}, {c, true}, {d, true}} {
		if _, ok := tab.Get(want.j.id); ok != want.kept {
			t.Fatalf("job %s retained = %v, want %v", want.j.id, ok, want.kept)
		}
	}
	e := &tjob{}
	tab.Register(e, "", false) // c is now the oldest terminal job
	if _, ok := tab.Get(c.id); ok {
		t.Fatalf("job %s survived, want it evicted before the newer %s", c.id, d.id)
	}

	live := newTestTable(2)
	var ids []string
	for i := 0; i < 5; i++ {
		j := &tjob{}
		live.Register(j, "", false)
		ids = append(ids, j.id)
	}
	for _, id := range ids {
		if _, ok := live.Get(id); !ok {
			t.Fatalf("live job %s evicted from a table of live jobs", id)
		}
	}
	if n := len(live.Pending()); n != 5 {
		t.Fatalf("pending = %d jobs, want all 5 live ones", n)
	}
}

// TestJobTableModel checks random operation sequences against refTable,
// with concurrent readers looking jobs up and walking the live set.
func TestJobTableModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkJobTableModel(t, seed)
	}
}

func checkJobTableModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	max := 1 + rng.Intn(6)
	tab := newTestTable(max)
	ref := &refTable{max: max}
	var ids []string

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
				if j, ok := tab.Get(fmt.Sprintf("t-%06d", 1+i%64)); ok && j.id == "" {
					t.Error("looked-up job has no ID")
				}
				for _, j := range tab.Pending() {
					if j.id == "" {
						t.Error("pending job has no ID")
					}
				}
				runtime.Gosched()
			}
		}()
	}

	pick := func() string {
		if len(ids) == 0 || rng.Intn(8) == 0 {
			return "t-999999"
		}
		return ids[rng.Intn(len(ids))]
	}
	for op := 0; op < 400; op++ {
		switch k := rng.Intn(10); {
		case k < 4:
			key := ""
			if rng.Intn(2) == 0 {
				key = fmt.Sprintf("k%d", rng.Intn(3))
			}
			terminal := rng.Intn(3) == 0
			j := &tjob{}
			existing, coalesced := tab.Register(j, key, terminal)
			wantID, wantCoalesced := ref.register(key, terminal)
			gotID := j.id
			if coalesced {
				gotID = existing.id
			}
			if coalesced != wantCoalesced || gotID != wantID {
				t.Fatalf("seed %d op %d: Register(key %q, terminal %v) = (%s, coalesced %v), model (%s, %v)",
					seed, op, key, terminal, gotID, coalesced, wantID, wantCoalesced)
			}
			if !coalesced {
				ids = append(ids, j.id)
			}
		case k < 6:
			id := pick()
			tab.Finish(id)
			ref.finish(id)
		case k < 7:
			id := pick()
			tab.Remove(id)
			ref.remove(id)
		case k < 9:
			id := pick()
			j, ok := tab.Get(id)
			if want := ref.find(id) >= 0; ok != want || (ok && j.id != id) {
				t.Fatalf("seed %d op %d: Get(%s) = (%v, %v), model has it: %v", seed, op, id, j, ok, want)
			}
		default:
			if got, want := pendingIDs(tab), ref.pending(); !equalIDs(got, want) {
				t.Fatalf("seed %d op %d: pending %v, model %v", seed, op, got, want)
			}
		}
		// The retained set matches the model after every operation.
		for _, id := range ids {
			_, ok := tab.Get(id)
			if want := ref.find(id) >= 0; ok != want {
				t.Fatalf("seed %d op %d: job %s retained = %v, model says %v", seed, op, id, ok, want)
			}
		}
	}
}
