package congest

import (
	"sync"
	"time"
)

// workerPool is the parallel engine's persistent worker set. PR 3 replaced
// the goroutine-per-worker-per-round spawn (one closure + goroutine stack
// per worker per round) with workers created once per run that park on a
// per-worker channel between rounds; signaling a round is a channel send
// and the barrier is one shared WaitGroup, neither of which allocates in
// steady state.
//
// Vertices are assigned to workers by degree-weighted contiguous chunks,
// computed once at pool creation: a vertex's step cost is dominated by its
// inbox and outbox sizes, both proportional to its degree, so chunking by
// weight deg(v)+1 keeps star-like and planted-composite topologies from
// serializing on the one worker that drew the hub. The chunking depends
// only on the (immutable) topology and worker count, so runs remain
// bit-identical for any Workers value — pinned by the skewed-topology
// determinism property test.
type workerPool struct {
	step   func(v, round int)
	lo, hi []int32    // chunk bounds: worker w owns vertices [lo[w], hi[w])
	start  []chan int // per-worker round signal; closed to retire the pool
	wg     sync.WaitGroup
	exited sync.WaitGroup // released as each worker returns; close waits on it

	// slots, when non-nil, receives per-worker busy nanoseconds for the
	// round being executed (the tracer's utilization metric). Written by
	// the orchestrator before the round signal and read by workers after
	// receiving it, so no lock is needed.
	slots []int64
}

// newWorkerPool partitions the n vertices of nw into at most `workers`
// degree-weighted chunks and starts one parked goroutine per non-empty
// chunk. close() must be called to release the goroutines.
func newWorkerPool(nw *Network, workers int, step func(v, round int)) *workerPool {
	n := nw.N()
	if workers > n {
		workers = n
	}
	off, _ := nw.G.CSR()
	total := int64(off[n]) + int64(n) // Σ (deg(v)+1)
	p := &workerPool{step: step}
	v := int32(0)
	var acc int64
	for w := 0; w < workers && int(v) < n; w++ {
		lo := v
		// Advance until this chunk reaches its proportional weight share,
		// leaving at least one vertex per remaining chunk.
		target := total * int64(w+1) / int64(workers)
		for int(v) < n && (acc < target || w == workers-1) {
			acc += int64(off[v+1]-off[v]) + 1
			v++
		}
		if v == lo { // degenerate: enormous hub already consumed the share
			v++
		}
		p.lo = append(p.lo, lo)
		p.hi = append(p.hi, v)
	}
	p.hi[len(p.hi)-1] = int32(n)
	p.start = make([]chan int, len(p.lo))
	p.exited.Add(len(p.start))
	for w := range p.start {
		p.start[w] = make(chan int, 1)
		go p.work(w)
	}
	return p
}

// active returns the number of workers actually running chunks, reported
// to the tracer as the round's launched-worker count.
func (p *workerPool) active() int { return len(p.lo) }

// work is the persistent worker loop: park on the round signal, step the
// chunk, hit the barrier.
func (p *workerPool) work(w int) {
	defer p.exited.Done()
	lo, hi := p.lo[w], p.hi[w]
	for round := range p.start[w] {
		if s := p.slots; s != nil {
			t0 := time.Now()
			for v := lo; v < hi; v++ {
				p.step(int(v), round)
			}
			s[w] = time.Since(t0).Nanoseconds()
		} else {
			for v := lo; v < hi; v++ {
				p.step(int(v), round)
			}
		}
		p.wg.Done()
	}
}

// run executes one round across all workers and blocks until the barrier.
// slots is the tracer's busy-time accumulator (nil when tracing is off).
func (p *workerPool) run(round int, slots []int64) {
	p.slots = slots
	p.wg.Add(len(p.start))
	for _, ch := range p.start {
		ch <- round
	}
	p.wg.Wait()
}

// close retires the workers and returns once all of them have. The
// pool must be idle (no run in flight). Waiting means no worker outlives
// its run, so what a run allocates does not depend on when its workers
// get scheduled to exit (the alloc guard compares exact counts).
func (p *workerPool) close() {
	for _, ch := range p.start {
		close(ch)
	}
	p.exited.Wait()
}
