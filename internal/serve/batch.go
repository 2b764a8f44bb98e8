package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
)

// Batched kernel execution for count-mode jobs.
//
// Every admitted count job goes through the normal bounded queue (so
// admission control stays per-job honest) and is also indexed here by
// graph digest. The worker that dequeues the first count job for a
// digest claims it plus every other pending count job on the same graph
// and answers them all over one shared bitset adjacency, running one
// kernel pass per distinct clique size in the batch. Batchmates still
// surface later from the queue channel; the claimed flag makes those
// dequeues no-ops.
//
// This is also the SLO guard's pressure valve: under degraded/critical
// levels count jobs are admitted rather than shed (handlers.go), because
// their marginal cost collapses into an already-running pass.

// batcher state lives under Server.mu (its operations are map touches,
// never blocking), which also guards every job's batchClaimed flag.
type batcher struct {
	pending map[string][]*job // graph digest → admitted, unclaimed count jobs
}

func newBatcher() *batcher {
	return &batcher{pending: make(map[string][]*job)}
}

// add indexes an enqueued count job. A job that was already claimed
// (a worker dequeued it before the submitter got here) is not re-added.
func (s *Server) batchAdd(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.batchClaimed {
		return
	}
	s.batch.pending[j.digest] = append(s.batch.pending[j.digest], j)
}

// batchTryClaim claims a dequeued count job for the calling worker.
// false means an earlier kernel pass already owns (or answered) it and
// the dequeue is a no-op.
func (s *Server) batchTryClaim(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.batchClaimed {
		return false
	}
	j.batchClaimed = true
	list := s.batch.pending[j.digest]
	for i, e := range list {
		if e == j {
			s.batch.pending[j.digest] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(s.batch.pending[j.digest]) == 0 {
		delete(s.batch.pending, j.digest)
	}
	return true
}

// batchTake claims and returns every pending count job for a digest.
func (s *Server) batchTake(digest string) []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.batch.pending[digest]
	delete(s.batch.pending, digest)
	for _, j := range list {
		j.batchClaimed = true
	}
	return list
}

// runKernelBatch answers the claimed leader plus every batchable count
// job on the same graph, one kernel pass per distinct clique size. Called
// from a worker with the leader's queue span already finished.
func (s *Server) runKernelBatch(leader *job) {
	batch := append([]*job{leader}, s.batchTake(leader.digest)...)
	started := time.Now()
	for _, j := range batch {
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
	}
	// Batchmates leave the queue logically now; their later channel
	// dequeues are claimed no-ops. Their queue-wait observations land
	// here so the SLO guard sees the real wait.
	for _, j := range batch[1:] {
		wait := time.Since(j.enqueuedAt)
		j.queueSpan.Finish()
		s.reg.Histogram(HistQueueWaitNs, JobWallBuckets).
			Observe(float64(wait.Nanoseconds()))
		s.slo.observeQueueWait(wait)
	}

	// One adjacency, shared by every pattern in the batch — resolved
	// through the store's per-digest cache, so repeat count jobs (and a
	// delta watch that already built this graph's adjacency) skip the
	// build.
	buildSpan := leader.rootSpan.StartChild("bitset_build")
	bits, ok := s.store.Bits(leader.digest)
	if !ok {
		// Every batched job pinned its graph at admission and holds the pin
		// until it finishes, so a missing graph is an internal disagreement
		// between the store and the batcher: fail the batch loudly rather
		// than answer from a graph the store no longer vouches for.
		buildSpan.Annotate("error", "graph missing")
		buildSpan.Finish()
		s.reg.Counter(MetricKernelGraphMissing).Inc()
		s.failKernelBatch(batch, started, fmt.Sprintf(
			"internal error: pinned graph %s missing from the store", leader.digest))
		return
	}
	buildSpan.Annotate("mode", string(bits.Mode()))
	buildSpan.Annotate("n", strconv.Itoa(bits.N()))
	buildSpan.Annotate("m", strconv.Itoa(bits.M()))
	buildSpan.Annotate("degeneracy", strconv.Itoa(bits.Degeneracy()))
	buildSpan.Finish()
	algo := kernel.AlgorithmName(bits.Mode())

	// Each job gets a kernel_run span under its own root. The first job
	// needing a clique size pays for the count inside its span; batchmates
	// sharing the size get near-zero spans annotated shared=true.
	counts := make(map[int]int64, len(batch))
	s.reg.Counter(MetricKernelRuns).Inc()
	s.reg.Counter(MetricKernelJobs).Add(int64(len(batch)))
	if len(batch) > 1 {
		s.reg.Counter(MetricJobsBatched).Add(int64(len(batch) - 1))
	}
	for _, j := range batch {
		sp := j.rootSpan.StartChild("kernel_run")
		cnt, ok := counts[j.cliqueS]
		if !ok {
			cnt = s.kernel.Count(bits, j.cliqueS)
			counts[j.cliqueS] = cnt
		} else {
			sp.Annotate("shared", "true")
		}
		sp.Annotate("engine", algo)
		sp.Annotate("clique_size", strconv.Itoa(j.cliqueS))
		sp.Annotate("count", strconv.FormatInt(cnt, 10))
		sp.Annotate("batch_size", strconv.Itoa(len(batch)))
		sp.Finish()

		res := CountResult(cnt, bits.Mode())
		respSpan := j.rootSpan.StartChild("response")
		s.reg.Counter(MetricJobsCompleted).Inc()
		wall := time.Since(started)
		s.reg.Histogram(HistJobWallNs, JobWallBuckets).
			Observe(float64(wall.Nanoseconds()))
		s.slo.observeLatency(wall)
		s.cache.Put(j.key, res)
		respSpan.Finish()
		j.rootSpan.Finish()
		s.finish(j, StateDone, res, "", wall.Milliseconds())
		s.logger.Info("job done",
			"job_id", j.id, "trace_id", j.tl.TraceID(), "digest", j.digest,
			"pattern", j.pattern, "mode", ModeCount, "engine", algo,
			"count", cnt, "batch_size", len(batch),
			"latency_ms", j.latencyNs/1e6)
	}
	s.reg.Histogram(HistKernelRunNs, JobWallBuckets).
		Observe(float64(time.Since(started).Nanoseconds()))
}

// failKernelBatch finishes every job of a kernel pass that could not run
// as failed with msg, releasing each job's pin and waking its waiters.
func (s *Server) failKernelBatch(batch []*job, started time.Time, msg string) {
	for _, j := range batch {
		j.rootSpan.Finish()
		s.reg.Counter(MetricJobsFailed).Inc()
		s.finish(j, StateFailed, nil, msg, time.Since(started).Milliseconds())
		s.logger.Error("job failed",
			"job_id", j.id, "trace_id", j.tl.TraceID(), "digest", j.digest,
			"pattern", j.pattern, "mode", ModeCount, "err", msg)
	}
}

// CountResult is the count-mode result envelope for a graph served in
// mode: the one a kernel batch pass caches, and the one a derived count
// must equal byte for byte. Rounds and BandwidthBits stay zero and Stats
// is the zero Stats envelope: no simulation ran, and the envelope shape
// must match detect-mode results byte for byte in structure.
func CountResult(cnt int64, mode graph.BitAdjacencyMode) *JobResult {
	statsJSON, _ := json.Marshal(subgraph.Stats{})
	return &JobResult{
		Detected:  cnt > 0,
		Algorithm: kernel.AlgorithmName(mode),
		Stats:     statsJSON,
		Count:     &cnt,
	}
}
