package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/serve"
)

// Each workload fixes one graph shape, because clique and triangle cost
// is driven by degree and density; mixing shapes would let the mix, not
// the code, decide which layer dominates.
type workload struct {
	name string
	// node is every node's configuration (zero takes serve's defaults);
	// nodes is the default number of worker nodes, and more than one puts
	// a cluster router in front of them.
	node  serve.Config
	nodes int
	// warmup is the number of unmeasured ops, split across the clients,
	// that finish set-up.
	warmup int
	// heapOps is the number of ops per client after which the live heap
	// is sampled. At the reference commit it is reached in the first
	// fifth of a 20-second run.
	heapOps int
	// generate builds the inputs set-up uploads.
	generate func(seed int64) *inputs
	// stream returns one client's op stream over those inputs.
	stream func(in *inputs, rng *rand.Rand, client int) stream
}

var workloads = []*workload{
	// detect-mix: the CONGEST engine and internal/core do most of the work,
	// and tree colour-coding at 256 repetitions sets the tail. Repeats are
	// a fixed quarter of reads, so the hit rate cannot drift with run
	// length.
	{
		name:     "detect-mix",
		nodes:    1,
		warmup:   200,
		heapOps:  250,
		generate: plantedGraphs,
		stream: func(in *inputs, rng *rand.Rand, _ int) stream {
			return &mixStream{in: in, rng: rng, patterns: []string{"triangle", "cycle:4", "clique:4", "path:4", "star:3"}, repeat: 0.25}
		},
	},
	// count-fresh: parse, digest, store insert with LRU eviction, bitset
	// build, batcher and kernel do the work; the CONGEST engine never runs.
	{
		name:     "count-fresh",
		node:     countNode,
		nodes:    1,
		warmup:   8,
		heapOps:  100,
		generate: countBases,
		stream: func(in *inputs, rng *rand.Rand, _ int) stream {
			return &freshStream{in: in, rng: rng}
		},
	},
	// churn: the count-fresh graph shape through the incremental path
	// instead (ApplyDelta, PutChild, CountDelta, cache forwarding), with
	// writes beside reads. A change that speeds up scratch building but
	// slows delta patching, or the reverse, shows against count-fresh.
	{
		name:     "churn",
		node:     countNode,
		nodes:    1,
		warmup:   8,
		heapOps:  500,
		generate: churnBases,
		stream: func(in *inputs, rng *rand.Rand, client int) stream {
			return &churnStream{rng: rng, cur: in.graphs[client], digest: in.digests[client]}
		},
	},
	// cluster-hits: the engine does almost nothing. The router hop, its
	// shared cache, the 10 ms resolver tick and the client's poll backoff
	// do the work: the typical read is a router cache hit, the tail is the
	// miss path through a worker.
	{
		name:     "cluster-hits",
		nodes:    3,
		warmup:   200,
		heapOps:  5000,
		generate: plantedGraphs,
		stream: func(in *inputs, rng *rand.Rand, _ int) stream {
			return &mixStream{in: in, rng: rng, patterns: []string{"triangle", "cycle:4", "clique:4"}, repeat: 0.9}
		},
	},
}

// countNode bounds the finished jobs a node keeps for polling. Every job
// holds its graph's simulation network, which a node builds even for
// count jobs, so at the default of 4096 the jobs of a 2000-vertex workload
// alone would keep about a gigabyte live.
var countNode = serve.Config{MaxRetainedJobs: 512}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs are what set-up generates and uploads.
type inputs struct {
	graphs  []*graph.Graph
	texts   []string // edge lists of graphs
	digests []string
	// counts[i] holds the K3, K4 and K5 counts of graphs[i] (count-fresh).
	counts [][]int64
	// primes are count jobs set-up runs so delta chains start with cached
	// counts to forward (churn).
	primes []serve.JobSpec
}

func newInputs(gs []*graph.Graph) *inputs {
	in := &inputs{graphs: gs}
	for _, g := range gs {
		in.texts = append(in.texts, edgeList(g))
		in.digests = append(in.digests, g.Digest())
	}
	return in
}

func edgeList(g *graph.Graph) string {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return buf.String()
}

// plantedGraphs is the historical loadgen topology set: four
// GNP(150, 1.2/n) backgrounds with a planted triangle, C4 or K4, so every
// detect pattern has positive and negative instances.
func plantedGraphs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	var gs []*graph.Graph
	for i := 0; i < 4; i++ {
		g := subgraph.GNP(150, 1.2/150, rng)
		switch i % 3 {
		case 0:
			g, _ = subgraph.PlantClique(g, 3, rng)
		case 1:
			g, _ = subgraph.PlantCycle(g, 4, rng)
		case 2:
			g, _ = subgraph.PlantClique(g, 4, rng)
		}
		gs = append(gs, g)
	}
	return newInputs(gs)
}

const (
	countN      = 2000
	countDegree = 40.0
)

var countPatterns = []string{"triangle", "clique:4", "clique:5"}

// countBases builds four GNP(2000, 40/(n-1)) graphs with a planted K5 and
// their exact K3/K4/K5 counts, which every relabelled copy shares.
func countBases(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	var gs []*graph.Graph
	for i := 0; i < 4; i++ {
		g := subgraph.GNP(countN, countDegree/(countN-1), rng)
		g, _ = subgraph.PlantClique(g, 5, rng)
		gs = append(gs, g)
	}
	in := newInputs(gs)
	k := kernel.New(0)
	defer k.Close()
	for _, g := range gs {
		b := graph.NewBitAdjacency(g)
		in.counts = append(in.counts, []int64{k.Count(b, 3), k.Count(b, 4), k.Count(b, 5)})
	}
	return in
}

// churnBases builds one GNP(2000, 40/(n-1)) graph per client and primes
// both of the chain's read patterns, so every delta forwards two counts.
func churnBases(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	var gs []*graph.Graph
	for c := 0; c < clients; c++ {
		gs = append(gs, subgraph.GNP(countN, countDegree/(countN-1), rng))
	}
	in := newInputs(gs)
	for _, d := range in.digests {
		for _, p := range churnReads {
			in.primes = append(in.primes, serve.JobSpec{Graph: d, Pattern: p, Mode: serve.ModeCount})
		}
	}
	return in
}

// op is one closed-loop step of a client: at most one write, then its
// reads, submitted back to back and then awaited.
type op struct {
	upload string              // edge list to upload
	parent string              // digest a delta applies to
	delta  *serve.DeltaRequest // delta to apply to parent
	digest string              // digest the write must produce
	reads  []serve.JobSpec     // jobs to run
	counts []int64             // count-fresh: the exact count each read must return
	prev   *graph.Graph        // churn: the local parent graph
	mirror *graph.Graph        // churn: the local successor graph
	step   int                 // churn: position in the chain
}

// A stream yields one client's ops. Generation happens outside every
// timer.
type stream interface {
	next() *op
}

func uploadOp(g *graph.Graph) *op {
	return &op{upload: edgeList(g), digest: g.Digest()}
}

// relabelled returns g under a random vertex permutation: same shape and
// counts, new content digest.
func relabelled(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	return graph.Relabel(g, rng.Perm(g.N()))
}

// recentSpecs bounds how far back a repeated read may reach. Two clients'
// windows stay far below the result caches' capacity, so a repeat is a
// hit by construction and the hit rate cannot drift with run length.
const recentSpecs = 64

// mixStream draws detect reads over the set-up graphs: a repeat of a
// recent spec with probability repeat, otherwise a fresh spec whose seed
// comes from the stream, so it misses every cache. It makes no writes.
type mixStream struct {
	in       *inputs
	rng      *rand.Rand
	patterns []string
	repeat   float64
	recent   []serve.JobSpec
	pos      int
}

func (s *mixStream) next() *op {
	if len(s.recent) > 0 && s.rng.Float64() < s.repeat {
		return &op{reads: []serve.JobSpec{s.recent[s.rng.Intn(len(s.recent))]}}
	}
	spec := serve.JobSpec{
		Graph:   s.in.digests[s.rng.Intn(len(s.in.digests))],
		Pattern: s.patterns[s.rng.Intn(len(s.patterns))],
		Options: subgraph.OptionsSpec{Seed: s.rng.Int63()},
	}
	if len(s.recent) < recentSpecs {
		s.recent = append(s.recent, spec)
	} else {
		s.recent[s.pos] = spec
		s.pos = (s.pos + 1) % recentSpecs
	}
	return &op{reads: []serve.JobSpec{spec}}
}

// freshStream uploads a relabelled copy of a base graph and counts K3,
// K4 and K5 on it. The relabelling changes the digest, so neither the
// store nor the result cache can answer, while the counts stay known.
type freshStream struct {
	in  *inputs
	rng *rand.Rand
}

func (s *freshStream) next() *op {
	i := s.rng.Intn(len(s.in.graphs))
	o := uploadOp(relabelled(s.in.graphs[i], s.rng))
	for _, p := range countPatterns {
		o.reads = append(o.reads, serve.JobSpec{Graph: o.digest, Pattern: p, Mode: serve.ModeCount})
	}
	o.counts = s.in.counts[i]
	return o
}

// churnReads are counted on every successor; the first is also the
// delta's watch pattern.
var churnReads = []string{"clique:4", "triangle"}

const (
	churnChanges    = 8   // edge changes per delta: 4 deletes + 4 inserts
	churnFullChecks = 100 // every this many steps the mirror is recounted from scratch
)

// churnStream walks one delta chain, keeping the local mirror the
// server's successor digests and counts are checked against.
type churnStream struct {
	rng    *rand.Rand
	cur    *graph.Graph
	digest string
	step   int
}

func (s *churnStream) next() *op {
	d := churnDelta(s.rng, s.cur, churnChanges)
	res, err := graph.ApplyDelta(s.cur, d)
	if err != nil {
		panic(fmt.Sprintf("churn: a delta drawn against the mirror failed to apply: %v", err))
	}
	child := res.Graph
	o := &op{
		parent: s.digest,
		delta:  &serve.DeltaRequest{Insert: d.Insert, Delete: d.Delete, Watch: churnReads[:1]},
		digest: child.Digest(),
		prev:   s.cur,
		mirror: child,
		step:   s.step,
	}
	for _, p := range churnReads {
		o.reads = append(o.reads, serve.JobSpec{Graph: o.digest, Pattern: p, Mode: serve.ModeCount})
	}
	s.cur, s.digest = child, o.digest
	s.step++
	return o
}

// churnDelta draws half deletes and half inserts (so density stays put),
// sampled without replacement against g.
func churnDelta(rng *rand.Rand, g *graph.Graph, changes int) graph.EdgeDelta {
	var d graph.EdgeDelta
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	nDel := min(changes/2, len(edges))
	d.Delete = append(d.Delete, edges[:nDel]...)
	used := make(map[[2]int]bool, changes)
	for _, e := range d.Delete {
		used[e] = true
	}
	n := g.N()
	for tries := 0; len(d.Insert) < changes-nDel && tries < 100*changes; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		e := [2]int{min(u, v), max(u, v)}
		if g.HasEdge(e[0], e[1]) || used[e] {
			continue
		}
		d.Insert = append(d.Insert, e)
		used[e] = true
	}
	return d
}

// streamRand seeds client c's op stream from the run seed.
func streamRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))
}

// fingerprint hashes the set-up inputs and the first k ops of every
// client's stream: the same seed must give the same hash, so both sides
// of a comparison replay identical inputs.
func fingerprint(w *workload, seed int64, k int) string {
	h := sha256.New()
	in := w.generate(seed)
	for _, t := range in.texts {
		h.Write([]byte(t))
	}
	enc := json.NewEncoder(h)
	for c := 0; c < clients; c++ {
		s := w.stream(in, streamRand(seed, c), c)
		for i := 0; i < k; i++ {
			o := s.next()
			h.Write([]byte(o.upload))
			if err := enc.Encode([]any{o.parent, o.delta, o.reads}); err != nil {
				panic(err) // plain structs always encode
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
