// Package subgraph is a library for distributed subgraph detection in the
// CONGEST model, reproducing "Possibilities and Impossibilities for
// Distributed Subgraph Detection" (Fischer, Gonen, Kuhn, Oshman;
// SPAA 2018).
//
// It bundles:
//
//   - a bit-exact CONGEST / LOCAL / broadcast-CONGEST simulator
//     (sequential and parallel engines) and a Congested Clique simulator;
//   - the paper's detection algorithms: the Theorem 1.1 sublinear
//     even-cycle detector, the O(n) color-coded-BFS cycle baseline,
//     constant-round tree detection, (Δ+1)-round clique and complete
//     multipartite detection, generic edge-collection detection, and
//     LOCAL-model detection;
//   - the paper's lower-bound machinery: the H_k / G_{k,n} family with
//     the set-disjointness reduction (Theorem 1.2), its bipartite variant
//     (Section 3.4), the deterministic triangle-vs-hexagon fooling
//     adversary (Theorem 4.1), and the one-round randomized bandwidth
//     experiment (Theorem 5.1);
//   - K_s counting (Lemma 1.3) and congested-clique K_s listing.
//
// Quick start: build a topology with NewGraphBuilder or a generator, wrap
// it in a Network, and call Detect with a pattern — the dispatcher picks
// the best algorithm the paper provides for that pattern shape. The
// sub-packages under internal/ carry the full APIs; this facade re-exports
// the common entry points.
package subgraph

import (
	"fmt"
	"time"

	"subgraph/internal/cclique"
	"subgraph/internal/congest"
	"subgraph/internal/core"
	"subgraph/internal/graph"
	"subgraph/internal/obs"
)

// Re-exported core types. The aliases expose the full method sets of the
// underlying implementations.
type (
	// Graph is an immutable undirected simple graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges for a Graph.
	GraphBuilder = graph.Builder
	// Network is a topology with an identifier assignment.
	Network = congest.Network
	// NodeID is a node identifier.
	NodeID = congest.NodeID
	// Stats aggregates communication measurements of a run.
	Stats = congest.Stats
	// FaultPlan is a seeded, declarative fault-injection configuration:
	// message drops (Bernoulli and targeted), payload corruption,
	// crash-stop failures, and delivery throttling.
	FaultPlan = congest.FaultPlan
	// Crash is a crash-stop failure entry of a FaultPlan.
	Crash = congest.Crash
	// TargetedDrop is a per-edge per-round drop entry of a FaultPlan.
	TargetedDrop = congest.TargetedDrop
	// Throttle is a delivery-capacity window entry of a FaultPlan.
	Throttle = congest.Throttle
	// ResilientConfig tunes the ack/retransmit decorator enabled by
	// Options.Resilient.
	ResilientConfig = congest.ResilientConfig
	// Tracer receives streaming run events (rounds, messages, faults,
	// node transitions, engine timings) from the simulator. Build one
	// with NewJSONLTracer / NewCollector, or combine several with
	// MultiTracer.
	Tracer = obs.Tracer
	// Collector is a Tracer aggregating events into metrics and a
	// machine-readable RunReport.
	Collector = obs.Collector
	// RunReport is the machine-readable run report built by a Collector.
	RunReport = obs.RunReport
	// JSONLTracer is a Tracer streaming events as JSON Lines.
	JSONLTracer = obs.JSONLTracer
	// JSONLOptions tunes a JSONLTracer (timing/payload omission).
	JSONLOptions = obs.JSONLOptions
)

// Observability constructors re-exported from internal/obs.
var (
	// NewJSONLTracer streams run events to w as JSON Lines.
	NewJSONLTracer = obs.NewJSONLTracer
	// NewJSONLTracerOptions is NewJSONLTracer with explicit options.
	NewJSONLTracerOptions = obs.NewJSONLTracerOptions
	// NewCollector aggregates run events into metrics and a RunReport.
	NewCollector = obs.NewCollector
	// MultiTracer fans events out to several tracers (nils skipped).
	MultiTracer = obs.Multi
)

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewNetwork wraps a graph with the identity identifier assignment.
func NewNetwork(g *Graph) *Network { return congest.NewNetwork(g) }

// NewNetworkWithIDs wraps a graph with an explicit identifier assignment.
func NewNetworkWithIDs(g *Graph, ids []NodeID) *Network {
	return congest.NewNetworkWithIDs(g, ids)
}

// Generators re-exported from the graph package.
var (
	// Cycle returns C_n.
	Cycle = graph.Cycle
	// Path returns the path on n vertices.
	Path = graph.Path
	// Complete returns K_n.
	Complete = graph.Complete
	// CompleteBipartite returns K_{a,b}.
	CompleteBipartite = graph.CompleteBipartite
	// Star returns K_{1,n}.
	Star = graph.Star
	// GNP returns an Erdős–Rényi random graph.
	GNP = graph.GNP
	// GNM returns a uniform random graph with exactly m edges.
	GNM = graph.GNM
	// RandomTree returns a uniform random labeled tree.
	RandomTree = graph.RandomTree
	// PlantCycle adds a cycle through random vertices.
	PlantCycle = graph.PlantCycle
	// PlantClique adds a clique on random vertices.
	PlantClique = graph.PlantClique
	// Relabel returns the isomorphic copy of a graph under a vertex
	// permutation — the metamorphic-testing helper: detection outcomes of
	// the exact detectors are invariant under Relabel.
	Relabel = graph.Relabel
)

// ContainsSubgraph is the centralized ground truth (Definition 1:
// subgraph containment, not induced).
func ContainsSubgraph(h, g *Graph) bool { return graph.ContainsSubgraph(h, g) }

// Edge-list serialization, re-exported for the CLI tools and users with
// on-disk topologies.
var (
	// ReadEdgeList parses "u v" lines (optional "n <count>" header).
	ReadEdgeList = graph.ReadEdgeList
	// WriteEdgeList writes the matching format.
	WriteEdgeList = graph.WriteEdgeList
)

// Options tunes Detect.
type Options struct {
	// Reps is the number of color-coding repetitions for the randomized
	// cycle detectors (0 = a sensible default for the pattern). Trees,
	// cliques, C4 and the other complete multipartite patterns are
	// detected exactly and ignore it.
	Reps int
	// Seed drives all randomness.
	Seed int64
	// Parallel selects the goroutine simulator engine.
	Parallel bool
	// Faults injects a fault plan into the simulator's delivery phase
	// (nil = perfectly reliable network).
	Faults *FaultPlan
	// Deadline aborts the run after a wall-clock budget (0 = none). On
	// expiry Detect returns the partial Report alongside an error
	// wrapping context.DeadlineExceeded.
	Deadline time.Duration
	// Resilient wraps every node in the ack/bounded-retransmit decorator
	// so detection tolerates message loss, at a constant-factor round and
	// bandwidth overhead. Detect supports it for triangle and cycle
	// patterns (see CheckResilient); other patterns, and DetectLocal,
	// return an error.
	Resilient bool
	// Trace streams run events (rounds, messages, faults, node
	// transitions, timings) to an observability sink — a JSONL trace
	// file, a metrics Collector, or both via MultiTracer. Nil disables
	// instrumentation at zero cost to the simulator hot loop.
	Trace Tracer
}

// Report summarizes a detection run.
type Report struct {
	// Detected is the network's decision: true means some node rejected,
	// i.e. a copy of the pattern was found (or, for the even-cycle
	// detector, certified to exist by the edge bound).
	Detected bool
	// Algorithm names the dispatched algorithm.
	Algorithm string
	// Rounds is the number of CONGEST rounds used.
	Rounds int
	// BandwidthBits is the per-edge bandwidth the algorithm ran under.
	BandwidthBits int
	// Stats holds the underlying simulator measurements.
	Stats Stats
}

// Detect decides whether the network contains a copy of pattern h,
// dispatching on the pattern's shape:
//
//   - trees → the exact representative-family detector, in a number of
//     rounds set by the pattern alone;
//   - triangles → the exact Δ-round neighbor-exchange detector, or the
//     √(2m)-round degree split when that budget is smaller;
//   - other complete multipartite patterns (cliques K_s, C4 = K_{2,2},
//     K_{a,b}, …) → the exact neighbor-exchange detector, in Δ+1 rounds;
//   - even cycles C_{2k}, k ≥ 3 → the Theorem 1.1 sublinear algorithm;
//   - odd cycles of length 5 or more → the O(n) pipelined color-BFS
//     baseline;
//   - anything else → the O(m+n) edge-collection detector (exact).
//
// The randomized detectors (cycles of length 5 or more) are one-sided: a
// "detected" answer is always correct, a "not detected" answer is correct
// with probability growing in Options.Reps. The other detectors are exact
// on a fault-free network.
func Detect(nw *Network, h *Graph, opts Options) (*Report, error) {
	if h == nil || h.N() == 0 {
		return nil, fmt.Errorf("subgraph: empty pattern")
	}
	if err := CheckResilient(h, opts); err != nil {
		return nil, err
	}
	x := opts.exec()
	switch {
	case h.IsTree():
		r, err := core.DetectTree(nw, core.TreeConfig{Exec: x, Tree: h})
		if r == nil {
			return nil, err
		}
		return report("tree-representative-families", r.Outcome), err

	case h.N() == 3 && h.M() == 3:
		// Triangles: both exact detectors are O(log n)-bandwidth; pick
		// the cheaper round budget — Δ (neighbor exchange) vs √(2m)
		// (degree split). Resilient mode forces neighbor exchange, the
		// variant the decorator supports.
		delta := nw.G.MaxDegree()
		if opts.Resilient || float64(delta*delta) <= float64(2*nw.G.M()) {
			r, err := core.DetectTriangle(nw, core.TriangleConfig{Exec: x})
			if r == nil {
				return nil, err
			}
			return report("triangle-neighbor-exchange", r.Outcome), err
		}
		r, err := core.DetectTriangleSplit(nw, core.TriangleSplitConfig{Exec: x})
		if r == nil {
			return nil, err
		}
		return report("triangle-degree-split", r.Outcome), err

	case h.IsCompleteMultipartite():
		r, err := core.DetectNeighborExchange(nw, core.NeighborExchangeConfig{Exec: x, H: h})
		if r == nil {
			return nil, err
		}
		return report("neighbor-exchange", r.Outcome), err

	case isCycle(h):
		L := h.N()
		if L%2 == 0 {
			reps := opts.Reps
			if reps <= 0 {
				reps = 1
			}
			r, err := core.DetectEvenCycle(nw, core.EvenCycleConfig{
				Exec: x, K: L / 2, PhaseIReps: reps, PhaseIIReps: reps,
			})
			if r == nil {
				return nil, err
			}
			return report("even-cycle-sublinear", r.Outcome), err
		}
		reps := opts.Reps
		if reps <= 0 {
			reps = core.DefaultCycleReps(L)
		}
		r, err := core.DetectCycleLinear(nw, core.LinearCycleConfig{Exec: x, CycleLen: L, Reps: reps})
		if r == nil {
			return nil, err
		}
		return report("cycle-linear", r.Outcome), err

	default:
		r, err := core.DetectCollect(nw, core.CollectConfig{Exec: x, H: h})
		if r == nil {
			return nil, err
		}
		return report("edge-collection", r.Outcome), err
	}
}

// CheckResilient returns the error Detect gives h under opts when
// opts.Resilient asks for a detector the ack/retransmit decorator does
// not support, and nil otherwise. Triangle and cycle patterns may run
// resilient; trees, larger cliques and general patterns may not.
func CheckResilient(h *Graph, opts Options) error {
	if !opts.Resilient || isCycle(h) {
		return nil
	}
	kind := "general"
	if h.IsTree() {
		kind = "tree"
	} else if isClique(h) {
		kind = "clique"
	}
	return fmt.Errorf("subgraph: resilient mode is not supported for %s patterns", kind)
}

// DetectLocal decides pattern containment in the LOCAL model (unbounded
// messages, O(|h|) rounds) — exact and deterministic. It does not take
// Options.Resilient.
func DetectLocal(nw *Network, h *Graph, opts Options) (*Report, error) {
	if opts.Resilient {
		return nil, fmt.Errorf("subgraph: resilient mode is not supported in the LOCAL model")
	}
	r, err := core.DetectLocal(nw, core.LocalConfig{Exec: opts.exec(), H: h})
	if r == nil {
		return nil, err
	}
	return report("local-ball-collection", r.Outcome), err
}

// exec is the one place Options become the simulator's run knobs.
func (o Options) exec() core.Exec {
	x := core.Exec{Seed: o.Seed, Parallel: o.Parallel, Faults: o.Faults, Deadline: o.Deadline, Tracer: o.Trace}
	if o.Resilient {
		x.Resilient = &ResilientConfig{}
	}
	return x
}

// report is the facade Report of a detector's Outcome.
func report(algorithm string, o core.Outcome) *Report {
	return &Report{Detected: o.Detected, Algorithm: algorithm,
		Rounds: o.Rounds, BandwidthBits: o.Bandwidth, Stats: o.Stats}
}

// CliqueListing is the outcome of congested-clique K_s listing.
type CliqueListing struct {
	// Cliques lists every K_s exactly once, vertices ascending.
	Cliques [][]int
	// Rounds is the congested-clique round count (~n^{1-2/s} on dense
	// inputs, matching the paper's Ω̃(n^{1-2/s}) listing lower bound).
	Rounds int
	// BandwidthBits is the per-pair bandwidth used (Θ(log n) by default).
	BandwidthBits int
}

// ListCliques lists all K_s copies of g in the Congested Clique model
// (all-to-all communication, bandwidthBits per ordered pair per round;
// pass 0 for the Θ(log n) default), using the partition-based
// Dolev–Lenzen–Peled scheme generalized to K_s.
func ListCliques(g *Graph, s int, bandwidthBits int) (*CliqueListing, error) {
	res, err := cclique.ListCliques(g, s, bandwidthBits)
	if err != nil {
		return nil, err
	}
	return &CliqueListing{
		Cliques:       res.Cliques,
		Rounds:        res.Stats.Rounds,
		BandwidthBits: res.B,
	}, nil
}

// isCycle reports whether h is C_L for some L ≥ 3.
func isCycle(h *Graph) bool {
	if h.N() < 3 || h.M() != h.N() || !h.Connected() {
		return false
	}
	for v := 0; v < h.N(); v++ {
		if h.Degree(v) != 2 {
			return false
		}
	}
	return true
}

// isClique reports whether h is K_s for some s ≥ 2.
func isClique(h *Graph) bool {
	n := h.N()
	return n >= 2 && h.M() == n*(n-1)/2
}
