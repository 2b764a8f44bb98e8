package diffcheck

import (
	"math/rand"
	"strconv"

	"subgraph"
	"subgraph/internal/graph"
)

// Case generation: small graphs (the shrinker prefers starting small),
// every pattern family the dispatcher handles, a bias toward planted
// positives (uniform sparse graphs rarely contain a C7), and a fault mix
// exercising every adversary code path. All randomness flows from the
// caller's rng, so a (generator seed, case index) pair is reproducible.

// maxGenVertices bounds generated host graphs. Big enough for every
// detector to take nontrivial round counts, small enough that a full
// oracle battery per case is cheap.
const maxGenVertices = 32

// GenerateCase draws the idx-th random case from rng.
func GenerateCase(rng *rand.Rand, idx int) *Case {
	n := 6 + rng.Intn(maxGenVertices-6+1)
	name, g := genGraph(rng, n)
	pattern := genPattern(rng)

	opts := subgraph.OptionsSpec{Seed: rng.Int63()}
	// Reps stays explicit and small for odd-cycle patterns: Reps=0 means
	// the amplified default there (L^(L-1) repetitions — cycle:7 defaults
	// to 117k reps), which would dominate the whole battery's budget for
	// zero extra oracle coverage. Trees ignore Reps but still take this
	// branch, so the case stream (and every seed's replay) is unchanged.
	if rng.Intn(2) == 0 || expensiveDefaultReps(pattern) {
		opts.Reps = 1 + rng.Intn(3)
	}
	if isResilientPattern(pattern) && rng.Intn(6) == 0 {
		opts.Resilient = true
	}
	if rng.Intn(3) == 0 {
		opts.Faults = genFaults(rng, g.N())
	}

	c := &Case{
		Name:    name,
		Seed:    rng.Int63(),
		N:       g.N(),
		Pattern: pattern,
		Options: opts,
	}
	for _, e := range g.Edges() {
		c.Edges = append(c.Edges, [2]int{e[0], e[1]})
	}
	return c
}

// genGraph draws a host topology on ~n vertices.
func genGraph(rng *rand.Rand, n int) (string, *graph.Graph) {
	switch rng.Intn(8) {
	case 0:
		return "gnm", graph.GNM(n, rng.Intn(2*n+1), rng)
	case 1:
		return "tree", graph.RandomTree(n, rng)
	case 2:
		l := 3 + rng.Intn(6)
		if l > n {
			l = n
		}
		g, _ := graph.PlantCycle(graph.GNP(n, 0.08, rng), l, rng)
		return "planted-cycle", g
	case 3:
		s := 3 + rng.Intn(3)
		if s > n {
			s = n
		}
		g, _ := graph.PlantClique(graph.GNP(n, 0.08, rng), s, rng)
		return "planted-clique", g
	case 4:
		return "cycle", graph.Cycle(n)
	case 5:
		k := 4 + rng.Intn(5)
		return "complete", graph.Complete(k)
	default:
		p := 0.05 + 0.30*rng.Float64()
		return "gnp", graph.GNP(n, p, rng)
	}
}

// genPattern draws a pattern spec from the ParsePattern space.
func genPattern(rng *rand.Rand) string {
	switch rng.Intn(10) {
	case 0:
		return "triangle"
	case 1:
		return "cycle:3"
	case 2:
		return "clique:3"
	case 3, 4:
		return "cycle:" + itoa(4+rng.Intn(5)) // C4..C8: even + odd detectors
	case 5:
		return "clique:" + itoa(2+rng.Intn(3))
	case 6, 7:
		return "path:" + itoa(2+rng.Intn(4))
	default:
		return "star:" + itoa(2+rng.Intn(4))
	}
}

// genFaults draws a fault plan mixing drops, corruption, crashes, and
// throttles. Corruption leans toward many flips on the traffic program's
// short payloads, the regime where with-replacement flip sampling would
// pick duplicate positions and cancel.
func genFaults(rng *rand.Rand, n int) *subgraph.FaultSpec {
	f := &subgraph.FaultSpec{Seed: rng.Int63()}
	if rng.Intn(2) == 0 {
		f.DropRate = 0.3 * rng.Float64()
	}
	if rng.Intn(2) == 0 {
		f.CorruptRate = 0.1 + 0.4*rng.Float64()
		f.CorruptFlips = 1 + rng.Intn(8)
	}
	for i := rng.Intn(3); i > 0; i-- {
		f.Crashes = append(f.Crashes, subgraph.CrashSpec{
			Vertex: rng.Intn(n), Round: 1 + rng.Intn(6),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		from := 1 + rng.Intn(6)
		f.Throttles = append(f.Throttles, subgraph.ThrottleSpec{
			FromRound: from, ToRound: from + rng.Intn(4), Bits: 8 + rng.Intn(57),
		})
	}
	if f.Plan() == nil {
		// Everything rolled empty: fall back to plain drops so the case
		// still exercises the fault path it was drawn for.
		f.DropRate = 0.1
	}
	return f
}

// expensiveDefaultReps reports whether GenerateCase forces an explicit
// Reps for this pattern: odd cycles, whose Reps=0 default amplifies to
// L^(L-1) repetitions, and trees, which ignore Reps and stay listed only
// so the generator's RNG draws, and so its case stream, do not change.
func expensiveDefaultReps(spec string) bool {
	h, err := subgraph.ParsePattern(spec)
	if err != nil {
		return false
	}
	if h.IsTree() {
		return true
	}
	return isResilientPattern(spec) && h.N() > 3 && h.N()%2 == 1
}

func isResilientPattern(spec string) bool {
	h, err := subgraph.ParsePattern(spec)
	if err != nil {
		return false
	}
	// Detect supports Resilient for triangles and cycles only.
	if h.N() == 3 && h.M() == 3 {
		return true
	}
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

func itoa(v int) string { return strconv.Itoa(v) }
