// congestsim runs a distributed subgraph detector on a generated network
// and reports its decision and communication cost.
//
// Examples:
//
//	congestsim -graph gnp -n 100 -p 0.05 -pattern cycle:4
//	congestsim -graph gnp -n 100 -p 0.05 -pattern cycle:6 -reps 100
//	congestsim -graph complete -n 30 -pattern clique:5
//	congestsim -graph planted-cycle -n 200 -cycle 6 -pattern cycle:6 -model local
//
// Observability: -tracefile streams every run event as JSON Lines,
// -report writes a machine-readable metrics report, and the
// -cpuprofile / -memprofile / -trace / -pprof flags wire Go's profilers:
//
//	congestsim -graph gnp -n 200 -pattern cycle:4 -seed 7 \
//	    -tracefile run.jsonl -report report.json -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"subgraph"
	"subgraph/internal/obs"
)

func main() {
	os.Exit(run())
}

// run is main's body; returning (instead of os.Exit-ing) lets the
// deferred profile/trace finalizers flush before the process exits.
func run() int {
	var (
		file      = flag.String("file", "", "load the topology from an edge-list file instead of generating one")
		graphKind = flag.String("graph", "gnp", "topology: gnp | complete | cycle | path | tree | planted-cycle | planted-clique")
		n         = flag.Int("n", 100, "number of nodes")
		p         = flag.Float64("p", 0.05, "edge probability for gnp / background of planted graphs")
		cycleLen  = flag.Int("cycle", 4, "planted cycle length (graph=planted-cycle)")
		cliqueSz  = flag.Int("clique", 4, "planted clique size (graph=planted-clique)")
		pattern   = flag.String("pattern", "cycle:4", "pattern: triangle | cycle:L | clique:S | path:L | star:L")
		model     = flag.String("model", "congest", "model: congest | local")
		reps      = flag.Int("reps", 0, "color-coding repetitions for cycle:L with L ≥ 5 (0 = default; trees, triangles, cliques and cycle:4 are exact and ignore it)")
		seed      = flag.Int64("seed", 1, "random seed")
		parallel  = flag.Bool("parallel", false, "use the parallel simulator engine")
		drop      = flag.Float64("drop", 0, "fault injection: per-message drop probability in [0,1]")
		corrupt   = flag.Float64("corrupt", 0, "fault injection: per-message bit-flip probability in [0,1]")
		crash     = flag.String("crash", "", "fault injection: crash-stop failures as \"v@r,v@r\" (vertex v crashes at round r)")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget for the run (0 = none, or 1m for a tree pattern under faults); on expiry the partial result is printed")
		resilient = flag.Bool("resilient", false, "wrap nodes in the ack/retransmit decorator to tolerate message loss")
		tracefile = flag.String("tracefile", "", "stream run events to this file as JSON Lines")
		report    = flag.String("report", "", "write a JSON run report (metrics, per-round series) to this file")
		dump      = flag.String("dump", "", "write the (generated or loaded) topology to this edge-list file and continue")
	)
	var profiles obs.Profiles
	profiles.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	rng := rand.New(rand.NewSource(*seed))
	var g *subgraph.Graph
	if *file != "" {
		g, err = loadGraph(*file)
		*graphKind = *file
	} else {
		g, err = buildGraph(*graphKind, *n, *p, *cycleLen, *cliqueSz, rng)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	h, err := buildPattern(*pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *dump != "" {
		if err := dumpGraph(*dump, g); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("dump    : wrote %s\n", *dump)
	}

	fmt.Printf("network : %s n=%d m=%d\n", *graphKind, g.N(), g.M())
	fmt.Printf("pattern : %s (|V|=%d |E|=%d)\n", *pattern, h.N(), h.M())

	faults, err := buildFaultPlan(*seed, *drop, *corrupt, *crash)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *deadline == 0 && faults != nil && h.IsTree() {
		// A tree node waits for every neighbour's end marker, so one lost
		// marker leaves the run to its declared round cap, which grows
		// steeply with the tree (84,982 rounds for path:12).
		*deadline = time.Minute
	}

	// Observability sinks: a streaming JSONL trace and/or a metrics
	// collector for the JSON run report, fanned out from one Tracer.
	var trace *subgraph.JSONLTracer
	var collector *subgraph.Collector
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		trace = subgraph.NewJSONLTracer(f)
		defer func() {
			if err := trace.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tracefile: %v\n", err)
			}
		}()
	}
	if *report != "" {
		collector = subgraph.NewCollector()
	}

	nw := subgraph.NewNetwork(g)
	opts := subgraph.Options{
		Reps: *reps, Seed: *seed, Parallel: *parallel,
		Faults: faults, Deadline: *deadline, Resilient: *resilient,
	}
	if trace != nil || collector != nil {
		var tracers []subgraph.Tracer
		if trace != nil {
			tracers = append(tracers, trace)
		}
		if collector != nil {
			tracers = append(tracers, collector)
		}
		opts.Trace = subgraph.MultiTracer(tracers...)
	}
	var rep *subgraph.Report
	if *model == "local" {
		rep, err = subgraph.DetectLocal(nw, h, opts)
	} else {
		rep, err = subgraph.Detect(nw, h, opts)
	}
	if rep == nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err != nil {
		// Deadline / cancellation: report the partial result.
		fmt.Printf("aborted  : %v\n", err)
	}
	fmt.Printf("algorithm: %s\n", rep.Algorithm)
	fmt.Printf("detected : %v\n", rep.Detected)
	fmt.Printf("bandwidth: %d bits/edge/round (0 = unbounded)\n", rep.BandwidthBits)
	fmt.Print(rep.Stats.Summary())
	fmt.Printf("truth    : %v (centralized check)\n", subgraph.ContainsSubgraph(h, g))

	if collector != nil {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		werr := collector.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", werr)
			return 2
		}
		fmt.Printf("report   : wrote %s\n", *report)
	}
	if *tracefile != "" {
		fmt.Printf("trace    : wrote %s\n", *tracefile)
	}
	return 0
}

// buildFaultPlan assembles a FaultPlan from the -drop / -corrupt / -crash
// flags; nil when no fault flag is set.
func buildFaultPlan(seed int64, drop, corrupt float64, crash string) (*subgraph.FaultPlan, error) {
	var crashes []subgraph.Crash
	if crash != "" {
		for _, spec := range strings.Split(crash, ",") {
			parts := strings.SplitN(strings.TrimSpace(spec), "@", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("bad -crash entry %q: want v@r", spec)
			}
			v, err1 := strconv.Atoi(parts[0])
			r, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad -crash entry %q: want v@r", spec)
			}
			crashes = append(crashes, subgraph.Crash{Vertex: v, Round: r})
		}
	}
	if drop == 0 && corrupt == 0 && len(crashes) == 0 {
		return nil, nil
	}
	return &subgraph.FaultPlan{
		Seed:        seed,
		DropRate:    drop,
		CorruptRate: corrupt,
		Crashes:     crashes,
	}, nil
}

// dumpGraph writes g in the edge-list format the -file flag and the
// subgraphd upload endpoint read back.
func dumpGraph(path string, g *subgraph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := subgraph.WriteEdgeList(f, g)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func loadGraph(path string) (*subgraph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return subgraph.ReadEdgeList(f)
}

func buildGraph(kind string, n int, p float64, cycleLen, cliqueSz int, rng *rand.Rand) (*subgraph.Graph, error) {
	switch kind {
	case "gnp":
		return subgraph.GNP(n, p, rng), nil
	case "complete":
		return subgraph.Complete(n), nil
	case "cycle":
		return subgraph.Cycle(n), nil
	case "path":
		return subgraph.Path(n), nil
	case "tree":
		return subgraph.RandomTree(n, rng), nil
	case "planted-cycle":
		g, _ := subgraph.PlantCycle(subgraph.GNP(n, p, rng), cycleLen, rng)
		return g, nil
	case "planted-clique":
		g, _ := subgraph.PlantClique(subgraph.GNP(n, p, rng), cliqueSz, rng)
		return g, nil
	}
	return nil, fmt.Errorf("unknown graph kind %q", kind)
}

// buildPattern delegates to the facade's pattern codec — the same parser
// the subgraphd job API uses, so CLI and server accept identical specs.
func buildPattern(spec string) (*subgraph.Graph, error) {
	return subgraph.ParsePattern(spec)
}
