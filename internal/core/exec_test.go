package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
	"subgraph/internal/obs"
)

// execRun is one entry point reduced to what the Exec contract checks:
// its decision (equal for equal executions), and the Stats of the report
// it returned, nil when it returned none.
type execRun func(x Exec) (decision string, stats *congest.Stats, err error)

// outcome lets decided reach the Outcome each detector report embeds.
func (o *Outcome) outcome() *Outcome { return o }

// decided is execRun's reading of a detector report.
func decided[R any, P interface {
	*R
	outcome() *Outcome
}](r P, err error) (string, *congest.Stats, error) {
	if r == nil {
		return "", nil, err
	}
	o := r.outcome()
	return fmt.Sprint(o.Detected), &o.Stats, err
}

// TestExecContract runs the ten entry points on one small graph with a K4
// planted, so every pattern they look for is present (and every detector
// finds it), and checks that each honours every Exec knob through the
// shared runner.
func TestExecContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, planted := graph.PlantClique(graph.GNP(30, 0.2, rng), 4, rng)
	if !g.Connected() {
		t.Fatal("sample graph is disconnected; the network summary needs it connected")
	}
	nw := congest.NewNetwork(g)
	k4 := graph.Complete(4)
	// The planted K4's vertices, in order, also close a C4.
	c4 := PlantedColoring(nw, RotateToMaxDegree(nw, planted), 1)
	runs := []struct {
		name string
		run  execRun
	}{
		{"tree", func(x Exec) (string, *congest.Stats, error) {
			return decided(DetectTree(nw, TreeConfig{Exec: x, Tree: graph.Path(4)}))
		}},
		{"clique", func(x Exec) (string, *congest.Stats, error) {
			return decided(DetectNeighborExchange(nw, NeighborExchangeConfig{Exec: x, H: k4}))
		}},
		{"collect", func(x Exec) (string, *congest.Stats, error) {
			return decided(DetectCollect(nw, CollectConfig{Exec: x, H: k4}))
		}},
		{"local", func(x Exec) (string, *congest.Stats, error) {
			return decided(DetectLocal(nw, LocalConfig{Exec: x, H: k4}))
		}},
		{"triangle", func(x Exec) (string, *congest.Stats, error) {
			return decided(DetectTriangle(nw, TriangleConfig{Exec: x}))
		}},
		{"split", func(x Exec) (string, *congest.Stats, error) {
			return decided(DetectTriangleSplit(nw, TriangleSplitConfig{Exec: x}))
		}},
		{"linear", func(x Exec) (string, *congest.Stats, error) {
			return decided(DetectCycleLinear(nw, LinearCycleConfig{Exec: x, CycleLen: 4, Reps: 2}))
		}},
		{"even", func(x Exec) (string, *congest.Stats, error) {
			return decided(DetectEvenCycle(nw, EvenCycleConfig{Exec: x, K: 2, Coloring: c4}))
		}},
		{"tester", func(x Exec) (string, *congest.Stats, error) {
			return decided(TestTriangleFreeness(nw, TesterConfig{Exec: x, Trials: 8}))
		}},
		{"summary", func(x Exec) (string, *congest.Stats, error) {
			r, err := ComputeNetworkSummary(nw, SummaryConfig{Exec: x})
			if r == nil {
				return "", nil, err
			}
			return fmt.Sprintf("leader %d, m %d", r.LeaderID, r.EdgeCount), &r.Stats, err
		}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			plain, ps, err := tc.run(Exec{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if plain == "false" {
				t.Fatal("missed the planted pattern")
			}

			engine := obs.NewCollector()
			par, pars, err := tc.run(Exec{Seed: 1, Parallel: true, Tracer: engine})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if got := engine.Report().Info.Engine; got != "parallel" {
				t.Errorf("Parallel ran the %s engine", got)
			}
			if par != plain {
				t.Errorf("parallel decided %q, sequential %q", par, plain)
			}
			if diff := congest.DiffStats(*ps, *pars); diff != "" {
				t.Errorf("parallel stats differ: %s", diff)
			}

			c := obs.NewCollector()
			if _, _, err := tc.run(Exec{Seed: 7, Tracer: c}); err != nil {
				t.Fatalf("traced: %v", err)
			}
			rep := c.Report()
			if runs := rep.Metrics.Counters[obs.MetricRuns]; runs != 1 {
				t.Errorf("collector counted %d runs, want 1", runs)
			}
			if rep.Info.Seed != 7 {
				t.Errorf("run seed %d, want 7", rep.Info.Seed)
			}

			_, partial, err := tc.run(Exec{Seed: 1, Deadline: time.Nanosecond})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("1 ns deadline: err = %v, want context.DeadlineExceeded", err)
			}
			if partial == nil {
				t.Error("1 ns deadline: no partial report")
			}

			_, lossy, err := tc.run(Exec{Seed: 1, Faults: &congest.FaultPlan{DropRate: 1}})
			if err != nil {
				t.Fatalf("lossy: %v", err)
			}
			if lossy.DroppedMessages == 0 {
				t.Error("every message dropped, but no drops recorded")
			}

			res, rs, err := tc.run(Exec{Seed: 1, Resilient: &congest.ResilientConfig{}})
			if err != nil {
				t.Fatalf("resilient: %v", err)
			}
			if res != plain {
				t.Errorf("resilient decided %q, plain %q", res, plain)
			}
			if rs.Rounds <= ps.Rounds {
				t.Errorf("resilient took %d rounds, plain %d: the decorator did not run", rs.Rounds, ps.Rounds)
			}
		})
	}
}
