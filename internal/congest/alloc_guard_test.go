package congest

import (
	"runtime/debug"
	"testing"

	"subgraph/internal/bitio"
	"subgraph/internal/obs"
)

// Regression guard for the PR 3 zero-allocation round loop: in steady
// state (nil tracer, no faults, no transcript) a round must not allocate.
//
// testing.AllocsPerRun cannot observe a single round directly — setup
// (envs, delivery index, arena) legitimately allocates, and the arena's
// buffers grow during the first rounds until they fit the traffic. So the
// guard compares whole runs that differ ONLY in round count: every
// allocation in a run is either setup or warm-up, both independent of how
// long the run continues, so a run of 400 rounds must allocate exactly as
// much as a run of 50. Any per-round allocation shows up multiplied by
// 350 and fails loudly.
//
// Runs take their scratch from the Network's pool. Whether a run finds
// one there depends on when the garbage collector last emptied the pool,
// and under the race detector a pool also drops a random quarter of what
// it is given. So the guard empties the pool before every run: each run
// builds its scratch anew, which is setup like the rest. The collector is
// off while the guard measures, so no collection in the middle of a run
// changes what the runtime allocates for it either, and the count depends
// on the rounds alone.
func steadyRunAllocs(t *testing.T, nw *Network, rounds, maxRounds int, parallel bool, tracer func() obs.Tracer) float64 {
	t.Helper()
	payload := bitio.Uint(0x2a, 8)
	factory := func() Node {
		return &FuncNode{OnRound: func(env *Env, inbox []Message) {
			if env.Round() >= rounds {
				env.Halt()
			}
			env.Broadcast(payload)
		}}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// MaxRounds is fixed across calls so setup-time capacities
	// (PerRoundBits) cannot differ between the short and long run.
	base := Config{B: 8, MaxRounds: maxRounds, Parallel: parallel, Workers: 4}
	return testing.AllocsPerRun(5, func() {
		for nw.scratch.Get() != nil {
		}
		cfg := base
		if tracer != nil {
			cfg.Tracer = tracer()
		}
		res, err := Run(nw, factory, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != rounds {
			t.Fatalf("rounds = %d, want %d", res.Stats.Rounds, rounds)
		}
	})
}

func TestSteadyStateRoundZeroAllocsSequential(t *testing.T) {
	g := denseComposite(64, 12)
	nw := NewNetwork(g)
	short := steadyRunAllocs(t, nw, 50, 512, false, nil)
	long := steadyRunAllocs(t, nw, 400, 512, false, nil)
	if long != short {
		t.Fatalf("sequential engine allocates in steady state: %.1f allocs over 350 extra rounds (%.4f/round)",
			long-short, (long-short)/350)
	}
}

// The parallel engine shares the guard. Its per-round work — channel
// sends, WaitGroup barrier, worker steps — is allocation-free too; only
// goroutine spawn (setup) allocates.
func TestSteadyStateRoundZeroAllocsParallel(t *testing.T) {
	g := denseComposite(64, 12)
	nw := NewNetwork(g)
	short := steadyRunAllocs(t, nw, 50, 512, true, nil)
	long := steadyRunAllocs(t, nw, 400, 512, true, nil)
	if long != short {
		t.Fatalf("parallel engine allocates in steady state: %.1f allocs over 350 extra rounds (%.4f/round)",
			long-short, (long-short)/350)
	}
}

// A served untraced job runs with one tracer: a SpanTracer under the
// job's live timeline. It ignores messages, so such a run must not
// allocate per message or per round either. The span tracer does
// allocate per bandwidth window and per run (annotation strings), so the
// two runs are sized to flush exactly one window each: the round cap of
// 65,536 widens the window to 512 rounds, and both round counts are at
// least 100, so each formats its numbers into fresh strings alike.
func TestSteadyStateRoundZeroAllocsSpanTracer(t *testing.T) {
	g := denseComposite(64, 12)
	nw := NewNetwork(g)
	spans := func() obs.Tracer {
		return obs.NewSpanTracer(obs.NewTimeline("guard").StartSpan("job"))
	}
	for _, parallel := range []bool{false, true} {
		short := steadyRunAllocs(t, nw, 100, 1<<16, parallel, spans)
		long := steadyRunAllocs(t, nw, 500, 1<<16, parallel, spans)
		if long != short {
			t.Errorf("parallel=%v: a SpanTracer run allocates in steady state: %.1f allocs over 400 extra rounds (%.4f/round)",
				parallel, long-short, (long-short)/400)
		}
	}
}
