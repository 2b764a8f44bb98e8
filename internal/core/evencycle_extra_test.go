package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

func TestEvenCycleK4PlantedC8(t *testing.T) {
	// k=4 exercises the full Stage C machinery (prefix extensions by
	// colors 2..3 and 6..5), which k ≤ 3 leaves mostly idle.
	rng := rand.New(rand.NewSource(71))
	g, cyc := graph.PlantCycle(graph.GNP(50, 0.02, rng), 8, rng)
	nw := congest.NewNetwork(g)
	rep, err := DetectEvenCycle(nw, EvenCycleConfig{
		K:        4,
		Coloring: PlantedColoring(nw, cyc, 9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("planted C8 undetected")
	}
}

func TestEvenCycleK4Sound(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 3; trial++ {
		g := graph.RandomTree(40, rng)
		nw := congest.NewNetwork(g)
		rep, err := DetectEvenCycle(nw, EvenCycleConfig{K: 4, PhaseIIReps: 2, Exec: Exec{Seed: int64(trial)}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected {
			t.Fatal("false positive on tree at k=4")
		}
	}
}

func TestEvenCycleK5PlantedC10(t *testing.T) {
	// k=5: Stage C chains through colors 2,3,4 and 8,7,6 — the deepest
	// prefix machinery exercised in the suite.
	rng := rand.New(rand.NewSource(73))
	g, cyc := graph.PlantCycle(graph.GNP(60, 0.015, rng), 10, rng)
	nw := congest.NewNetwork(g)
	// At k=5 the high-degree threshold 60^{1/4} ≈ 3 is tiny; rotate the
	// good coloring onto the cycle's max-degree vertex (the event the
	// paper's probability argument conditions on).
	rep, err := DetectEvenCycle(nw, EvenCycleConfig{
		K:        5,
		Coloring: PlantedColoring(nw, RotateToMaxDegree(nw, cyc), 13),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("planted C10 undetected")
	}
}

func TestEvenCyclePlanInvariants(t *testing.T) {
	// Budget math sanity across a parameter grid: positive budgets,
	// monotone in n, bandwidth fits a full-length prefix.
	for _, k := range []int{2, 3, 4, 5} {
		prevR := 0
		for _, n := range []int{50, 200, 800, 3200} {
			nw := congest.NewNetwork(graph.Path(n))
			cfg := EvenCycleConfig{K: k, TuranConstant: 1.5, PhaseIReps: 1, PhaseIIReps: 1}
			plan := newEvenCyclePlan(nw, cfg)
			if plan.r1 <= 0 || plan.r2 <= 0 || plan.total <= plan.layerEnd {
				t.Fatalf("k=%d n=%d: degenerate plan %+v", k, n, plan)
			}
			if plan.r1+plan.r2 < prevR {
				t.Fatalf("k=%d: budget not monotone in n", k)
			}
			prevR = plan.r1 + plan.r2
			if plan.bandwidth() < 2*k*plan.idBits {
				t.Fatalf("bandwidth cannot carry a 2k-id prefix")
			}
			if plan.d < 1 || plan.highDeg < 2 {
				t.Fatalf("k=%d n=%d: d=%d highDeg=%d", k, n, plan.d, plan.highDeg)
			}
		}
	}
}

// Property: the phase II message codec round-trips.
func TestQuickPhase2Codec(t *testing.T) {
	nw := congest.NewNetwork(graph.Path(100))
	plan := newEvenCyclePlan(nw, EvenCycleConfig{K: 3, TuranConstant: 1, PhaseIReps: 1, PhaseIIReps: 1})
	f := func(dir bool, raw []uint16, layer uint16) bool {
		// Prefix messages.
		if len(raw) > 0 {
			if len(raw) > 6 {
				raw = raw[:6]
			}
			vs := make([]congest.NodeID, len(raw))
			for i, r := range raw {
				vs[i] = congest.NodeID(r % 100)
			}
			d := 0
			if dir {
				d = 1
			}
			enc := plan.encodePrefix(prefixMsg{dir: d, vertices: vs})
			kind, _, _, pm, ok := plan.decodePhase2(enc)
			if !ok || kind != msgPrefix || pm.dir != d || len(pm.vertices) != len(vs) {
				return false
			}
			for i := range vs {
				if pm.vertices[i] != vs[i] {
					return false
				}
			}
		}
		// Stage A messages.
		id := congest.NodeID(layer % 100)
		enc := plan.encodeStageA(id, int(layer%64))
		kind, gotID, gotLayer, _, ok := plan.decodePhase2(enc)
		return ok && kind == msgStageA && gotID == id && gotLayer == int(layer%64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: cbfs codec round-trips.
func TestQuickCBFSCodec(t *testing.T) {
	codec := cbfsCodec{idBits: 12, hopBits: 8}
	f := func(id uint16, hop uint8) bool {
		m := cbfsMsg{origin: congest.NodeID(id % 4096), hop: int(hop)}
		got, ok := codec.decode(codec.encode(m))
		return ok && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCBFSCodecRejectsMalformed(t *testing.T) {
	codec := cbfsCodec{idBits: 12, hopBits: 8}
	enc := codec.encode(cbfsMsg{origin: 5, hop: 2})
	if _, ok := codec.decode(enc.Slice(0, enc.Len()-1)); ok {
		t.Fatal("truncated message decoded")
	}
	longer := enc.Concat(enc)
	if _, ok := codec.decode(longer); ok {
		t.Fatal("over-long message decoded")
	}
}

func TestDetectorsIgnoreForeignPayloads(t *testing.T) {
	// A cbfs node receiving a phase-2-shaped payload (different length)
	// must not crash or misbehave — decoders skip malformed input.
	s := newCBFSState(cbfsCodec{idBits: 10, hopBits: 8}, 4, 1)
	nw := congest.NewNetwork(graph.Path(2))
	factory := func() congest.Node {
		return &congest.FuncNode{OnRound: func(env *congest.Env, inbox []congest.Message) {
			s.step(env, inbox) // feeds arbitrary inbox into the state
			env.Halt()
		}}
	}
	if _, err := (Exec{}).run(nw, factory, congest.Config{B: 64, MaxRounds: 2}); err != nil {
		t.Fatal(err)
	}
}
