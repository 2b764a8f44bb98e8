package congest

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"subgraph/internal/bitio"
	"subgraph/internal/graph"
)

// foldNode is scratch-reuse probe A: every node folds what it receives
// into a running hash and broadcasts a word of it mixed with its private
// randomness, then decides by the hash's parity. Any message, counter or
// random draw that a reused scratch carried over from an earlier run
// changes its decisions or Stats. A node that finds anything in its
// round-1 inbox sets stale.
func foldNode(rounds int, stale *atomic.Bool) func() Node {
	return func() Node {
		var h uint64
		return &FuncNode{OnRound: func(env *Env, inbox []Message) {
			if env.Round() == 1 {
				if len(inbox) > 0 {
					stale.Store(true)
				}
				// Read keeps bytes of its last draw in the wrapper, so a
				// reused wrapper must start with none.
				var b [2]byte
				env.Rand().Read(b[:])
				h = uint64(b[0])<<8 | uint64(b[1])
			}
			for _, m := range inbox {
				v, _ := bitio.NewReader(m.Payload).ReadUint(m.Payload.Len())
				h = (h*0x9E3779B97F4A7C15 + uint64(m.From)) ^ v
			}
			if env.Round() > rounds {
				if (h+env.Rand().Uint64())%2 == 1 {
					env.Reject()
				}
				env.Halt()
				return
			}
			env.Broadcast(bitio.Uint((h^env.Rand().Uint64())&0xffff, 16))
		}}
	}
}

// spreadNode is probe B, another program: each node sends every
// neighbour its own payload of 1 to 24 bits each round and leaves a
// partial Read in its random source. Vertex 0 sleeps for nap in round 3,
// so a deadline shorter than nap cuts the run there, with round 3's
// messages published for round 4. With overrun set, the last vertex sends
// its first neighbour a second, 64-bit payload in round 2: a bandwidth
// violation found at the end of the round's scan, after every other
// message was counted.
func spreadNode(rounds int, nap time.Duration, overrun bool) func() Node {
	return func() Node {
		return &FuncNode{OnRound: func(env *Env, inbox []Message) {
			if env.Round() > rounds {
				if len(inbox)%3 == 0 {
					env.Reject()
				}
				env.Halt()
				return
			}
			if env.ID() == 0 && env.Round() == 3 {
				time.Sleep(nap)
			}
			var b [3]byte
			env.Rand().Read(b[:])
			for _, nb := range env.Neighbors() {
				width := 1 + int(env.Rand().Int63n(24))
				env.Send(nb, bitio.Uint(env.Rand().Uint64()&(1<<width-1), width))
			}
			if overrun && int(env.ID()) == env.N()-1 && env.Round() == 2 && env.Degree() > 0 {
				env.Send(env.Neighbors()[0], bitio.Uint(0, 64))
			}
		}}
	}
}

// TestScratchReuseIsInvisible runs probe A, then probe B under faults,
// then B cut short by a deadline, then B failing mid-round on a bandwidth
// violation, and then A again, all on one Network that pools its
// scratch. The last run's decisions and Stats must be byte-equal to A on
// a fresh Network, on both engines, and no run of A may find the inboxes
// an earlier run published in its round 1. The failing B and the second
// A go twice: A fault-free (the delivery path that counts and then
// places) and A under drops and a throttle (the path that stages each
// message).
//
// A sync.Pool hands an item back only on the processor that put it, and
// the garbage collector may empty it, so the test pins one processor and
// turns the collector off. Then every run after the first reuses the
// first one's scratch, which the test confirms before each last run.
// (Under the race detector a pool drops a random quarter of what it is
// given, so there reuse is likely but not certain, and not confirmed.)
func TestScratchReuseIsInvisible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := graph.GNP(48, 0.12, rand.New(rand.NewSource(5)))
	for _, parallel := range []bool{false, true} {
		var stale atomic.Bool
		runA := func(nw *Network, faults *FaultPlan) string {
			t.Helper()
			cfg := Config{B: 16, MaxRounds: 40, Seed: 11, Parallel: parallel, Faults: faults}
			res, err := Run(nw, foldNode(12, &stale), cfg)
			if err != nil {
				t.Fatalf("parallel=%v: probe A: %v", parallel, err)
			}
			b, err := json.Marshal(struct {
				D []Decision
				S Stats
			}{res.Decisions, res.Stats})
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}

		nw := NewNetwork(g)
		if got, want := runA(nw, nil), runA(NewNetwork(g), nil); got != want {
			t.Fatalf("parallel=%v: first run of A on the pooled network differs from a fresh one", parallel)
		}
		faults := &FaultPlan{Seed: 3, DropRate: 0.2, CorruptRate: 0.1, Crashes: []Crash{{Vertex: 5, Round: 2}}}
		cfgB := Config{B: 64, MaxRounds: 40, Seed: 987, Parallel: parallel, Faults: faults}
		if res, err := Run(nw, spreadNode(6, 0, false), cfgB); err != nil || res.Stats.DroppedMessages == 0 {
			t.Fatalf("parallel=%v: probe B under faults: err %v, result %v", parallel, err, res)
		}
		cut := cfgB
		cut.Faults, cut.Deadline = nil, 150*time.Millisecond
		res, err := Run(nw, spreadNode(20, 300*time.Millisecond, false), cut)
		if !errors.Is(err, context.DeadlineExceeded) || res == nil || res.Stats.Rounds == 0 {
			t.Fatalf("parallel=%v: probe B under a deadline: err %v, result %v", parallel, err, res)
		}
		// The throttle lets exactly A's one 16-bit message per edge and
		// round through, unless a delivered-bits count survived.
		throttled := &FaultPlan{Seed: 8, DropRate: 0.1, Throttles: []Throttle{{FromRound: 1, ToRound: 40, Bits: 16}}}
		for _, drops := range []*FaultPlan{nil, throttled} {
			if _, err := Run(nw, spreadNode(6, 0, true), cfgB); err == nil {
				t.Fatalf("parallel=%v: probe B sending past B ran without error", parallel)
			}
			if sc := nw.scratch.Get(); sc != nil {
				nw.scratch.Put(sc)
			} else if !raceEnabled {
				t.Fatalf("parallel=%v: the network's pool holds no scratch", parallel)
			}
			if got, want := runA(nw, drops), runA(NewNetwork(g), drops); got != want {
				t.Errorf("parallel=%v, faults %+v: A after B on a pooled network differs from A on a fresh one:\n got  %s\n want %s",
					parallel, drops, got, want)
			}
		}
		if stale.Load() {
			t.Errorf("parallel=%v: a run of A found another run's messages in its round-1 inbox", parallel)
		}
	}
}
