package congest

import (
	"fmt"
	"math/rand"

	"subgraph/internal/bitio"
)

// The fault model. Definition 1 assumes perfectly reliable synchronous
// links; this file adds a seeded, deterministic adversary that sits in the
// runner's delivery phase and may drop messages (Bernoulli or targeted),
// flip payload bits, crash-stop nodes at chosen rounds, and throttle
// per-edge delivery below the advertised bandwidth for round windows.
// All fault decisions are made sequentially in the runner's deterministic
// delivery order, so the sequential and parallel engines remain
// bit-identical under any plan, and a zero plan is a no-op.
//
// Accounting convention: Stats keeps charging the *algorithm's* cost —
// dropped messages still count toward TotalBits/TotalMessages (they were
// transmitted; the adversary ate them in flight). The adversary's actions
// are reported separately in DroppedMessages / CorruptedMessages /
// CorruptedBits / CrashedNodes and as FaultTag annotations on transcript
// entries. Delivered inbox copies never carry a tag: a node cannot tell a
// corrupted payload from a genuine one, which is what makes the model
// adversarial rather than detectable-erasure.

// FaultTag annotates a transcript entry with the adversary's action on
// that message. The zero value means the message was delivered untouched.
type FaultTag int8

const (
	// FaultNone marks an untouched, delivered message.
	FaultNone FaultTag = iota
	// FaultDropped marks a withheld message (Bernoulli, targeted, or
	// throttled); it was never delivered.
	FaultDropped
	// FaultCorrupted marks a message delivered with flipped payload bits;
	// the transcript entry shows the corrupted payload as delivered.
	FaultCorrupted
)

func (t FaultTag) String() string {
	switch t {
	case FaultDropped:
		return "dropped"
	case FaultCorrupted:
		return "corrupted"
	}
	return "ok"
}

// Crash is a crash-stop failure: Vertex executes rounds < Round only and
// is silent forever after. Messages it sent in earlier rounds are still
// delivered (they were already in flight).
type Crash struct {
	Vertex int
	Round  int
}

// TargetedDrop withholds every message on the directed edge From→To
// (vertex indices) in the given round.
type TargetedDrop struct {
	Round    int
	From, To int
}

// Throttle caps *delivery* on every directed edge at Bits per round during
// rounds [FromRound, ToRound] (inclusive). Messages beyond the cap are
// dropped whole, in emission order. The model bandwidth B is still
// enforced against what the algorithm sends — throttling is the network
// degrading underneath a correct algorithm, not a model violation.
type Throttle struct {
	FromRound, ToRound int
	Bits               int
}

// FaultPlan is a declarative, seeded fault configuration. The zero value
// injects no faults; Config.Faults = nil and Config.Faults = &FaultPlan{}
// produce bit-identical executions.
type FaultPlan struct {
	// Seed drives the adversary's private random source, independent of
	// the run seed (so the same algorithm randomness can be replayed
	// against different fault draws and vice versa).
	Seed int64
	// DropRate is the per-message Bernoulli drop probability in [0,1].
	DropRate float64
	// CorruptRate is the per-message Bernoulli corruption probability in
	// [0,1]; a corrupted message has CorruptFlips distinct uniformly random
	// payload bits flipped. Empty payloads are never corrupted.
	CorruptRate float64
	// CorruptFlips is the number of bit flips per corrupted message
	// (default 1). Flip positions are sampled without replacement, so a
	// corrupted payload differs from the original in exactly
	// min(CorruptFlips, payload length) bits — the count reported in
	// Stats.CorruptedBits.
	CorruptFlips int
	// Drops lists targeted per-edge per-round drops.
	Drops []TargetedDrop
	// Crashes lists crash-stop failures.
	Crashes []Crash
	// Throttles lists round windows of reduced per-edge delivery capacity.
	Throttles []Throttle
}

// Empty reports whether the plan injects no faults at all.
func (p *FaultPlan) Empty() bool {
	return p.DropRate == 0 && p.CorruptRate == 0 &&
		len(p.Drops) == 0 && len(p.Crashes) == 0 && len(p.Throttles) == 0
}

// Validate checks the plan's rates lie in [0,1] and its crash rounds are
// 1-based. Run applies it to every non-empty plan; callers that accept a
// plan ahead of a run apply it themselves to fail early.
func (p *FaultPlan) Validate() error {
	if p.DropRate < 0 || p.DropRate > 1 {
		return fmt.Errorf("congest: DropRate %v outside [0,1]", p.DropRate)
	}
	if p.CorruptRate < 0 || p.CorruptRate > 1 {
		return fmt.Errorf("congest: CorruptRate %v outside [0,1]", p.CorruptRate)
	}
	for _, c := range p.Crashes {
		if c.Round < 1 {
			return fmt.Errorf("congest: crash round %d for vertex %d (rounds are 1-based)", c.Round, c.Vertex)
		}
	}
	return nil
}

// Adversary is the runner's delivery-phase fault hook. The runner calls
// Crashed once per vertex per round (in vertex order, before the execution
// phase) and Deliver once per message, in the deterministic delivery order
// (sender vertex, then emission order). Implementations must be
// deterministic functions of their construction state and call sequence;
// the runner guarantees the call sequence is identical across engines.
type Adversary interface {
	// Crashed reports whether vertex v is crash-stopped at the start of
	// round (1-based). Once true for some round it must stay true for all
	// later rounds.
	Crashed(round, v int) bool
	// Deliver inspects one message about to be delivered. deliveredBits is
	// the number of payload bits already delivered (post-drop) on the same
	// directed edge this round, for throttling decisions. It returns the
	// payload to deliver (possibly corrupted), the action taken, and the
	// number of bits flipped (0 unless the tag is FaultCorrupted).
	Deliver(round, fromV, toV, deliveredBits int, payload bitio.BitString) (bitio.BitString, FaultTag, int)
}

// planAdversary compiles a FaultPlan into the runner's hook.
type planAdversary struct {
	plan     FaultPlan
	rng      *rand.Rand
	targeted map[[3]int]struct{}
	crashAt  map[int]int // vertex → earliest crash round

	// Per-round throttle-cap cache: the tightest window covering a round
	// is a pure function of the round number, so it is computed once per
	// round (on the first Deliver of that round) instead of rescanning
	// every window for every message. capRound is the round the cached
	// values describe (0 = nothing cached yet; rounds are 1-based).
	capRound int
	capBits  int
	capOn    bool
	capScans int // recomputations, pinned by the O(1)-per-message test

	// Scratch for corruptPayload, reused across messages.
	flipIdx  []int
	flipMark []bool
}

// NewPlanAdversary compiles a declarative plan into a deterministic
// Adversary. Run compiles Config.Faults with this automatically; it is
// exported for callers composing custom hooks on top.
func NewPlanAdversary(plan FaultPlan) Adversary {
	if plan.CorruptFlips <= 0 {
		plan.CorruptFlips = 1
	}
	a := &planAdversary{
		plan:     plan,
		rng:      rand.New(rand.NewSource(mixSeed(plan.Seed, -0x5EED))),
		targeted: make(map[[3]int]struct{}, len(plan.Drops)),
		crashAt:  make(map[int]int, len(plan.Crashes)),
	}
	for _, d := range plan.Drops {
		a.targeted[[3]int{d.Round, d.From, d.To}] = struct{}{}
	}
	for _, c := range plan.Crashes {
		if r, ok := a.crashAt[c.Vertex]; !ok || c.Round < r {
			a.crashAt[c.Vertex] = c.Round
		}
	}
	return a
}

func (a *planAdversary) Crashed(round, v int) bool {
	r, ok := a.crashAt[v]
	return ok && round >= r
}

// throttleCap returns the tightest delivery cap covering round, if any.
// The scan over the plan's windows runs at most once per round; every
// further message of the same round is answered from the cached values,
// keeping Deliver O(1) per message however many windows the plan holds.
func (a *planAdversary) throttleCap(round int) (int, bool) {
	if round != a.capRound {
		a.capRound = round
		a.capBits, a.capOn = 0, false
		a.capScans++
		for _, t := range a.plan.Throttles {
			if round >= t.FromRound && round <= t.ToRound && (!a.capOn || t.Bits < a.capBits) {
				a.capBits, a.capOn = t.Bits, true
			}
		}
	}
	return a.capBits, a.capOn
}

func (a *planAdversary) Deliver(round, fromV, toV, deliveredBits int, payload bitio.BitString) (bitio.BitString, FaultTag, int) {
	if _, hit := a.targeted[[3]int{round, fromV, toV}]; hit {
		return payload, FaultDropped, 0
	}
	if cap, ok := a.throttleCap(round); ok && deliveredBits+payload.Len() > cap {
		return payload, FaultDropped, 0
	}
	if a.plan.DropRate > 0 && a.rng.Float64() < a.plan.DropRate {
		return payload, FaultDropped, 0
	}
	if a.plan.CorruptRate > 0 && payload.Len() > 0 && a.rng.Float64() < a.plan.CorruptRate {
		out, flipped := a.corruptPayload(payload)
		return out, FaultCorrupted, flipped
	}
	return payload, FaultNone, 0
}

// corruptPayload flips min(CorruptFlips, len) DISTINCT bit positions of s,
// sampled by a partial Fisher–Yates shuffle, and returns the corrupted
// payload with the true flip count. Sampling without replacement matters
// for the accounting contract: drawing positions independently could pick
// the same bit twice, so the flips would cancel and the message would be
// reported as corrupted with more flipped bits than actually differ. The
// rewrite is a single pass over the payload (O(len + flips)) instead of
// one full copy per flip (O(len · flips)).
func (a *planAdversary) corruptPayload(s bitio.BitString) (bitio.BitString, int) {
	L := s.Len()
	k := a.plan.CorruptFlips
	if k > L {
		k = L
	}
	if cap(a.flipIdx) < L {
		a.flipIdx = make([]int, L)
		a.flipMark = make([]bool, L)
	}
	idx, mark := a.flipIdx[:L], a.flipMark[:L]
	for i := range idx {
		idx[i] = i
		mark[i] = false
	}
	for i := 0; i < k; i++ {
		j := i + a.rng.Intn(L-i)
		idx[i], idx[j] = idx[j], idx[i]
		mark[idx[i]] = true
	}
	w := bitio.NewWriter()
	for i := 0; i < L; i++ {
		b := s.Bit(i)
		if mark[i] {
			b ^= 1
		}
		w.WriteBit(b)
	}
	return w.BitString(), k
}
