package core

import (
	"math"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
)

// Degree-split triangle detection in O(√m) rounds — the classic
// two-regime technique behind the sublinear triangle algorithms the paper
// cites (Izumi–Le Gall [16] refine it with randomized load balancing;
// this is the clean deterministic core):
//
//   regime 1 (rounds 2 .. Δ₀+2): every LOW-degree node (deg ≤ Δ₀)
//   streams its full neighbor list; any triangle with a low-degree member
//   is witnessed by another member receiving that list.
//
//   regime 2 (the following ⌈2m/Δ₀⌉+1 rounds): every HIGH-degree node
//   streams its high-degree neighbors only; there are ≤ 2m/Δ₀ high
//   nodes, so the stream fits the budget, and all-high triangles are
//   witnessed the same way.
//
// With Δ₀ = ⌈√(2m)⌉ both regimes cost O(√m) rounds — sublinear in n
// whenever m = o(n²), e.g. n^{2/3} rounds at m = n^{4/3}. Every triangle
// has a minimum-degree member, so the two regimes are exhaustive;
// detection is deterministic and exact.
//
// As with the edge-collection detector, m is treated as scheduling
// knowledge (it is computable in O(n) rounds by ComputeNetworkSummary,
// which would dominate the budget only when m < n²/4; see DESIGN.md).
// Round 1 announces high/low status, which receivers need in regime 2.

// TriangleSplitConfig configures the degree-split detector.
type TriangleSplitConfig struct {
	Exec
	// Threshold overrides Δ₀ (0 = the optimal ⌈√(2m)⌉).
	Threshold int
}

// TriangleSplitReport is the outcome of the degree-split detector.
type TriangleSplitReport struct {
	Outcome
	Threshold int
	// HighCount is the measured number of high-degree nodes (≤ 2m/Δ₀).
	HighCount int
}

type triSplitNode struct {
	idBits    int
	threshold int
	regime2At int // first round of regime 2
	endAt     int

	high     map[congest.NodeID]bool // which neighbors are high-degree
	selfHigh bool
	sent1    int // regime-1 streaming progress
	highNbrs []congest.NodeID
	sent2    int
}

func (tn *triSplitNode) Init(env *congest.Env) {
	tn.high = make(map[congest.NodeID]bool)
}

func (tn *triSplitNode) Round(env *congest.Env, inbox []congest.Message) {
	switch {
	case env.Round() == 1:
		// Announce high/low status.
		tn.selfHigh = env.Degree() > tn.threshold
		bit := uint64(0)
		if tn.selfHigh {
			bit = 1
		}
		env.Broadcast(bitio.Uint(bit, 1))

	case env.Round() < tn.regime2At:
		// Absorb status bits (round 2 only) and regime-1 streams.
		tn.absorb(env, inbox)
		if !tn.selfHigh && tn.sent1 < env.Degree() {
			env.Broadcast(bitio.Uint(uint64(env.Neighbors()[tn.sent1]), tn.idBits))
			tn.sent1++
		}

	case env.Round() < tn.endAt:
		tn.absorb(env, inbox)
		if tn.selfHigh {
			if tn.highNbrs == nil {
				tn.highNbrs = []congest.NodeID{}
				for _, nb := range env.Neighbors() {
					if tn.high[nb] {
						tn.highNbrs = append(tn.highNbrs, nb)
					}
				}
			}
			if tn.sent2 < len(tn.highNbrs) {
				env.Broadcast(bitio.Uint(uint64(tn.highNbrs[tn.sent2]), tn.idBits))
				tn.sent2++
			}
		}

	default:
		tn.absorb(env, inbox)
		env.Halt()
	}
}

// absorb processes status bits and streamed identifiers; a streamed id x
// from neighbor w witnesses edge {w,x}, so if x is also our neighbor the
// triangle {self, w, x} is real.
func (tn *triSplitNode) absorb(env *congest.Env, inbox []congest.Message) {
	for _, m := range inbox {
		if m.Payload.Len() == 1 {
			if m.Payload.Bit(0) == 1 {
				tn.high[m.From] = true
			}
			continue
		}
		r := bitio.NewReader(m.Payload)
		x, ok := r.ReadUint(tn.idBits)
		if !ok {
			continue
		}
		id := congest.NodeID(x)
		if id != env.ID() && env.HasNeighbor(id) && env.HasNeighbor(m.From) {
			env.Reject()
		}
	}
}

// DetectTriangleSplit runs the O(√m)-round degree-split detector.
func DetectTriangleSplit(nw *congest.Network, cfg TriangleSplitConfig) (*TriangleSplitReport, error) {
	if nw.N() < 3 {
		// No triangles possible; also keeps idBits ≥ 2 so streamed
		// identifiers never collide with the 1-bit status messages.
		return &TriangleSplitReport{}, nil
	}
	m := nw.G.M()
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = int(math.Ceil(math.Sqrt(float64(2*m + 1))))
	}
	highBudget := 1
	if threshold > 0 {
		highBudget = 2*m/threshold + 2
	}
	idBits := nw.IDBits()
	regime2At := threshold + 3
	endAt := regime2At + highBudget + 1

	highCount := 0
	for v := 0; v < nw.N(); v++ {
		if nw.G.Degree(v) > threshold {
			highCount++
		}
	}
	factory := func() congest.Node {
		return &triSplitNode{
			idBits:    idBits,
			threshold: threshold,
			regime2At: regime2At,
			endAt:     endAt,
		}
	}
	res, err := cfg.run(nw, factory, congest.Config{B: idBits, MaxRounds: endAt + 1})
	if res == nil {
		return nil, err
	}
	return &TriangleSplitReport{Outcome: outcome(res, idBits), Threshold: threshold, HighCount: highCount}, err
}
