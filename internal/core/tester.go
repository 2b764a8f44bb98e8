package core

import (
	"subgraph/internal/bitio"
	"subgraph/internal/congest"
)

// Distributed property testing of triangle-freeness — the relaxation the
// paper explicitly contrasts with its exact setting (Section 1.2: [6, 14]
// study testers that only distinguish triangle-free graphs from graphs
// ε-FAR from triangle-free). The point of carrying it in this repository
// is the contrast experiment: the tester runs in O(T) rounds independent
// of n and Δ, while exact detection pays Δ or n rounds — but the tester
// is only complete on far instances.
//
// Protocol (in the spirit of Censor-Hillel et al.): in each of T trials,
// every node samples a uniform pair (a, b) of its neighbors and asks a
// whether b is a's neighbor; a positive answer closes a triangle. One
// trial costs two rounds (query + answer). Rejection is one-sided: any
// reject witnesses a real triangle, so the tester is sound on all inputs;
// on graphs that are ε-far from triangle-free a constant fraction of
// edges sits in triangles, so O(1/ε) trials detect with constant
// probability — and repetition amplifies.

// TesterConfig configures the triangle-freeness tester.
type TesterConfig struct {
	Exec
	// Trials is T, the number of query rounds (default 16).
	Trials int
}

// TesterReport is the outcome of the tester. Detected is one-sided: true
// always witnesses a triangle. Rounds is 2·Trials + O(1), independent of
// n and Δ.
type TesterReport struct {
	Outcome
	Trials int
}

const (
	tqQuery  = 0 // (id of b): "is b your neighbor?"
	tqAnswer = 1 // (id of b, 1 bit answer)
)

type testerNode struct {
	idBits int
	trials int
	// asked[trial] remembers (a, b) so a positive answer is validated.
	pending map[congest.NodeID]congest.NodeID // b-id → a-id asked
}

func (tn *testerNode) Init(env *congest.Env) {
	tn.pending = make(map[congest.NodeID]congest.NodeID)
}

func (tn *testerNode) encQuery(b congest.NodeID) bitio.BitString {
	w := bitio.NewWriter()
	w.WriteUint(tqQuery, 1)
	w.WriteUint(uint64(b), tn.idBits)
	return w.BitString()
}

func (tn *testerNode) encAnswer(b congest.NodeID, yes bool) bitio.BitString {
	w := bitio.NewWriter()
	w.WriteUint(tqAnswer, 1)
	w.WriteUint(uint64(b), tn.idBits)
	if yes {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
	return w.BitString()
}

func (tn *testerNode) Round(env *congest.Env, inbox []congest.Message) {
	// Serve queries and absorb answers from the previous round.
	for _, m := range inbox {
		r := bitio.NewReader(m.Payload)
		tag, ok := r.ReadUint(1)
		if !ok {
			continue
		}
		idv, ok := r.ReadUint(tn.idBits)
		if !ok {
			continue
		}
		id := congest.NodeID(idv)
		if tag == tqQuery {
			env.Send(m.From, tn.encAnswer(id, env.HasNeighbor(id)))
			continue
		}
		yes, ok := r.ReadBit()
		if !ok {
			continue
		}
		if yes == 1 {
			// m.From was asked about id; {self, m.From, id} is a triangle
			// provided both really are our neighbors (they are: we only
			// ask about sampled neighbor pairs, validated below).
			if a, asked := tn.pending[id]; asked && a == m.From {
				env.Reject()
			}
		}
	}
	// Issue one fresh query per odd round, up to the trial budget.
	trial := (env.Round() + 1) / 2
	if env.Round()%2 == 1 && trial <= tn.trials && env.Degree() >= 2 {
		d := env.Degree()
		i := env.Rand().Intn(d)
		j := env.Rand().Intn(d - 1)
		if j >= i {
			j++
		}
		a, b := env.Neighbors()[i], env.Neighbors()[j]
		tn.pending[b] = a
		env.Send(a, tn.encQuery(b))
	}
	if env.Round() > 2*tn.trials+1 {
		env.Halt()
	}
}

// TestTriangleFreeness runs the constant-round tester.
func TestTriangleFreeness(nw *congest.Network, cfg TesterConfig) (*TesterReport, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 16
	}
	idBits := nw.IDBits()
	factory := func() congest.Node {
		return &testerNode{idBits: idBits, trials: cfg.Trials}
	}
	b := 2 * (2 + idBits) // a query and an answer may share an edge-round
	res, err := cfg.run(nw, factory, congest.Config{B: b, MaxRounds: 2*cfg.Trials + 3})
	if res == nil {
		return nil, err
	}
	return &TesterReport{Outcome: outcome(res, b), Trials: cfg.Trials}, err
}
