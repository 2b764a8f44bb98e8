package cclique

import (
	"fmt"
	"math/bits"
	"sort"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// K_s listing in the congested clique, generalizing the
// Dolev–Lenzen–Peled triangle-listing partition scheme.
//
// The vertex set is split into k groups, where k is the largest value with
// C(k+s-1, s) ≤ n (multisets of size s over k groups, one per "collector"
// node). Collector t is responsible for listing exactly the cliques whose
// vertices' group multiset equals t's multiset, so every K_s is listed by
// exactly one collector. Each input edge {u,w} must reach every collector
// whose multiset contains both endpoint groups.
//
// Routing is the two-phase balanced scheme (a simple instance of Lenzen's
// routing): the sender spreads its edge copies round-robin over all n
// relays, then each relay forwards to the final collectors. Per ordered
// pair the per-phase load is ⌈L/n⌉ where L is a node's total send/receive
// load, so the round complexity is Θ(max load / n) = Θ(n^{1-2/s}) on dense
// graphs — the shape matched by the paper's Ω̃(n^{1-2/s}) lower bound.
// Phase lengths are agreed on by two 1-round load announcements.

// ListCliques runs K_s listing on g with per-pair bandwidth bandwidth
// (pass 0 for the default Θ(log n)). It requires s ≥ 2 and n ≥ s.
func ListCliques(g *graph.Graph, s int, bandwidth int) (*ListResult, error) {
	return listCliques(g, s, bandwidth, congest.Config{})
}

// listCliques is ListCliques on the engine eng selects.
func listCliques(g *graph.Graph, s int, bandwidth int, eng congest.Config) (*ListResult, error) {
	n := g.N()
	if err := checkS(s); err != nil {
		return nil, err
	}
	if n < s {
		return &ListResult{}, nil
	}
	idBits := bits.Len(uint(n)) + 1
	msgBits := 3*idBits + 1 // (u, w, collector) + phase tag
	if bandwidth <= 0 {
		bandwidth = msgBits // Θ(log n)
	}
	if bandwidth < msgBits {
		return nil, fmt.Errorf("cclique: bandwidth %d < message size %d", bandwidth, msgBits)
	}
	k := maxGroups(n, s)
	tuples := multisets(k, s)
	plan := &listPlan{
		g:       g,
		s:       s,
		k:       k,
		idBits:  idBits,
		msgBits: msgBits,
		cap:     bandwidth / msgBits,
		tuples:  tuples,
	}
	res := &ListResult{
		Groups:     k,
		Collectors: len(tuples),
		B:          bandwidth,
	}
	// Generous round cap: announcements + both phases can never exceed
	// total message count.
	maxRounds := 4 + 2*(g.M()*k*k+n)
	if err := runOnClique(g, res, maxRounds, eng, func() finder { return &listNode{plan: plan} }); err != nil {
		return nil, err
	}
	return res, nil
}

// maxGroups returns the largest k with C(k+s-1, s) ≤ n (at least 1).
func maxGroups(n, s int) int {
	k := 1
	for chooseOverflow(k+s, s) <= int64(n) {
		k++
	}
	return k
}

// chooseOverflow computes C(a, b) saturating at a large sentinel.
func chooseOverflow(a, b int) int64 {
	if b < 0 || b > a {
		return 0
	}
	res := int64(1)
	for i := 0; i < b; i++ {
		res = res * int64(a-i) / int64(i+1)
		if res > 1<<40 {
			return 1 << 40
		}
	}
	return res
}

// multisets enumerates all non-decreasing s-tuples over groups 0..k-1.
func multisets(k, s int) [][]int {
	var out [][]int
	cur := make([]int, s)
	var rec func(pos, min int)
	rec = func(pos, min int) {
		if pos == s {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for gp := min; gp < k; gp++ {
			cur[pos] = gp
			rec(pos+1, gp)
		}
	}
	rec(0, 0)
	return out
}

func multisetKey(ms []int) string {
	b := make([]byte, 0, 2*len(ms))
	for _, g := range ms {
		b = append(b, byte(g>>8), byte(g))
	}
	return string(b)
}

// listPlan is the shared read-only parameters of a listing run.
type listPlan struct {
	g       *graph.Graph
	s       int
	k       int
	idBits  int
	msgBits int
	cap     int // messages per ordered pair per round
	tuples  [][]int
}

func (p *listPlan) group(v int) int { return v % p.k }

// collectorsForEdge returns the collector indices whose multiset contains
// both endpoint groups (with multiplicity 2 when the groups coincide).
func (p *listPlan) collectorsForEdge(u, w int) []int {
	gu, gw := p.group(u), p.group(w)
	var out []int
	for i, t := range p.tuples {
		if containsPair(t, gu, gw) {
			out = append(out, i)
		}
	}
	return out
}

func containsPair(ms []int, a, b int) bool {
	if a == b {
		cnt := 0
		for _, g := range ms {
			if g == a {
				cnt++
			}
		}
		return cnt >= 2
	}
	fa, fb := false, false
	for _, g := range ms {
		if g == a {
			fa = true
		}
		if g == b {
			fb = true
		}
	}
	return fa && fb
}

// edgeMsg is one routed unit: input edge (u,w) destined for a collector.
type edgeMsg struct {
	u, w, dest int
}

// listNode is the per-node program. Phases:
//
//	round 1: broadcast phase-1 load (own outgoing message count)
//	rounds 2 .. 1+R1: phase 1 — round-robin spread over relays
//	round 2+R1: broadcast phase-2 load (max per-destination relay queue)
//	rounds 3+R1 .. 2+R1+R2: phase 2 — relays forward to collectors
//	afterwards: collectors enumerate cliques and halt
type listNode struct {
	plan *listPlan
	me   int

	// Phase 1 queues: perRelay[r] = messages to hand to relay r.
	perRelay [][]edgeMsg
	r1, r2   int
	load1Max int

	// Relay state: perDest[y] accumulated in phase 1.
	perDest map[int][]edgeMsg

	// Collector state.
	edges map[[2]int]struct{}
	found [][]int
}

func (ln *listNode) cliques() [][]int { return ln.found }

func (ln *listNode) Init(env *congest.Env) {
	p := ln.plan
	n := env.N()
	ln.me = int(env.ID())
	ln.perRelay = make([][]edgeMsg, n)
	ln.perDest = make(map[int][]edgeMsg)
	ln.edges = make(map[[2]int]struct{})
	// Local, free computation: enumerate this node's outgoing units and
	// spread them round-robin over relays (skipping self as relay target;
	// units whose relay would be self skip phase 1 locally).
	seq := 0
	for _, wi := range p.g.Neighbors(ln.me) {
		w := int(wi)
		if w < ln.me {
			continue // the smaller endpoint owns the edge
		}
		for _, dest := range p.collectorsForEdge(ln.me, w) {
			relay := seq % n
			seq++
			m := edgeMsg{u: ln.me, w: w, dest: dest}
			if relay == ln.me {
				ln.perDest[dest] = append(ln.perDest[dest], m)
			} else {
				ln.perRelay[relay] = append(ln.perRelay[relay], m)
			}
		}
	}
}

func (ln *listNode) encode(m edgeMsg) bitio.BitString {
	p := ln.plan
	w := bitio.NewWriter()
	w.WriteBit(1) // phase tag (kept constant; reserved)
	w.WriteUint(uint64(m.u), p.idBits)
	w.WriteUint(uint64(m.w), p.idBits)
	w.WriteUint(uint64(m.dest), p.idBits)
	return w.BitString()
}

func (ln *listNode) decode(s bitio.BitString) edgeMsg {
	p := ln.plan
	r := bitio.NewReader(s)
	r.ReadBit()
	u, _ := r.ReadUint(p.idBits)
	w, _ := r.ReadUint(p.idBits)
	d, _ := r.ReadUint(p.idBits)
	return edgeMsg{u: int(u), w: int(w), dest: int(d)}
}

func (ln *listNode) Round(env *congest.Env, inbox []congest.Message) {
	p := ln.plan
	switch {
	case env.Round() == 1:
		// Announce phase-1 load.
		own := 0
		for _, q := range ln.perRelay {
			if len(q) > own {
				own = len(q)
			}
		}
		env.Broadcast(bitio.Uint(uint64(own), p.msgBits))
		ln.load1Max = own

	case env.Round() == 2:
		// Learn global max load; all nodes compute the same R1.
		for _, m := range inbox {
			r := bitio.NewReader(m.Payload)
			v, _ := r.ReadUint(p.msgBits)
			if int(v) > ln.load1Max {
				ln.load1Max = int(v)
			}
		}
		// At least one phase round even when empty, so the phase schedule
		// (send rounds, announcement rounds) never collapses onto round 2.
		ln.r1 = ceilDiv(ln.load1Max, p.cap)
		if ln.r1 < 1 {
			ln.r1 = 1
		}
		ln.phase1Send(env)

	case env.Round() <= 2+ln.r1:
		// Phase 1 continues: absorb relayed units, keep sending.
		ln.absorbRelay(inbox)
		if env.Round() < 2+ln.r1 {
			ln.phase1Send(env)
		} else {
			// Last phase-1 delivery round: announce phase-2 load.
			own := 0
			for _, q := range ln.perDest {
				if len(q) > own {
					own = len(q)
				}
			}
			env.Broadcast(bitio.Uint(uint64(own), p.msgBits))
			ln.r2 = own
		}

	case env.Round() == 3+ln.r1:
		// Learn global phase-2 max; start forwarding.
		ln.absorbRelay(inbox) // units from the final phase-1 round
		max := ln.r2
		for _, m := range inbox {
			if m.Payload.Len() == p.msgBits && m.Payload.Bit(0) == 0 {
				r := bitio.NewReader(m.Payload)
				v, _ := r.ReadUint(p.msgBits)
				if int(v) > max {
					max = int(v)
				}
			}
		}
		ln.r2 = ceilDiv(max, p.cap)
		if ln.r2 < 1 {
			ln.r2 = 1
		}
		ln.phase2Send(env)

	case env.Round() <= 3+ln.r1+ln.r2:
		ln.collect(inbox)
		if env.Round() < 3+ln.r1+ln.r2 {
			ln.phase2Send(env)
		}
		if env.Round() == 3+ln.r1+ln.r2 {
			ln.finish(env)
		}

	default:
		ln.finish(env)
	}
}

// phase1Send emits up to cap units to each relay.
func (ln *listNode) phase1Send(env *congest.Env) {
	for r := range ln.perRelay {
		q := ln.perRelay[r]
		take := ln.plan.cap
		if take > len(q) {
			take = len(q)
		}
		for i := 0; i < take; i++ {
			env.Send(congest.NodeID(r), ln.encode(q[i]))
		}
		ln.perRelay[r] = q[take:]
	}
}

// absorbRelay stores phase-1 units into the per-destination relay queues.
func (ln *listNode) absorbRelay(inbox []congest.Message) {
	for _, m := range inbox {
		if m.Payload.Len() != ln.plan.msgBits || m.Payload.Bit(0) != 1 {
			continue // load announcement, not a unit
		}
		u := ln.decode(m.Payload)
		ln.perDest[u.dest] = append(ln.perDest[u.dest], u)
	}
}

// phase2Send forwards up to cap units to each destination collector.
func (ln *listNode) phase2Send(env *congest.Env) {
	for dest, q := range ln.perDest {
		take := ln.plan.cap
		if take > len(q) {
			take = len(q)
		}
		for i := 0; i < take; i++ {
			m := q[i]
			if dest == ln.me {
				ln.edges[[2]int{m.u, m.w}] = struct{}{}
			} else {
				env.Send(congest.NodeID(dest), ln.encode(m))
			}
		}
		ln.perDest[dest] = q[take:]
	}
}

// collect stores delivered edges at a collector.
func (ln *listNode) collect(inbox []congest.Message) {
	for _, m := range inbox {
		if m.Payload.Len() != ln.plan.msgBits || m.Payload.Bit(0) != 1 {
			continue
		}
		u := ln.decode(m.Payload)
		if u.dest == ln.me {
			ln.edges[[2]int{u.u, u.w}] = struct{}{}
		}
	}
}

// finish enumerates the collector's cliques and halts.
func (ln *listNode) finish(env *congest.Env) {
	p := ln.plan
	if ln.me < len(p.tuples) && len(ln.edges) > 0 {
		b := graph.NewBuilder(p.g.N())
		for e := range ln.edges {
			b.AddEdgeOK(e[0], e[1])
		}
		local := b.Build()
		myKey := multisetKey(p.tuples[ln.me])
		local.ForEachClique(p.s, func(c []int) bool {
			ms := make([]int, len(c))
			for i, v := range c {
				ms[i] = p.group(v)
			}
			sort.Ints(ms)
			if multisetKey(ms) == myKey {
				cl := append([]int(nil), c...)
				sort.Ints(cl)
				ln.found = append(ln.found, cl)
			}
			return true
		})
	}
	env.Halt()
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
