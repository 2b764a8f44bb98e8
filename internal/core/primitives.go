package core

import (
	"fmt"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
)

// Classic CONGEST primitives: leader election by min-identifier flooding,
// BFS-tree construction rooted at the leader, convergecast aggregation of
// the edge count, and tree broadcast of the result. Together they let
// every node learn (leader, m, its BFS depth) in O(n) rounds with
// O(log n)-bit messages — the primitive that justifies the "m is global
// knowledge for scheduling" convention used by the edge-collection
// detector (see collect.go).

// SummaryConfig configures the network-summary primitive.
type SummaryConfig struct {
	Exec
}

// SummaryReport is the outcome of ComputeNetworkSummary.
type SummaryReport struct {
	// LeaderID is the elected leader (the minimum identifier).
	LeaderID congest.NodeID
	// EdgeCount is the m every node learned.
	EdgeCount int
	// Depth is the BFS-tree depth (≥ eccentricity of the leader / 1).
	Depth int
	// Rounds is the number of rounds used (O(n)).
	Rounds int
	// Consistent reports whether every node ended with identical
	// (leader, m) values.
	Consistent bool
	// Stats holds the simulator measurements.
	Stats congest.Stats
}

// summary message tags.
const (
	sumFlood  = 0 // (leader candidate id, distance)
	sumParent = 1 // (parent id)
	sumUp     = 2 // (subtree degree sum)
	sumResult = 3 // (edge count)
)

type summaryNode struct {
	idBits int
	n      int

	bestID   congest.NodeID
	bestDist int
	parent   congest.NodeID
	hasPrnt  bool

	children     map[congest.NodeID]bool
	childSum     map[congest.NodeID]int
	sentUp       bool
	edgeCount    int
	haveResult   bool
	resultSent   bool
	doneLeaderID congest.NodeID
}

func (sn *summaryNode) Init(env *congest.Env) {
	sn.bestID = env.ID()
	sn.bestDist = 0
	sn.children = map[congest.NodeID]bool{}
	sn.childSum = map[congest.NodeID]int{}
	sn.edgeCount = -1
}

func (sn *summaryNode) enc(tag int, a congest.NodeID, b int) bitio.BitString {
	w := bitio.NewWriter()
	w.WriteUint(uint64(tag), 2)
	w.WriteUint(uint64(a), sn.idBits)
	w.WriteUint(uint64(b), 32)
	return w.BitString()
}

func (sn *summaryNode) dec(s bitio.BitString) (tag int, a congest.NodeID, b int, ok bool) {
	r := bitio.NewReader(s)
	t, ok1 := r.ReadUint(2)
	av, ok2 := r.ReadUint(sn.idBits)
	bv, ok3 := r.ReadUint(32)
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, 0, false
	}
	return int(t), congest.NodeID(av), int(bv), true
}

func (sn *summaryNode) Round(env *congest.Env, inbox []congest.Message) {
	n := sn.n
	r := env.Round()
	switch {
	case r <= n:
		// Phase 1: min-ID flooding with distances. Broadcast the current
		// best every round; n rounds guarantee stabilization.
		for _, m := range inbox {
			tag, id, dist, ok := sn.dec(m.Payload)
			if !ok || tag != sumFlood {
				continue
			}
			if id < sn.bestID || (id == sn.bestID && dist+1 < sn.bestDist) {
				sn.bestID = id
				sn.bestDist = dist + 1
				sn.parent = m.From
				sn.hasPrnt = true
			}
		}
		env.Broadcast(sn.enc(sumFlood, sn.bestID, sn.bestDist))

	case r == n+1:
		// Phase 2: announce the BFS parent so nodes learn their children.
		if sn.hasPrnt {
			env.Broadcast(sn.enc(sumParent, sn.parent, 0))
		} else {
			// The leader has no parent; it still sends so every node
			// sends every round (and so children know it has none).
			env.Broadcast(sn.enc(sumParent, sn.bestID, 0))
		}

	case r <= 3*n+3:
		// Phase 3: convergecast of degree sums, then result flood-down.
		// The window covers 2·depth + O(1) rounds even on a path.
		for _, m := range inbox {
			tag, id, val, ok := sn.dec(m.Payload)
			if !ok {
				continue
			}
			switch tag {
			case sumParent:
				if id == env.ID() && m.From != env.ID() {
					sn.children[m.From] = false // known child, not reported
				}
			case sumUp:
				if _, isChild := sn.children[m.From]; isChild {
					sn.children[m.From] = true
					sn.childSum[m.From] = val
				}
				_ = id
			case sumResult:
				if !sn.haveResult {
					sn.haveResult = true
					sn.edgeCount = val
					sn.doneLeaderID = id
				}
			}
		}
		// Send the subtree sum once all children reported.
		if !sn.sentUp {
			all := true
			total := env.Degree()
			for c, reported := range sn.children {
				if !reported {
					all = false
					break
				}
				total += sn.childSum[c]
			}
			if all {
				sn.sentUp = true
				if sn.hasPrnt {
					env.Send(sn.parent, sn.enc(sumUp, env.ID(), total))
				} else {
					// Leader: the global degree sum is in; m = sum/2.
					sn.haveResult = true
					sn.edgeCount = total / 2
					sn.doneLeaderID = env.ID()
				}
			}
		}
		// Flood the result down once.
		if sn.haveResult && !sn.resultSent {
			sn.resultSent = true
			env.Broadcast(sn.enc(sumResult, sn.doneLeaderID, sn.edgeCount))
		}
		if sn.haveResult && sn.resultSent {
			env.Halt()
		}

	default:
		env.Halt()
	}
}

// ComputeNetworkSummary elects the min-ID leader, builds its BFS tree,
// aggregates the edge count and distributes it; it verifies that every
// node ended with the same (leader, m).
func ComputeNetworkSummary(nw *congest.Network, cfg SummaryConfig) (*SummaryReport, error) {
	if !nw.G.Connected() {
		return nil, fmt.Errorf("core: network summary requires a connected graph")
	}
	idBits := nw.IDBits()
	n := nw.N()
	nodes := make([]*summaryNode, 0, n)
	factory := func() congest.Node {
		sn := &summaryNode{idBits: idBits, n: n}
		nodes = append(nodes, sn)
		return sn
	}
	res, err := cfg.run(nw, factory, congest.Config{B: 2 + idBits + 32, MaxRounds: 3*n + 4})
	if res == nil {
		return nil, err
	}
	rep := &SummaryReport{Rounds: res.Stats.Rounds, Stats: res.Stats, Consistent: true}
	depth := 0
	for i, sn := range nodes {
		if i == 0 {
			rep.LeaderID = sn.doneLeaderID
			rep.EdgeCount = sn.edgeCount
		}
		if sn.edgeCount != rep.EdgeCount || sn.doneLeaderID != rep.LeaderID || !sn.haveResult {
			rep.Consistent = false
		}
		if sn.bestDist > depth {
			depth = sn.bestDist
		}
	}
	rep.Depth = depth
	return rep, err
}
