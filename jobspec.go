package subgraph

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Job-spec codec: the wire form of a detection job. The serve layer
// (internal/serve, cmd/subgraphd) accepts jobs as JSON documents whose
// options field is an OptionsSpec; this file is the single translation
// point between that wire form and the library's Options, so the server,
// the CLI tools, and tests all agree on what a job means — and so the
// canonical form used as a result-cache key is defined next to the codec
// it must stay in sync with.

// ParsePattern builds the pattern graph named by a compact spec string:
//
//	triangle | cycle:L | clique:S | path:L | star:L
//
// "triangle" is shorthand for cycle:3 (== clique:3). The returned graph
// is in canonical vertex labeling, so equal specs — and aliases like
// triangle vs cycle:3 — produce graphs with equal Digest().
func ParsePattern(spec string) (*Graph, error) {
	kind, size, err := SplitPattern(spec)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "cycle":
		return Cycle(size), nil
	case "clique":
		return Complete(size), nil
	case "path":
		return Path(size), nil
	default:
		return Star(size), nil
	}
}

// SplitPattern validates spec as ParsePattern does, with the same errors,
// and returns its kind (cycle, clique, path or star) and size without
// building the graph; "triangle" is cycle 3. Sizes run up to
// MaxPatternSize.
func SplitPattern(spec string) (kind string, size int, err error) {
	if spec == "triangle" {
		return "cycle", 3, nil
	}
	kind, num, ok := strings.Cut(spec, ":")
	if !ok {
		return "", 0, fmt.Errorf("subgraph: pattern must look like cycle:4 (or \"triangle\"), got %q", spec)
	}
	size, err = strconv.Atoi(num)
	if err != nil {
		return "", 0, fmt.Errorf("subgraph: bad pattern size in %q", spec)
	}
	var min int
	switch kind {
	case "cycle":
		min = 3
	case "clique", "path", "star":
		min = 2
	default:
		return "", 0, fmt.Errorf("subgraph: unknown pattern kind %q", kind)
	}
	if size < min {
		return "", 0, fmt.Errorf("subgraph: pattern %q needs size ≥ %d", spec, min)
	}
	if size > MaxPatternSize {
		return "", 0, fmt.Errorf("subgraph: pattern size %d exceeds the supported maximum %d", size, MaxPatternSize)
	}
	return kind, size, nil
}

// MaxPatternSize is the largest pattern size ParsePattern accepts.
const MaxPatternSize = 64

// CrashSpec is the wire form of a crash-stop failure.
type CrashSpec struct {
	Vertex int `json:"vertex"`
	Round  int `json:"round"`
}

// TargetedDropSpec is the wire form of a targeted per-edge per-round drop.
type TargetedDropSpec struct {
	Round int `json:"round"`
	From  int `json:"from"`
	To    int `json:"to"`
}

// ThrottleSpec is the wire form of a delivery-capacity window.
type ThrottleSpec struct {
	FromRound int `json:"from_round"`
	ToRound   int `json:"to_round"`
	Bits      int `json:"bits"`
}

// FaultSpec is the wire form of a FaultPlan.
type FaultSpec struct {
	Seed         int64              `json:"seed,omitempty"`
	DropRate     float64            `json:"drop_rate,omitempty"`
	CorruptRate  float64            `json:"corrupt_rate,omitempty"`
	CorruptFlips int                `json:"corrupt_flips,omitempty"`
	Drops        []TargetedDropSpec `json:"drops,omitempty"`
	Crashes      []CrashSpec        `json:"crashes,omitempty"`
	Throttles    []ThrottleSpec     `json:"throttles,omitempty"`
}

// Plan converts the spec to a FaultPlan, or nil when the spec is nil or
// injects nothing (so Options.Faults stays nil on the fault-free path).
func (f *FaultSpec) Plan() *FaultPlan {
	if f == nil {
		return nil
	}
	p := &FaultPlan{
		Seed:         f.Seed,
		DropRate:     f.DropRate,
		CorruptRate:  f.CorruptRate,
		CorruptFlips: f.CorruptFlips,
	}
	for _, d := range f.Drops {
		p.Drops = append(p.Drops, TargetedDrop{Round: d.Round, From: d.From, To: d.To})
	}
	for _, c := range f.Crashes {
		p.Crashes = append(p.Crashes, Crash{Vertex: c.Vertex, Round: c.Round})
	}
	for _, th := range f.Throttles {
		p.Throttles = append(p.Throttles, Throttle{FromRound: th.FromRound, ToRound: th.ToRound, Bits: th.Bits})
	}
	if p.Empty() {
		return nil
	}
	return p
}

// FaultSpecOf is the inverse of FaultSpec.Plan (nil for nil/empty plans).
func FaultSpecOf(p *FaultPlan) *FaultSpec {
	if p == nil || p.Empty() {
		return nil
	}
	f := &FaultSpec{
		Seed:         p.Seed,
		DropRate:     p.DropRate,
		CorruptRate:  p.CorruptRate,
		CorruptFlips: p.CorruptFlips,
	}
	for _, d := range p.Drops {
		f.Drops = append(f.Drops, TargetedDropSpec{Round: d.Round, From: d.From, To: d.To})
	}
	for _, c := range p.Crashes {
		f.Crashes = append(f.Crashes, CrashSpec{Vertex: c.Vertex, Round: c.Round})
	}
	for _, th := range p.Throttles {
		f.Throttles = append(f.Throttles, ThrottleSpec{FromRound: th.FromRound, ToRound: th.ToRound, Bits: th.Bits})
	}
	return f
}

// OptionsSpec is the JSON wire form of Options. Deadlines travel as
// integer milliseconds; the Trace sink is a process-local object and has
// no wire form (the server attaches its own sinks).
type OptionsSpec struct {
	Reps       int        `json:"reps,omitempty"`
	Seed       int64      `json:"seed,omitempty"`
	Parallel   bool       `json:"parallel,omitempty"`
	DeadlineMs int64      `json:"deadline_ms,omitempty"`
	Resilient  bool       `json:"resilient,omitempty"`
	Faults     *FaultSpec `json:"faults,omitempty"`
}

// Options validates the spec and converts it to library Options.
func (s OptionsSpec) Options() (Options, error) {
	if s.Reps < 0 {
		return Options{}, fmt.Errorf("subgraph: negative reps %d", s.Reps)
	}
	if s.DeadlineMs < 0 {
		return Options{}, fmt.Errorf("subgraph: negative deadline_ms %d", s.DeadlineMs)
	}
	if s.DeadlineMs > math.MaxInt64/int64(time.Millisecond) {
		return Options{}, fmt.Errorf("subgraph: deadline_ms %d overflows a time.Duration", s.DeadlineMs)
	}
	faults := s.Faults.Plan()
	if faults != nil {
		if err := faults.Validate(); err != nil {
			return Options{}, err
		}
	}
	return Options{
		Reps:      s.Reps,
		Seed:      s.Seed,
		Parallel:  s.Parallel,
		Faults:    faults,
		Deadline:  time.Duration(s.DeadlineMs) * time.Millisecond,
		Resilient: s.Resilient,
	}, nil
}

// OptionsSpecOf is the inverse codec direction: the wire form of o. The
// Trace field does not survive the round trip (it is not serializable);
// sub-millisecond deadline precision is rounded down.
func OptionsSpecOf(o Options) OptionsSpec {
	return OptionsSpec{
		Reps:       o.Reps,
		Seed:       o.Seed,
		Parallel:   o.Parallel,
		DeadlineMs: o.Deadline.Milliseconds(),
		Resilient:  o.Resilient,
		Faults:     FaultSpecOf(o.Faults),
	}
}

// Canonical returns the deterministic canonical encoding of the spec —
// the normalized JSON form with empty fault plans elided — suitable as a
// result-cache key component: two specs with the same Canonical() request
// bit-identical executions (the simulator is deterministic in (graph,
// pattern, options, seed), and the sequential and parallel engines are
// property-tested to produce identical runs, but Parallel is still kept in
// the key because the reported engine metadata differs).
func (s OptionsSpec) Canonical() string {
	if s.Faults != nil {
		norm := *s.Faults
		s.Faults = &norm
		if s.Faults.Plan() == nil {
			s.Faults = nil
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		// A fixed struct of scalars and slices cannot fail to marshal.
		panic("subgraph: canonicalizing OptionsSpec: " + err.Error())
	}
	return string(b)
}
