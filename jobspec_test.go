package subgraph

import (
	"strings"
	"testing"
	"time"
)

func TestParsePattern(t *testing.T) {
	valid := []struct {
		spec string
		n, m int
	}{
		{"triangle", 3, 3},
		{"cycle:3", 3, 3},
		{"cycle:6", 6, 6},
		{"clique:4", 4, 6},
		{"path:4", 4, 3},
		{"star:3", 4, 3}, // star:L = hub + L leaves
	}
	for _, tc := range valid {
		h, err := ParsePattern(tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if h.N() != tc.n || h.M() != tc.m {
			t.Errorf("%s: shape (%d,%d), want (%d,%d)", tc.spec, h.N(), h.M(), tc.n, tc.m)
		}
	}

	// The aliases the serve layer's cache keying relies on.
	tri, _ := ParsePattern("triangle")
	c3, _ := ParsePattern("cycle:3")
	k3, _ := ParsePattern("clique:3")
	if tri.Digest() != c3.Digest() || tri.Digest() != k3.Digest() {
		t.Error("triangle / cycle:3 / clique:3 digests differ")
	}

	for _, spec := range []string{
		"", "hexagon", "cycle", "cycle:", "cycle:x", "cycle:2", "clique:1",
		"path:-3", "cycle:65", "star:9999999999999999999",
	} {
		if _, err := ParsePattern(spec); err == nil {
			t.Errorf("%q: accepted, want error", spec)
		}
	}
}

func TestOptionsSpecRoundTrip(t *testing.T) {
	orig := Options{
		Reps: 7, Seed: 42, Parallel: true, Resilient: true,
		Deadline: 1500 * time.Millisecond,
		Faults: &FaultPlan{
			Seed: 3, DropRate: 0.25, CorruptRate: 0.5, CorruptFlips: 2,
			Drops:     []TargetedDrop{{Round: 2, From: 0, To: 1}},
			Crashes:   []Crash{{Vertex: 4, Round: 3}},
			Throttles: []Throttle{{FromRound: 1, ToRound: 5, Bits: 8}},
		},
	}
	spec := OptionsSpecOf(orig)
	back, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if back.Reps != orig.Reps || back.Seed != orig.Seed || back.Parallel != orig.Parallel ||
		back.Resilient != orig.Resilient || back.Deadline != orig.Deadline {
		t.Fatalf("scalar fields changed in round trip: %+v vs %+v", back, orig)
	}
	if back.Faults == nil || back.Faults.DropRate != orig.Faults.DropRate ||
		len(back.Faults.Drops) != 1 || len(back.Faults.Crashes) != 1 || len(back.Faults.Throttles) != 1 {
		t.Fatalf("fault plan changed in round trip: %+v", back.Faults)
	}

	// Empty fault plans normalize to nil in both directions.
	if FaultSpecOf(&FaultPlan{Seed: 9}) != nil {
		t.Error("empty FaultPlan did not normalize to nil spec")
	}
	if (&FaultSpec{Seed: 9}).Plan() != nil {
		t.Error("empty FaultSpec did not normalize to nil plan")
	}
}

func TestOptionsSpecValidation(t *testing.T) {
	bad := []OptionsSpec{
		{Reps: -1},
		{DeadlineMs: -5},
		{DeadlineMs: 1 << 62}, // overflows a time.Duration
		{Faults: &FaultSpec{DropRate: 1.5}},
		{Faults: &FaultSpec{CorruptRate: -0.1}},
		{Faults: &FaultSpec{Crashes: []CrashSpec{{Vertex: 0, Round: 0}}}}, // rounds are 1-based
	}
	for i, s := range bad {
		if _, err := s.Options(); err == nil {
			t.Errorf("case %d: accepted, want error", i)
		}
	}
}

func TestOptionsSpecCanonical(t *testing.T) {
	// Deterministic, and zero values are elided entirely.
	if got := (OptionsSpec{}).Canonical(); got != "{}" {
		t.Fatalf("zero spec canonical = %s, want {}", got)
	}
	a := OptionsSpec{Seed: 5, Reps: 10}
	if a.Canonical() != a.Canonical() {
		t.Fatal("canonical form not deterministic")
	}
	// An injects-nothing fault spec canonicalizes away — the execution is
	// identical to the fault-free one, so the cache key must be too.
	b := OptionsSpec{Seed: 5, Reps: 10, Faults: &FaultSpec{Seed: 77}}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("no-op fault plan changed the canonical form:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	if b.Faults == nil {
		t.Fatal("Canonical mutated its receiver's fault spec")
	}
	// Distinct options → distinct keys.
	c := OptionsSpec{Seed: 6, Reps: 10}
	if a.Canonical() == c.Canonical() {
		t.Fatal("different seeds share a canonical form")
	}
	if !strings.Contains(a.Canonical(), `"seed":5`) {
		t.Fatalf("canonical form lost the seed: %s", a.Canonical())
	}
}
