package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"subgraph"
	"subgraph/internal/kernel"
)

// keySpecs are the spec shapes the cache-key tests cover, over one graph
// digest.
func keySpecs(digest string) []JobSpec {
	return []JobSpec{
		{Graph: digest, Pattern: "triangle"},
		{Graph: digest, Pattern: "cycle:3"}, // alias of triangle: same pattern digest
		{Graph: digest, Pattern: "clique:4", Options: subgraph.OptionsSpec{Seed: 42, Parallel: true}},
		{Graph: digest, Pattern: "path:3", Options: subgraph.OptionsSpec{DeadlineMs: 1500}},
		{Graph: digest, Pattern: "star:4", Priority: PriorityHigh},
		{Graph: digest, Pattern: "triangle", Mode: ModeCount},
		{Graph: digest, Pattern: "clique:5", Mode: ModeCount, Options: subgraph.OptionsSpec{Seed: 9}},
	}
}

// TestSpecCacheKeyMatchesPrepare pins the shared-cache contract: the
// router-side SpecCacheKey (computed without the stored graph) must
// produce byte-identical keys to the worker-side prepare() for every
// spec shape — otherwise a router cache hit and a worker cache hit
// would diverge and "a hit on any node is a hit everywhere" breaks.
func TestSpecCacheKeyMatchesPrepare(t *testing.T) {
	s := New(Config{})
	text, g := testEdgeList(t, 3)
	_ = text
	digest, _ := s.store.Put(g)

	for _, spec := range keySpecs(digest) {
		j, aerr := s.prepare(spec)
		if aerr != nil {
			t.Fatalf("prepare(%+v): %v", spec, aerr.msg)
		}
		key, err := SpecCacheKey(spec)
		if err != nil {
			t.Fatalf("SpecCacheKey(%+v): %v", spec, err)
		}
		if key != j.key {
			t.Errorf("key mismatch for %+v:\n  prepare: %s\n  spec:    %s", spec, j.key, key)
		}
	}

	// Deadline independence: specs differing only in deadline share a key.
	k1, err := SpecCacheKey(JobSpec{Graph: digest, Pattern: "triangle", Options: subgraph.OptionsSpec{DeadlineMs: 100}})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := SpecCacheKey(JobSpec{Graph: digest, Pattern: "triangle", Options: subgraph.OptionsSpec{DeadlineMs: 90000}})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("deadline leaked into the key:\n%s\n%s", k1, k2)
	}

	// Count keys are options-free.
	c1, _ := SpecCacheKey(JobSpec{Graph: digest, Pattern: "triangle", Mode: ModeCount})
	c2, _ := SpecCacheKey(JobSpec{Graph: digest, Pattern: "cycle:3", Mode: ModeCount, Options: subgraph.OptionsSpec{Seed: 77, Reps: 3}})
	if c1 != c2 {
		t.Errorf("count keys differ across option-only changes:\n%s\n%s", c1, c2)
	}

	// Error paths.
	if _, err := SpecCacheKey(JobSpec{GraphInline: "0 1", Pattern: "triangle"}); err == nil {
		t.Error("inline graph accepted; digest is unknowable")
	}
	if _, err := SpecCacheKey(JobSpec{Graph: digest, Pattern: "nope"}); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := SpecCacheKey(JobSpec{Graph: digest, Pattern: "path:5", Mode: ModeCount}); err == nil {
		t.Error("non-countable pattern accepted in count mode")
	}
}

// FuzzSpecCacheKey checks the shared cache key on pairs of decoded specs:
// a key survives a JSON re-encode of its spec and the Options →
// OptionsSpecOf round trip, and equal keys imply the same graph digest,
// pattern digest and mode and, in detect mode, the same options up to the
// deadline. That injectivity is what a cluster-wide cache hit relies on.
func FuzzSpecCacheKey(f *testing.F) {
	const digest = "0f3a9c5be81d2746"
	seeds := keySpecs(digest)
	for _, o := range []subgraph.OptionsSpec{
		// TestOptionsSpecCanonical's options.
		{},
		{Seed: 5, Reps: 10},
		{Seed: 5, Reps: 10, Faults: &subgraph.FaultSpec{Seed: 77}},
		{Seed: 6, Reps: 10},
		// TestSpecCacheKeyMatchesPrepare's deadline pair.
		{DeadlineMs: 100},
		{DeadlineMs: 90000},
		// The largest deadline a time.Duration holds, and one past it,
		// which Options must reject rather than wrap negative.
		{DeadlineMs: math.MaxInt64 / int64(time.Millisecond)},
		{DeadlineMs: math.MaxInt64/int64(time.Millisecond) + 1},
	} {
		seeds = append(seeds, JobSpec{Graph: digest, Pattern: "triangle", Options: o})
	}
	seeds = append(seeds, JobSpec{Graph: digest, Pattern: "cycle:3", Mode: ModeCount,
		Options: subgraph.OptionsSpec{Seed: 77, Reps: 3}})
	for i, a := range seeds {
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(seeds[(i+1)%len(seeds)])
		f.Add(ja, jb)
	}

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var sa, sb JobSpec
		if json.Unmarshal(a, &sa) != nil || json.Unmarshal(b, &sb) != nil {
			return
		}
		ka, errA := SpecCacheKey(sa)
		kb, errB := SpecCacheKey(sb)
		if errA != nil || errB != nil {
			return
		}
		checkKeyStable(t, sa, ka)
		checkKeyStable(t, sb, kb)
		if ka != kb {
			return
		}
		if sa.Graph != sb.Graph {
			t.Fatalf("graphs %q and %q share key %s", sa.Graph, sb.Graph, ka)
		}
		if pa, pb := patternDigest(t, sa), patternDigest(t, sb); pa != pb {
			t.Fatalf("patterns %q and %q share key %s", sa.Pattern, sb.Pattern, ka)
		}
		if ma, mb := keyMode(sa), keyMode(sb); ma != mb {
			t.Fatalf("modes %q and %q share key %s", ma, mb, ka)
		} else if ma == ModeCount {
			return
		}
		oa, _ := sa.Options.Options()
		ob, _ := sb.Options.Options()
		oa.Deadline, ob.Deadline = 0, 0
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("options %+v and %+v share key %s", sa.Options, sb.Options, ka)
		}
	})
}

// checkKeyStable asserts spec's key survives a JSON re-encode of the spec
// and replacing its Options with their OptionsSpecOf round trip.
func checkKeyStable(t *testing.T, spec JobSpec, key string) {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if k, err := SpecCacheKey(back); k != key {
		t.Fatalf("key changed across a JSON re-encode (err %v):\n  %s\n  %s", err, key, k)
	}
	opts, err := spec.Options.Options()
	if err != nil {
		t.Fatal(err)
	}
	spec.Options = subgraph.OptionsSpecOf(opts)
	if k, err := SpecCacheKey(spec); k != key {
		t.Fatalf("key changed across OptionsSpecOf(Options()) (err %v):\n  %s\n  %s", err, key, k)
	}
}

func patternDigest(t *testing.T, spec JobSpec) string {
	t.Helper()
	h, err := subgraph.ParsePattern(spec.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	return h.Digest()
}

// keyMode is the spec's execution mode with the detect default spelled
// out.
func keyMode(spec JobSpec) string {
	if spec.Mode == "" {
		return ModeDetect
	}
	return spec.Mode
}

// TestCountKeyMatchesSpecCacheKey: the key countKey derives from its
// table of clique digests is the key SpecCacheKey derives for a count job
// on clique:s, for every size the kernels serve, and for size 3 also the
// key of its aliases triangle and cycle:3.
func TestCountKeyMatchesSpecCacheKey(t *testing.T) {
	const digest = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	for s := 2; s <= kernel.MaxCliqueSize; s++ {
		patterns := []string{"clique:" + strconv.Itoa(s)}
		if s == 3 {
			patterns = append(patterns, "triangle", "cycle:3")
		}
		for _, p := range patterns {
			want, err := SpecCacheKey(JobSpec{Graph: digest, Pattern: p, Mode: ModeCount})
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if got := countKey(digest, s); got != want {
				t.Errorf("countKey(d, %d) = %q, SpecCacheKey of a %s count = %q", s, got, p, want)
			}
		}
	}
}

// FuzzPatternTable pins parsePattern to subgraph.ParsePattern: for any
// spec, the same error text, or a pattern with the same digest. Every
// spelling of one pattern must share one table entry, so that the specs
// clients choose cannot grow the table.
func FuzzPatternTable(f *testing.F) {
	for _, spec := range []string{
		"triangle", "cycle:3", "clique:3", "clique:04", "clique:+4", "path:64", "star:2",
		"cycle:2", "star:65", "clique:-1", "cycle", "cycle:x", "blob:3", ":3", "clique:4:5",
		" clique:4", "Clique:4", "clique:4 ", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		want, werr := subgraph.ParsePattern(spec)
		got, err := parsePattern(spec)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%q: parsePattern error %v, ParsePattern error %v", spec, err, werr)
		}
		if err != nil {
			return
		}
		if got.digest != want.Digest() || got.h.Digest() != want.Digest() {
			t.Fatalf("%q: table digest %s (graph %s), ParsePattern digest %s", spec, got.digest, got.h.Digest(), want.Digest())
		}
		kind, size, _ := subgraph.SplitPattern(spec)
		if canonical, _ := parsePattern(kind + ":" + strconv.Itoa(size)); canonical != got {
			t.Fatalf("%q and %s:%d hold separate table entries", spec, kind, size)
		}
	})
}
