package serve

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"subgraph"
	"subgraph/internal/kernel"
)

// Result-cache key construction. The key is shared verbatim between a
// worker's local cache and the cluster router's shared cache: both sides
// must derive exactly the same string from a spec, or a cluster-wide
// "hit on any node is a hit everywhere" silently stops being true
// (pinned by TestSpecCacheKeyMatchesPrepare).

// cacheKey computes the result-cache key for a prepared job on the graph
// digest, given its pattern graph's digest hDigest.
//
// The key uses the *pattern graph's* digest, so aliases like "triangle"
// and "cycle:3" share entries. The deadline is stripped: only complete
// (non-partial) results are ever cached, and a complete result is
// deadline-independent — the engine checks the budget between rounds but
// the execution itself is a pure function of (graph, pattern,
// options-sans-deadline, seed). Keying the deadline would split
// identical executions into per-deadline cache entries and miss on every
// requests-differ-only-in-deadline resubmission.
//
// Count-mode keys drop the options entirely: a count is a pure function
// of (graph, clique size) — seeds, reps and engine selection never
// change it — so requests differing only there share one entry (and
// coalesce onto one in-flight kernel pass).
func cacheKey(digest, hDigest string, effective subgraph.OptionsSpec, count bool) string {
	if count {
		return digest + "|" + hDigest + "|" + ModeCount
	}
	keySpec := effective
	keySpec.DeadlineMs = 0
	return digest + "|" + hDigest + "|" + keySpec.Canonical()
}

// countKey is the cache key of digest's K_size count, the key a count job
// for clique:size (or an alias) on digest derives.
func countKey(digest string, size int) string {
	return cacheKey(digest, tablePattern(kindClique, size).digest, subgraph.OptionsSpec{}, true)
}

// parsedPattern is a pattern graph and its digest. The graph is shared by
// every job that names the pattern; like any graph, it is never modified.
type parsedPattern struct {
	h      *subgraph.Graph
	digest string
}

// patternKinds are the kinds subgraph.SplitPattern returns, in the order
// patternTable indexes them.
var patternKinds = [...]string{"cycle", "clique", "path", "star"}

const kindClique = 1 // patternKinds[kindClique] == "clique"

// patternTable holds the parse of each (kind, size) pattern once one is
// asked for, so that a submit, a router's cache key or a delta watch
// neither builds the pattern graph again nor hashes it. It is keyed by
// the parsed kind and size, not by the spec string, so no client spelling
// ("clique:4", "clique:04", "clique:+4") can grow it. A filled slot never
// changes.
var patternTable [len(patternKinds)][subgraph.MaxPatternSize + 1]atomic.Pointer[parsedPattern]

// parsePattern is subgraph.ParsePattern served from patternTable, with
// ParsePattern's errors.
func parsePattern(spec string) (*parsedPattern, error) {
	kind, size, err := subgraph.SplitPattern(spec)
	if err != nil {
		return nil, err
	}
	return tablePattern(slices.Index(patternKinds[:], kind), size), nil
}

// tablePattern returns the table's entry for the pattern of kind
// patternKinds[kind] and size, which SplitPattern must accept, filling
// it on first use.
func tablePattern(kind, size int) *parsedPattern {
	slot := &patternTable[kind][size]
	if p := slot.Load(); p != nil {
		return p
	}
	h, err := subgraph.ParsePattern(patternKinds[kind] + ":" + strconv.Itoa(size))
	if err != nil {
		panic(err) // the caller's pattern was validated
	}
	slot.CompareAndSwap(nil, &parsedPattern{h: h, digest: h.Digest()})
	return slot.Load()
}

// SpecCacheKey computes the result-cache key for a digest-referencing
// spec without access to the stored graph — the router-side half of the
// shared-cache contract. It validates the same fields prepare() keys on
// (pattern, options, count-mode eligibility); specs carrying an inline
// graph are rejected, since their digest is unknown until stored.
func SpecCacheKey(spec JobSpec) (string, error) {
	if spec.Graph == "" {
		return "", fmt.Errorf("serve: cache key needs a graph digest (inline graphs are stored first)")
	}
	p, err := parsePattern(spec.Pattern)
	if err != nil {
		return "", err
	}
	opts, err := spec.Options.Options()
	if err != nil {
		return "", err
	}
	count := false
	switch spec.Mode {
	case "", ModeDetect:
	case ModeCount:
		if _, ok := kernel.CliqueSize(p.h); !ok {
			return "", fmt.Errorf("serve: pattern %q is not kernel-countable", spec.Pattern)
		}
		count = true
	default:
		return "", fmt.Errorf("serve: unknown mode %q", spec.Mode)
	}
	return cacheKey(spec.Graph, p.digest, subgraph.OptionsSpecOf(opts), count), nil
}
