package serve

import (
	"fmt"
	"strconv"
	"sync"

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
// for clique:size (or an alias) on digest derives. A delta derives about
// a dozen, so the K_s pattern digests are computed once, by cliqueDigests.
func countKey(digest string, size int) string {
	return cacheKey(digest, cliqueDigests()[size], subgraph.OptionsSpec{}, true)
}

// cliqueDigests holds the pattern digest of K_s at index s, for s in
// 2..MaxCliqueSize.
var cliqueDigests = sync.OnceValue(func() []string {
	digests := make([]string, kernel.MaxCliqueSize+1)
	for s := 2; s <= kernel.MaxCliqueSize; s++ {
		h, err := subgraph.ParsePattern("clique:" + strconv.Itoa(s))
		if err != nil {
			panic(err) // clique:2..MaxCliqueSize always parses
		}
		digests[s] = h.Digest()
	}
	return digests
})

// SpecCacheKey computes the result-cache key for a digest-referencing
// spec without access to the stored graph — the router-side half of the
// shared-cache contract. It validates the same fields prepare() keys on
// (pattern, options, count-mode eligibility); specs carrying an inline
// graph are rejected, since their digest is unknown until stored.
func SpecCacheKey(spec JobSpec) (string, error) {
	if spec.Graph == "" {
		return "", fmt.Errorf("serve: cache key needs a graph digest (inline graphs are stored first)")
	}
	h, err := subgraph.ParsePattern(spec.Pattern)
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
		if _, ok := kernel.CliqueSize(h); !ok {
			return "", fmt.Errorf("serve: pattern %q is not kernel-countable", spec.Pattern)
		}
		count = true
	default:
		return "", fmt.Errorf("serve: unknown mode %q", spec.Mode)
	}
	return cacheKey(spec.Graph, h.Digest(), subgraph.OptionsSpecOf(opts), count), nil
}
