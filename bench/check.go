package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/serve"
)

// A mismatch is a served answer that disagrees with the library. It
// fails the run: the benchmark exits non-zero and reports correct=false.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "answer check failed: " + m.msg }

func mismatchf(format string, args ...any) error {
	return &mismatch{msg: fmt.Sprintf(format, args...)}
}

// checkDigest compares a digest the server reported with the one the
// local copy of the graph has.
func checkDigest(what, served, want string) error {
	if served != want {
		return mismatchf("%s digest %.12s, local copy has %.12s", what, served, want)
	}
	return nil
}

// checkCount compares a served count with the exact one.
func checkCount(v serve.JobView, want int64) error {
	if v.Result == nil || v.Result.Count == nil {
		return mismatchf("count job %s (%s on %.12s) returned no count", v.ID, v.Pattern, v.Graph)
	}
	if got := *v.Result.Count; got != want {
		return mismatchf("%s on %.12s counted %d, want %d", v.Pattern, v.Graph, got, want)
	}
	return nil
}

// detectAnswer is the first answer served for one detect spec.
type detectAnswer struct {
	spec     serve.JobSpec
	detected bool
	stats    [32]byte // SHA-256 of the served Stats JSON
}

func answerOf(spec serve.JobSpec, v serve.JobView) (detectAnswer, error) {
	if v.Result == nil {
		return detectAnswer{}, mismatchf("detect job %s (%s on %.12s) finished without a result", v.ID, v.Pattern, v.Graph)
	}
	return detectAnswer{spec: spec, detected: v.Result.Detected, stats: sha256.Sum256(v.Result.Stats)}, nil
}

// checkSame requires a repeated spec to be served the bytes it was
// served first.
func checkSame(first, again detectAnswer) error {
	if first != again {
		return mismatchf("%s on %.12s (seed %d) was served two different answers",
			first.spec.Pattern, first.spec.Graph, first.spec.Options.Seed)
	}
	return nil
}

// checkDetect compares a served detect answer with a library run of the
// same spec: Detected must match and Stats must be byte-identical.
func checkDetect(a detectAnswer, rep *subgraph.Report) error {
	if a.detected != rep.Detected {
		return mismatchf("%s on %.12s (seed %d): served detected=%v, library %v",
			a.spec.Pattern, a.spec.Graph, a.spec.Options.Seed, a.detected, rep.Detected)
	}
	stats, err := json.Marshal(rep.Stats)
	if err != nil {
		return fmt.Errorf("encoding library stats: %w", err)
	}
	if sha256.Sum256(stats) != a.stats {
		return mismatchf("%s on %.12s (seed %d): served Stats differ from the library's",
			a.spec.Pattern, a.spec.Graph, a.spec.Options.Seed)
	}
	return nil
}

// detectCheckSample is how many distinct served detect specs a run
// re-runs through the library.
const detectCheckSample = 120

// verifyDetects re-runs a seeded sample of the distinct served detect
// specs, keyed by specKey, through subgraph.Detect on local copies of
// the graphs. When times is non-nil each library run is recorded there.
func verifyDetects(in *inputs, answers map[string]detectAnswer, seed int64, times *detectTimes) error {
	keys := make([]string, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	networks := make(map[string]*subgraph.Network)
	for i, d := range in.digests {
		networks[d] = subgraph.NewNetwork(in.graphs[i])
	}
	for _, k := range keys[:min(len(keys), detectCheckSample)] {
		a := answers[k]
		h, err := subgraph.ParsePattern(a.spec.Pattern)
		if err != nil {
			return err
		}
		opts, err := a.spec.Options.Options()
		if err != nil {
			return err
		}
		nw := networks[a.spec.Graph]
		if nw == nil {
			return fmt.Errorf("detect spec on %.12s, which set-up never uploaded", a.spec.Graph)
		}
		t0 := time.Now()
		rep, err := subgraph.Detect(nw, h, opts)
		times.add(time.Since(t0), rep)
		if err != nil {
			return fmt.Errorf("library replay of %s: %w", a.spec.Pattern, err)
		}
		if err := checkDetect(a, rep); err != nil {
			return err
		}
	}
	return nil
}

// checkMirror recounts the local successor from scratch: the watched K4
// count and the triangle read must both be exact.
func checkMirror(k *kernel.Kernel, mirror *graph.Graph, k4, k3 int64) error {
	b := graph.NewBitAdjacency(mirror)
	if want := k.Count(b, 4); k4 != want {
		return mismatchf("churn successor %.12s: K4 count %d, recount %d", mirror.Digest(), k4, want)
	}
	if want := k.Count(b, 3); k3 != want {
		return mismatchf("churn successor %.12s: triangle count %d, recount %d", mirror.Digest(), k3, want)
	}
	return nil
}

// specKey identifies a served spec: the result-cache key the server uses.
func specKey(spec serve.JobSpec) string {
	k, err := serve.SpecCacheKey(spec)
	if err != nil {
		panic(err) // the streams only generate valid digest-referencing specs
	}
	return k
}
