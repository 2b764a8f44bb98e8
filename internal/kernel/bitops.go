// Package kernel is the word-parallel local detection backend: Chiba–
// Nishizeki-style triangle and K_s counting/detection kernels over the
// bitset adjacency in internal/graph, intersecting 64 candidate vertices
// per popcount word and fanning the outer loop across a persistent
// worker pool.
//
// The kernels answer the same question as the CONGEST engines on
// clique-family patterns — "does G contain K_s, and how many copies?" —
// but as a direct shared-memory computation with none of the per-node
// message-passing overhead. internal/serve routes counting-shaped jobs
// here on the cache-miss path; diffcheck oracles pin the answers to the
// VF2 ground truth and to both CONGEST engines.
package kernel

import "math/bits"

// intersectCountAbove returns the popcount of a AND b, leaving out bits
// 0..off of the first word — the masked intersection the ordered kernels
// use so each clique is counted exactly once (rank(u) < rank(v) <
// rank(w)). a and b are equal-length row suffixes aligned on the word
// of the rank the intersection is above, and off is that rank's bit
// within the word; every later word counts in full.
func intersectCountAbove(a, b []uint64, off uint) int64 {
	if len(a) == 0 {
		return 0
	}
	b = b[:len(a)]
	c := bits.OnesCount64(a[0] & b[0] & aboveMask(off))
	for i := 1; i < len(a); i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return int64(c)
}

// intersectAboveInto writes a AND b, masked as in intersectCountAbove,
// into dst[:len(a)] and returns the popcount of what it wrote.
func intersectAboveInto(dst, a, b []uint64, off uint) int64 {
	if len(a) == 0 {
		return 0
	}
	b, dst = b[:len(a)], dst[:len(a)]
	w := a[0] & b[0] & aboveMask(off)
	dst[0] = w
	c := bits.OnesCount64(w)
	for i := 1; i < len(a); i++ {
		w = a[i] & b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return int64(c)
}

// aboveMask returns a word with the bits strictly above off (0..63) set.
func aboveMask(off uint) uint64 {
	return ^uint64(1) << (off & 63)
}
