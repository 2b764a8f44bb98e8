package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Digest returns the canonical content address of the graph: the
// lowercase-hex SHA-256 of a fixed binary serialization of (n, sorted edge
// list). Two Graph values carry the same digest exactly when they have the
// same vertex count and the same labeled edge set — regardless of the
// order edges were added to the Builder, and stable across processes and
// platforms.
//
// The digest addresses *labeled* graphs: relabeling vertices generally
// changes the digest even though the result is isomorphic. That is the
// intended semantics for content-addressed storage (the serve layer
// dedupes uploads byte-for-byte by meaning, not by isomorphism class —
// isomorphism-invariant hashing is a much harder problem).
//
// Serialization: "sgd1" magic, then n, then each edge (u, v) with u < v in
// ascending (u, v) order, all as big-endian uint64. Graph.Edges() already
// yields exactly that order from the CSR layout. The bytes reach the hash
// in digestBlock-sized writes, not one write per word.
func (g *Graph) Digest() string {
	h := sha256.New()
	buf := make([]byte, digestBlock)
	k := copy(buf, "sgd1")
	binary.BigEndian.PutUint64(buf[k:], uint64(g.n))
	k += 8
	for u := 0; u < g.n; u++ {
		row := g.adj[u]
		i, _ := slices.BinarySearch(row, int32(u)+1) // the first w > u
		for _, w := range row[i:] {
			if k+16 > len(buf) {
				h.Write(buf[:k])
				k = 0
			}
			binary.BigEndian.PutUint64(buf[k:], uint64(u))
			binary.BigEndian.PutUint64(buf[k+8:], uint64(w))
			k += 16
		}
	}
	h.Write(buf[:k])
	return hex.EncodeToString(h.Sum(nil))
}

// digestBlock is the size of Digest's hash writes: large enough that the
// per-write overhead vanishes, small enough to stay in L1.
const digestBlock = 8 << 10
