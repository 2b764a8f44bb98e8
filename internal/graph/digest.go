package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"sync/atomic"
)

// Digest returns the canonical content address of the graph: the
// lowercase-hex SHA-256 of a fixed binary serialization of n and the
// edge set. Two Graph values carry the same digest exactly when they have
// the same vertex count and the same labeled edge set — regardless of the
// order edges were added to the Builder, and stable across processes and
// platforms.
//
// The digest addresses *labeled* graphs: relabeling vertices generally
// changes the digest even though the result is isomorphic. That is the
// intended semantics for content-addressed storage (the serve layer
// dedupes uploads byte-for-byte by meaning, not by isomorphism class —
// isomorphism-invariant hashing is a much harder problem).
//
// Format "sgd2". Vertices are grouped into blocks of digestRows
// consecutive IDs, the last block possibly shorter. A block's sum is the
// SHA-256 of, for each vertex u of the block in order, the number of its
// neighbors w > u and then those neighbors ascending, every number a
// big-endian uint32. The digest is the SHA-256 of "sgd2", n as a
// big-endian uint64, and the block sums in block order. A block's input
// parses back to its rows and the root's layout is fixed by n, so two
// edge sets share a digest only through a SHA-256 collision.
//
// The digest is computed once per Graph, and concurrent calls are safe. A
// delta child (ApplyDelta) of a digested parent starts from the parent's
// block sums and rehashes only the blocks its changed edges fall in.
func (g *Graph) Digest() string {
	if g.dig.done.Load() {
		return g.dig.hex
	}
	g.dig.mu.Lock()
	defer g.dig.mu.Unlock()
	if g.dig.done.Load() {
		return g.dig.hex
	}
	var chunk [1 << 10]byte // the rows' encoding reaches the hash in writes of this size
	if nb := (g.n + digestRows - 1) / digestRows; nb <= 1 {
		var sum [sha256.Size]byte // one block keeps no sums: its child rehashes it anyway
		if nb == 1 {
			g.blockSum(0, sum[:], chunk[:])
		}
		g.dig.hex = rootDigest(g.n, sum[:nb*sha256.Size])
	} else {
		if g.dig.sums == nil {
			g.dig.sums = make([]byte, nb*sha256.Size)
			for b := range nb {
				g.blockSum(b, g.dig.sums[b*sha256.Size:], chunk[:])
			}
		}
		for _, b := range g.dig.dirty {
			g.blockSum(int(b), g.dig.sums[int(b)*sha256.Size:], chunk[:])
		}
		g.dig.hex, g.dig.dirty = rootDigest(g.n, g.dig.sums), nil
	}
	g.dig.done.Store(true)
	return g.dig.hex
}

// digestRows is the number of consecutive vertices one block sum covers.
// It is a constant of the sgd2 format: changing it changes every digest.
const digestRows = 16

// digestMemo is a Graph's digest, computed once by Digest. A graph of
// more than one block keeps its block sums (sha256.Size bytes each, in
// block order), which its delta children copy; a child's dirty lists the
// blocks, ascending, whose sums it must rehash before its first Digest.
// Once done is set, hex and sums never change.
type digestMemo struct {
	mu    sync.Mutex
	done  atomic.Bool
	hex   string
	sums  []byte
	dirty []int32
}

// patchedSums returns the block sums a delta child of g starts from, and
// the blocks, ascending, that it must rehash: nil, nil when g is
// undigested or has one block, so the child hashes from scratch. An edge
// (u, v) with u < v is encoded in u's block alone, so the changed edges'
// lower endpoints (changes, as normEdge keys) mark every changed block.
func (g *Graph) patchedSums(changes ...map[[2]int32]struct{}) (sums []byte, dirty []int32) {
	if !g.dig.done.Load() || g.dig.sums == nil {
		return nil, nil
	}
	for _, set := range changes {
		for key := range set {
			dirty = append(dirty, key[0]/digestRows)
		}
	}
	slices.Sort(dirty)
	return slices.Clone(g.dig.sums), slices.Compact(dirty)
}

// blockSum writes the sum of block b into sum, encoding the block's rows
// through chunk.
func (g *Graph) blockSum(b int, sum, chunk []byte) {
	h := sha256.New()
	k := 0
	put := func(x uint32) {
		if k == len(chunk) {
			h.Write(chunk)
			k = 0
		}
		binary.BigEndian.PutUint32(chunk[k:], x)
		k += 4
	}
	for u := b * digestRows; u < min(g.n, (b+1)*digestRows); u++ {
		row := g.Neighbors(u)
		i, _ := slices.BinarySearch(row, int32(u)+1) // the first w > u
		put(uint32(len(row) - i))
		for _, w := range row[i:] {
			put(uint32(w))
		}
	}
	h.Write(chunk[:k])
	h.Sum(sum[:0])
}

// rootDigest is the hex digest of a graph on n vertices with these block
// sums.
func rootDigest(n int, sums []byte) string {
	head := [4 + 8]byte{'s', 'g', 'd', '2'}
	binary.BigEndian.PutUint64(head[4:], uint64(n))
	h := sha256.New()
	h.Write(head[:])
	h.Write(sums)
	var sum [sha256.Size]byte
	return string(hex.AppendEncode(make([]byte, 0, 2*sha256.Size), h.Sum(sum[:0])))
}
