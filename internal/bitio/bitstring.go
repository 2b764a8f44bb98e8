// Package bitio provides bit-granular strings, readers and writers, and
// simple self-delimiting (prefix-free) integer codes.
//
// CONGEST bandwidth is measured in bits, not bytes, so simulator message
// payloads are BitStrings: the number of significant bits is tracked exactly
// and bandwidth enforcement never rounds up to byte boundaries. The prefix
// code helpers implement the self-delimiting message requirement of the
// Section 4 lower bound (transcripts must parse uniquely).
package bitio

import (
	"fmt"
	"strings"
)

// BitString is an immutable-by-convention sequence of bits. Bit i is stored
// in data[i/8] at position i%8 counting from the most significant bit, so
// lexicographic byte order equals lexicographic bit order.
//
// The zero value is the empty bit string, ready to use.
type BitString struct {
	data []byte
	n    int // number of significant bits
}

// Len returns the number of bits in s.
func (s BitString) Len() int { return s.n }

// Empty reports whether s has zero bits.
func (s BitString) Empty() bool { return s.n == 0 }

// Bit returns bit i (0 or 1). It panics if i is out of range.
func (s BitString) Bit(i int) byte {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitio: bit index %d out of range [0,%d)", i, s.n))
	}
	return (s.data[i>>3] >> (7 - uint(i&7))) & 1
}

// Bytes returns the underlying storage. The final byte's trailing bits
// (beyond Len) are zero. The caller must not modify the result.
func (s BitString) Bytes() []byte { return s.data }

// String renders the bits as a "0"/"1" string, for debugging and tests.
func (s BitString) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		b.WriteByte('0' + s.Bit(i))
	}
	return b.String()
}

// Equal reports whether s and t contain the same bits.
func (s BitString) Equal(t BitString) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.data {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p is a prefix of s.
func (s BitString) HasPrefix(p BitString) bool {
	if p.n > s.n {
		return false
	}
	full := p.n >> 3
	for i := 0; i < full; i++ {
		if s.data[i] != p.data[i] {
			return false
		}
	}
	if rem := uint(p.n & 7); rem != 0 {
		mask := byte(0xFF << (8 - rem))
		if (s.data[full]^p.data[full])&mask != 0 {
			return false
		}
	}
	return true
}

// Concat returns the concatenation of s followed by t.
func (s BitString) Concat(t BitString) BitString {
	w := NewWriter()
	w.WriteBits(s)
	w.WriteBits(t)
	return w.BitString()
}

// Slice returns the bit substring [from, to).
func (s BitString) Slice(from, to int) BitString {
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("bitio: slice [%d,%d) out of range [0,%d]", from, to, s.n))
	}
	w := NewWriter()
	for i := from; i < to; i++ {
		w.WriteBit(s.Bit(i))
	}
	return w.BitString()
}

// FromBits builds a BitString from a slice of 0/1 values.
func FromBits(bits []byte) BitString {
	w := NewWriter()
	for _, b := range bits {
		w.WriteBit(b)
	}
	return w.BitString()
}

// FromString parses a "0101…" string; any rune other than '0'/'1' panics.
func FromString(s string) BitString {
	w := NewWriter()
	for _, r := range s {
		switch r {
		case '0':
			w.WriteBit(0)
		case '1':
			w.WriteBit(1)
		default:
			panic(fmt.Sprintf("bitio: invalid bit rune %q", r))
		}
	}
	return w.BitString()
}

// FromBytes wraps raw bytes as a BitString of 8*len(b) bits. The slice is
// copied so later mutation of b does not alias the result.
func FromBytes(b []byte) BitString {
	cp := make([]byte, len(b))
	copy(cp, b)
	return BitString{data: cp, n: 8 * len(b)}
}

// Uint builds a fixed-width big-endian encoding of v using width bits.
// It panics if v does not fit.
func Uint(v uint64, width int) BitString {
	w := NewWriter()
	w.WriteUint(v, width)
	return w.BitString()
}

// Writer accumulates bits. The zero value is not ready; use NewWriter.
type Writer struct {
	data []byte
	n    int
}

// NewWriter returns an empty bit writer.
func NewWriter() *Writer { return &Writer{} }

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// WriteBit appends one bit (any nonzero b counts as 1).
func (w *Writer) WriteBit(b byte) {
	if w.n&7 == 0 {
		w.data = append(w.data, 0)
	}
	if b != 0 {
		w.data[w.n>>3] |= 1 << (7 - uint(w.n&7))
	}
	w.n++
}

// WriteUint appends v as a fixed-width big-endian field. It panics if v
// needs more than width bits or width is not in [0,64].
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitio: value %d does not fit in %d bits", v, width))
	}
	// A byte at a time: each step fills the rest of the current byte (or
	// a fresh one) with the field's next most significant bits.
	for width > 0 {
		off := w.n & 7
		if off == 0 {
			w.data = append(w.data, 0)
		}
		take := min(8-off, width)
		width -= take
		chunk := byte(v>>uint(width)) & (0xFF >> uint(8-take))
		w.data[w.n>>3] |= chunk << uint(8-off-take)
		w.n += take
	}
}

// WriteBits appends all bits of s.
func (w *Writer) WriteBits(s BitString) {
	// Fast path: writer is byte-aligned, bulk-copy whole bytes.
	if w.n&7 == 0 {
		w.data = append(w.data, s.data...)
		w.n += s.n
		// Zero any trailing garbage is unnecessary: s keeps trailing bits 0.
		return
	}
	for i := 0; i < s.n; i++ {
		w.WriteBit(s.Bit(i))
	}
}

// BitString returns the accumulated bits. The writer may keep being used;
// the returned value does not alias future writes.
func (w *Writer) BitString() BitString {
	cp := make([]byte, len(w.data))
	copy(cp, w.data)
	return BitString{data: cp, n: w.n}
}

// Reader consumes a BitString from the front.
type Reader struct {
	s   BitString
	pos int
}

// NewReader returns a reader positioned at the first bit of s.
func NewReader(s BitString) *Reader { return &Reader{s: s} }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.n - r.pos }

// Pos returns the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }

// ReadBit consumes and returns one bit. ok is false at end of input.
func (r *Reader) ReadBit() (bit byte, ok bool) {
	if r.pos >= r.s.n {
		return 0, false
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b, true
}

// ReadUint consumes a fixed-width big-endian field.
func (r *Reader) ReadUint(width int) (v uint64, ok bool) {
	if width < 0 || width > 64 || r.Remaining() < width {
		return 0, false
	}
	// A byte at a time: each step takes the rest of the current byte, or
	// as much of it as the field still needs.
	for width > 0 {
		off := r.pos & 7
		take := min(8-off, width)
		b := r.s.data[r.pos>>3] >> uint(8-off-take) & (0xFF >> uint(8-take))
		v = v<<uint(take) | uint64(b)
		r.pos += take
		width -= take
	}
	return v, true
}
