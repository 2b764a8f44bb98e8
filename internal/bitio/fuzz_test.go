package bitio

import (
	"bytes"
	"testing"
)

// Native fuzz targets (also executed as unit tests over the seed corpus
// by `go test`): decoders must never panic on arbitrary input, and
// round-trips must be exact.

func FuzzGammaDecode(f *testing.F) {
	f.Add([]byte{0xFF}, 3)
	f.Add([]byte{0x00}, 8)
	f.Add([]byte{0xA5, 0x3C}, 16)
	f.Fuzz(func(t *testing.T, data []byte, nbits int) {
		if nbits < 0 || nbits > 8*len(data) {
			return
		}
		s := FromBytes(data).Slice(0, nbits)
		r := NewReader(s)
		for r.Remaining() > 0 {
			if _, ok := GammaDecode(r); !ok {
				break
			}
		}
	})
}

func FuzzGammaRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1<<40 + 12345))
	f.Fuzz(func(t *testing.T, v uint64) {
		if v == ^uint64(0) {
			return
		}
		r := NewReader(GammaBits(v))
		got, ok := GammaDecode(r)
		if !ok || got != v || r.Remaining() != 0 {
			t.Fatalf("round trip failed for %d: got %d ok=%v rem=%d", v, got, ok, r.Remaining())
		}
	})
}

func FuzzBitStringSliceConcat(f *testing.F) {
	f.Add([]byte{0x0F, 0xF0}, 3, 11)
	f.Fuzz(func(t *testing.T, data []byte, from, to int) {
		s := FromBytes(data)
		if from < 0 || to > s.Len() || from > to {
			return
		}
		sub := s.Slice(from, to)
		if sub.Len() != to-from {
			t.Fatalf("slice length %d want %d", sub.Len(), to-from)
		}
		// Concat of complementary slices reconstructs the original.
		full := s.Slice(0, from).Concat(sub).Concat(s.Slice(to, s.Len()))
		if !full.Equal(s) {
			t.Fatal("slice/concat did not reconstruct")
		}
	})
}

// readUintRef and writeUintRef are ReadUint and WriteUint as they were
// before they moved whole bytes: one bit per step. They are the reference
// FuzzUintFields checks the byte-wise versions against.
func readUintRef(r *Reader, width int) (v uint64, ok bool) {
	if width < 0 || width > 64 || r.Remaining() < width {
		return 0, false
	}
	for i := 0; i < width; i++ {
		b, _ := r.ReadBit()
		v = v<<1 | uint64(b)
	}
	return v, true
}

func writeUintRef(w *Writer, v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(byte((v >> uint(i)) & 1))
	}
}

// FuzzUintFields checks ReadUint and WriteUint against the bit-at-a-time
// references: every width in 0–64, at any start position, on a string
// whose length need not be whole bytes, and on input too short for the
// field (ok == false, nothing consumed).
func FuzzUintFields(f *testing.F) {
	f.Add([]byte{0xA5, 0x3C, 0xFF}, uint16(3), uint8(11), uint8(2), uint64(1234))
	f.Add([]byte{}, uint16(0), uint8(1), uint8(0), uint64(1))
	f.Add([]byte{0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A}, uint16(7), uint8(64), uint8(0), ^uint64(0))
	f.Add([]byte{0xFF, 0x00}, uint16(9), uint8(8), uint8(1), uint64(0x81))
	f.Fuzz(func(t *testing.T, data []byte, start uint16, width, trim uint8, v uint64) {
		s := FromBytes(data)
		s = s.Slice(0, s.Len()-min(int(trim%8), s.Len()))
		w := int(width % 65)
		pos := int(start) % (s.Len() + 1)

		fast, ref := NewReader(s), NewReader(s)
		fast.pos, ref.pos = pos, pos
		got, gotOK := fast.ReadUint(w)
		want, wantOK := readUintRef(ref, w)
		if got != want || gotOK != wantOK || fast.pos != ref.pos {
			t.Fatalf("ReadUint(%d) at bit %d of %d: got (%d, %v) at %d, reference (%d, %v) at %d",
				w, pos, s.Len(), got, gotOK, fast.pos, want, wantOK, ref.pos)
		}

		if w < 64 {
			v &= 1<<uint(w) - 1
		}
		fw, rw := NewWriter(), NewWriter()
		fw.WriteBits(s.Slice(0, pos))
		rw.WriteBits(s.Slice(0, pos))
		fw.WriteUint(v, w)
		writeUintRef(rw, v, w)
		if fw.n != rw.n || !bytes.Equal(fw.data, rw.data) {
			t.Fatalf("WriteUint(%d, %d) after %d bits: got %x (%d bits), reference %x (%d bits)",
				v, w, pos, fw.data, fw.n, rw.data, rw.n)
		}
		r := NewReader(fw.BitString())
		r.pos = pos
		if back, ok := r.ReadUint(w); !ok || back != v || r.Remaining() != 0 {
			t.Fatalf("read back %d-bit field at bit %d: got (%d, %v), want %d", w, pos, back, ok, v)
		}
	})
}
