package bitio

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyBitString(t *testing.T) {
	var s BitString
	if s.Len() != 0 || !s.Empty() {
		t.Fatalf("zero BitString not empty: len=%d", s.Len())
	}
	if s.String() != "" {
		t.Fatalf("zero BitString String()=%q", s.String())
	}
}

func TestFromStringRoundTrip(t *testing.T) {
	cases := []string{"", "0", "1", "01", "10", "1111111110", "010101010101010101"}
	for _, c := range cases {
		s := FromString(c)
		if s.String() != c {
			t.Errorf("FromString(%q).String() = %q", c, s.String())
		}
		if s.Len() != len(c) {
			t.Errorf("FromString(%q).Len() = %d", c, s.Len())
		}
	}
}

func TestBitIndexing(t *testing.T) {
	s := FromString("10110001")
	want := []byte{1, 0, 1, 1, 0, 0, 0, 1}
	for i, w := range want {
		if s.Bit(i) != w {
			t.Errorf("Bit(%d) = %d, want %d", i, s.Bit(i), w)
		}
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromString("101").Bit(3)
}

func TestWriteUintAndReadUint(t *testing.T) {
	w := NewWriter()
	w.WriteUint(0b1011, 4)
	w.WriteUint(0, 3)
	w.WriteUint(0xFFFF, 16)
	s := w.BitString()
	r := NewReader(s)
	if v, ok := r.ReadUint(4); !ok || v != 0b1011 {
		t.Fatalf("ReadUint(4) = %d,%v", v, ok)
	}
	if v, ok := r.ReadUint(3); !ok || v != 0 {
		t.Fatalf("ReadUint(3) = %d,%v", v, ok)
	}
	if v, ok := r.ReadUint(16); !ok || v != 0xFFFF {
		t.Fatalf("ReadUint(16) = %d,%v", v, ok)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
	if _, ok := r.ReadUint(1); ok {
		t.Fatal("read past end succeeded")
	}
}

func TestWriteUintPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWriter().WriteUint(16, 4)
}

func TestConcatAndSlice(t *testing.T) {
	a := FromString("101")
	b := FromString("0011")
	c := a.Concat(b)
	if c.String() != "1010011" {
		t.Fatalf("concat = %q", c.String())
	}
	if got := c.Slice(3, 7).String(); got != "0011" {
		t.Fatalf("slice = %q", got)
	}
	if got := c.Slice(0, 0).String(); got != "" {
		t.Fatalf("empty slice = %q", got)
	}
}

func TestHasPrefix(t *testing.T) {
	s := FromString("110100111")
	for i := 0; i <= s.Len(); i++ {
		if !s.HasPrefix(s.Slice(0, i)) {
			t.Errorf("prefix of length %d not recognized", i)
		}
	}
	if s.HasPrefix(FromString("111")) {
		t.Error("false prefix accepted")
	}
	if FromString("11").HasPrefix(s) {
		t.Error("longer string accepted as prefix")
	}
}

func TestEqual(t *testing.T) {
	if !FromString("1010").Equal(FromString("1010")) {
		t.Error("equal strings not Equal")
	}
	if FromString("1010").Equal(FromString("10100")) {
		t.Error("different lengths Equal")
	}
	if FromString("1010").Equal(FromString("1011")) {
		t.Error("different bits Equal")
	}
}

func TestFromBytes(t *testing.T) {
	b := []byte{0xA5}
	s := FromBytes(b)
	if s.String() != "10100101" {
		t.Fatalf("FromBytes = %q", s.String())
	}
	b[0] = 0 // must not alias
	if s.String() != "10100101" {
		t.Fatal("FromBytes aliases caller slice")
	}
}

func TestWriterBitStringSnapshot(t *testing.T) {
	w := NewWriter()
	w.WriteBit(1)
	s1 := w.BitString()
	w.WriteBit(1)
	if s1.Len() != 1 {
		t.Fatal("snapshot grew with writer")
	}
}

// Property: writing random bit sequences and reading them back is identity.
func TestQuickWriterReaderRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		w := NewWriter()
		for _, b := range bits {
			if b {
				w.WriteBit(1)
			} else {
				w.WriteBit(0)
			}
		}
		s := w.BitString()
		if s.Len() != len(bits) {
			return false
		}
		for i, b := range bits {
			want := byte(0)
			if b {
				want = 1
			}
			if s.Bit(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Concat length is additive and preserves contents.
func TestQuickConcat(t *testing.T) {
	f := func(a, b []bool) bool {
		sa, sb := fromBools(a), fromBools(b)
		c := sa.Concat(sb)
		if c.Len() != sa.Len()+sb.Len() {
			return false
		}
		return c.Slice(0, sa.Len()).Equal(sa) && c.Slice(sa.Len(), c.Len()).Equal(sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fromBools(bits []bool) BitString {
	w := NewWriter()
	for _, b := range bits {
		if b {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
	}
	return w.BitString()
}

func TestGammaRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 7, 8, 100, 1 << 20, 1<<63 - 1}
	w := NewWriter()
	for _, v := range values {
		Gamma(w, v)
	}
	r := NewReader(w.BitString())
	for _, v := range values {
		got, ok := GammaDecode(r)
		if !ok || got != v {
			t.Fatalf("GammaDecode = %d,%v want %d", got, ok, v)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("leftover bits: %d", r.Remaining())
	}
}

func TestGammaLenMatchesEncoding(t *testing.T) {
	for v := uint64(0); v < 1000; v++ {
		if got := GammaBits(v).Len(); got != GammaLen(v) {
			t.Fatalf("GammaLen(%d) = %d, encoding has %d bits", v, GammaLen(v), got)
		}
	}
}

func TestGammaIsPrefixFree(t *testing.T) {
	var set []BitString
	for v := uint64(0); v < 200; v++ {
		set = append(set, GammaBits(v))
	}
	if ok, i, j := IsPrefixFree(set); !ok {
		t.Fatalf("gamma code not prefix free: %d prefixes %d", i, j)
	}
	if k := KraftSum(set); k > 1.0000001 {
		t.Fatalf("Kraft sum %f > 1", k)
	}
}

func TestIsPrefixFreeDetectsViolation(t *testing.T) {
	set := []BitString{FromString("10"), FromString("101")}
	if ok, _, _ := IsPrefixFree(set); ok {
		t.Fatal("violation not detected")
	}
	dup := []BitString{FromString("10"), FromString("10")}
	if ok, _, _ := IsPrefixFree(dup); ok {
		t.Fatal("duplicate not detected")
	}
}

// Property: gamma round-trips for arbitrary uint64 below 2^62.
func TestQuickGamma(t *testing.T) {
	f := func(v uint64) bool {
		v &= 1<<62 - 1
		r := NewReader(GammaBits(v))
		got, ok := GammaDecode(r)
		return ok && got == v && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGammaDecodeMalformed(t *testing.T) {
	// All zeros: no terminating 1.
	r := NewReader(FromString("00000"))
	if _, ok := GammaDecode(r); ok {
		t.Fatal("decoded malformed stream")
	}
	// Truncated payload: "001" promises 2 more bits but has none.
	r = NewReader(FromString("001"))
	if _, ok := GammaDecode(r); ok {
		t.Fatal("decoded truncated stream")
	}
}

func TestMustParseAll(t *testing.T) {
	w := NewWriter()
	want := []uint64{4, 0, 99}
	for _, v := range want {
		Gamma(w, v)
	}
	got := MustParseAll(w.BitString())
	if len(got) != len(want) {
		t.Fatalf("parsed %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestWriteBitsUnaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		w := NewWriter()
		var want string
		for chunk := 0; chunk < 5; chunk++ {
			n := rng.Intn(20)
			cw := NewWriter()
			for i := 0; i < n; i++ {
				b := byte(rng.Intn(2))
				cw.WriteBit(b)
			}
			cs := cw.BitString()
			want += cs.String()
			w.WriteBits(cs)
		}
		if got := w.BitString().String(); got != want {
			t.Fatalf("trial %d: WriteBits mismatch\n got %s\nwant %s", trial, got, want)
		}
	}
}

// uintBenchWidths are the field widths the Uint benchmarks move: an
// identifier on a 2,000-vertex network (11 bits), a byte, and a full word.
var uintBenchWidths = []int{11, 8, 64}

// BenchmarkReadUint reads 64 fields of each width from one payload that
// starts one bit off a byte boundary, as a payload after a flag bit does.
func BenchmarkReadUint(b *testing.B) {
	for _, width := range uintBenchWidths {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			const fields = 64
			w := NewWriter()
			w.WriteBit(1)
			for i := 0; i < fields; i++ {
				w.WriteUint(uint64(i*0x9E3779B9)&(1<<uint(width)-1), width)
			}
			s := w.BitString()
			b.ReportAllocs()
			var sum uint64
			for i := 0; i < b.N; i++ {
				r := NewReader(s)
				r.ReadBit()
				for j := 0; j < fields; j++ {
					v, _ := r.ReadUint(width)
					sum += v
				}
			}
			benchSink = sum
		})
	}
}

// BenchmarkWriteUint writes 64 fields of each width after one flag bit,
// into a writer whose buffer is reused across iterations.
func BenchmarkWriteUint(b *testing.B) {
	for _, width := range uintBenchWidths {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			const fields = 64
			w := NewWriter()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.data, w.n = w.data[:0], 0
				w.WriteBit(1)
				for j := 0; j < fields; j++ {
					w.WriteUint(uint64(j*0x9E3779B9)&(1<<uint(width)-1), width)
				}
			}
			benchSink = uint64(w.n)
		})
	}
}

var benchSink uint64
