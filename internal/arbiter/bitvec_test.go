package arbiter

import (
	"math/rand"
	"testing"
)

// TestMaskEdges pins the valid-lane mask at the word boundaries the
// kernel leans on: Mask(64) must be all-ones (a plain 1<<64-1 would
// shift out), Mask(0) empty.
func TestMaskEdges(t *testing.T) {
	cases := []struct {
		n    int
		want BitVec
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{16, 0xFFFF},
		{63, ^BitVec(0) >> 1},
		{64, ^BitVec(0)},
		{100, ^BitVec(0)},
	}
	for _, tc := range cases {
		if got := Mask(tc.n); got != tc.want {
			t.Errorf("Mask(%d) = %064b, want %064b", tc.n, got, tc.want)
		}
	}
}

// TestBitVecAccessors: Bit/Count/FirstSet against hand-built words,
// including both word halves and the empty word.
func TestBitVecAccessors(t *testing.T) {
	var v BitVec = 1<<0 | 1<<17 | 1<<63
	for i := 0; i < 64; i++ {
		want := i == 0 || i == 17 || i == 63
		if v.Bit(i) != want {
			t.Errorf("Bit(%d) = %v, want %v", i, v.Bit(i), want)
		}
	}
	if v.Count() != 3 {
		t.Errorf("Count() = %d, want 3", v.Count())
	}
	if v.FirstSet() != 0 {
		t.Errorf("FirstSet() = %d, want 0", v.FirstSet())
	}
	if got := (BitVec(1) << 63).FirstSet(); got != 63 {
		t.Errorf("FirstSet() of bit 63 = %d, want 63", got)
	}
	if got := BitVec(0).FirstSet(); got != -1 {
		t.Errorf("FirstSet() of empty word = %d, want -1", got)
	}
	if BitVec(0).Count() != 0 {
		t.Errorf("Count() of empty word = %d, want 0", BitVec(0).Count())
	}
}

// TestRotr checks the scan rotation against a naive per-bit rotation
// for every (n, s) pair, so the branchless form can't hide an
// off-by-one at the word boundary.
func TestRotr(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 1; n <= 64; n++ {
		v := BitVec(r.Uint64()) & Mask(n)
		for s := 0; s < n; s++ {
			want := BitVec(0)
			for i := 0; i < n; i++ {
				if v.Bit((i + s) % n) {
					want |= 1 << uint(i)
				}
			}
			if got := v.rotr(s, n); got != want {
				t.Fatalf("rotr(s=%d, n=%d) of %064b = %064b, want %064b", s, n, v, got, want)
			}
		}
	}
}

// TestPackWriteRoundTrip: PackBools and WriteBools are inverses at
// every width, including the full 64-lane word.
func TestPackWriteRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 16, 31, 32, 33, 63, 64} {
		b := make([]bool, n)
		for i := range b {
			b[i] = r.Intn(2) == 0
		}
		v := PackBools(b)
		if v&^Mask(n) != 0 {
			t.Fatalf("n=%d: PackBools set bits above the lane mask: %064b", n, v)
		}
		out := make([]bool, n)
		v.WriteBools(out)
		for i := range b {
			if out[i] != b[i] {
				t.Fatalf("n=%d lane %d: round trip %v -> %064b -> %v", n, i, b, v, out)
			}
		}
	}
}

// FuzzBitVecRoundTrip: for any word and width, WriteBools then
// PackBools must reproduce exactly the low-n bits — the invariant the
// fsm/netlist policies' unpack/pack around their gate models rests on.
func FuzzBitVecRoundTrip(f *testing.F) {
	f.Add(uint64(0), 1)
	f.Add(uint64(0xDEADBEEF), 16)
	f.Add(^uint64(0), 64)
	f.Add(uint64(1)<<63, 63)
	f.Fuzz(func(t *testing.T, word uint64, n int) {
		if n < 1 || n > 64 {
			t.Skip()
		}
		v := BitVec(word)
		b := make([]bool, n)
		v.WriteBools(b)
		back := PackBools(b)
		if want := v & Mask(n); back != want {
			t.Fatalf("n=%d: %064b -> bools -> %064b, want %064b", n, v, back, want)
		}
		for i := 0; i < n; i++ {
			if b[i] != v.Bit(i) {
				t.Fatalf("n=%d lane %d: WriteBools %v, Bit %v", n, i, b[i], v.Bit(i))
			}
		}
	})
}
