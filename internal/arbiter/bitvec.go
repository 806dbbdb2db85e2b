// The bitset arbitration kernel: request and grant vectors packed into
// single uint64 words, with the branchless rotate / isolate-lowest-set
// round-robin scan high-speed parallel arbiters use in hardware. BitVec
// is the one request/grant format every Policy steps on and every
// TraceStep records; []bool views exist only inside the gate-level
// fsm/netlist policies, whose machines are per-bit by nature.

package arbiter

import "math/bits"

// BitVec packs a request or grant vector into one uint64 word, bit i
// carrying line i. One word covers every supported behavioral arbiter
// size (MaxN = 64), so a whole arbitration cycle — generator, scan,
// safety checks — runs in registers instead of walking []bool lanes.
type BitVec uint64

// Mask returns the BitVec with the low n bits set — the valid-lane mask
// of an n-line arbiter. n must be in [0, 64].
func Mask(n int) BitVec {
	if n >= MaxN {
		return ^BitVec(0)
	}
	return BitVec(1)<<uint(n) - 1
}

// Bit reports whether line i is set.
func (v BitVec) Bit(i int) bool { return v>>uint(i)&1 != 0 }

// Count returns the number of set lines (popcount).
func (v BitVec) Count() int { return bits.OnesCount64(uint64(v)) }

// FirstSet returns the index of the lowest set line, or -1 when v is
// empty — the holder extraction for a one-hot grant word.
func (v BitVec) FirstSet() int {
	if v == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(v))
}

// PackBools packs b into a BitVec, bit i from b[i]. len(b) must be at
// most 64.
//
//sparcs:hotpath
func PackBools(b []bool) BitVec {
	var v BitVec
	for i, x := range b {
		if x {
			v |= 1 << uint(i)
		}
	}
	return v
}

// WriteBools unpacks the low len(dst) bits of v into dst.
//
//sparcs:hotpath
func (v BitVec) WriteBools(dst []bool) {
	for i := range dst {
		dst[i] = v&1 != 0
		v >>= 1
	}
}

// rotr rotates the low n bits of v right by s (0 <= s < n <= 64): bit s
// lands on bit 0, so a cyclic priority scan starting at line s becomes
// a find-lowest-set on the rotated word. Bits at or above n must be
// clear on entry.
func (v BitVec) rotr(s, n int) BitVec {
	//sparcs:ignore bitwidth s==0 makes n-s==64 and the << lobe intentionally zero; the >>0 lobe carries the word
	return (v>>uint(s) | v<<uint(n-s)) & Mask(n)
}

// BitStepper arbitrates one cycle entirely on BitVec words: StepBits
// reads the request lines R1..RN (bit i = line i) and returns the grant
// word G1..GN for the same cycle. Bits at or above N() in req are
// ignored; the returned grant is one-hot (or zero) below N(). Every
// Policy is a BitStepper.
type BitStepper interface {
	StepBits(req BitVec) BitVec
}

// AsBitStepper returns p's word-level stepper, which is p itself.
func AsBitStepper(p Policy) BitStepper {
	return p
}
