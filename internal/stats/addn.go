package stats

import "math"

// AddN returns what n sequential float64 additions produce,
//
//	for k := 0; k < n; k++ {
//		s += c
//	}
//
// rounding included, in O(binades crossed) steps instead of O(n).
//
// Why a closed form exists: inside one binade [2^e, 2^(e+1)) every double
// is a multiple of the binade's ulp u, so round-to-nearest of s + c
// depends only on c's residue modulo u — and, on an exact half-ulp tie, on
// the parity of s/u. While the sums stay inside the binade and no tie is
// involved, every add therefore contributes the same representable
// increment δ = fl(s+c) − s, and k adds give s + k·δ exactly. A tie keeps
// δ constant as well once s/u is even: ties-to-even then lands on an even
// sum, so δ/u is even too and every later add picks the same neighbour.
// Whenever an add would leave the binade, or a tie meets an odd parity,
// one ordinary add is taken and the walk restarts from the new sum. The
// subnormals and the first normal binade share one ulp and count as one
// binade.
//
// Inputs outside finite s ≥ 0, finite c > 0 take the plain loop, and so
// do short sums, where the loop is cheaper than one binade step.
func AddN(s, c float64, n int) float64 {
	if n < addNLoop || !(s >= 0 && s <= math.MaxFloat64 && c > 0 && c <= math.MaxFloat64) {
		for ; n > 0; n-- {
			s += c
		}
		return s
	}
	return addNBinades(s, c, n)
}

// addNBinades is AddN's closed form, for finite s ≥ 0 and finite c > 0.
func addNBinades(s, c float64, n int) float64 {
	for n > 0 {
		t := s + c
		bits := math.Float64bits(s) &^ (1 << 63) // s may be -0
		e := int(bits >> 52)
		if e < 1 {
			e = 1 // subnormals share the first normal binade's ulp
		}
		// last is the largest double of s's binade; u its ulp.
		last := math.Float64frombits(uint64(e+1)<<52 - 1)
		u := ulpOfBinade(e)
		if !(t <= last) {
			s, n = t, n-1 // the add leaves the binade
			continue
		}
		// Both t and s are multiples of u below 2^(e+1), so d is exact,
		// and c − d is the add's exact rounding error (Sterbenz).
		d := t - s
		if r := c - d; r != 0 && math.Abs(r) == u/2 && bits&1 != 0 {
			// A tie from an odd s: the even sum it rounds to starts a
			// constant run with the next add.
			s, n = t, n-1
			continue
		}
		if d == 0 {
			return s // s absorbs c: every further add leaves it unchanged
		}
		// The largest k with s + k·d ≤ last, in units of u.
		k := uint64((last-s)/u) / uint64(d/u)
		if k > uint64(n) {
			k = uint64(n)
		}
		if k == 0 {
			s, n = t, n-1
			continue
		}
		s += float64(k) * d // exact: a multiple of u inside the binade
		n -= int(k)
	}
	return s
}

// addNLoop is the sum length below which AddN just loops. BenchmarkAddN
// on a 2-vCPU Xeon (go1.24): the closed form costs 23–27 ns whatever n
// on a slack-like operand, the loop about 0.7 ns per add; the loop is
// cheaper up to n = 32 and dearer from n = 40. Catch-up on
// fleet-month-plateau calls AddN with n of 8–15 four times in five.
const addNLoop = 36

// ulpOfBinade returns 2^(e−1075), the spacing of the doubles whose biased
// exponent is e ≥ 1.
func ulpOfBinade(e int) float64 {
	if e > 52 {
		return math.Float64frombits(uint64(e-52) << 52)
	}
	return math.Float64frombits(1 << (e - 1)) // a subnormal
}
