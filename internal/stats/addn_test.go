package stats

import (
	"fmt"
	"math"
	"testing"
)

// naiveAddN is the loop AddN must reproduce bit for bit.
func naiveAddN(s, c float64, n int) float64 {
	for k := 0; k < n; k++ {
		s += c
	}
	return s
}

// checkAddN compares AddN, and the closed form alone (also below the
// length where AddN prefers the loop), with the loop.
func checkAddN(t *testing.T, s, c float64, n int) {
	t.Helper()
	want := naiveAddN(s, c, n)
	check := func(name string, got float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%v [%#x], %v [%#x], %d) = %v [%#x], loop gives %v [%#x]",
				name, s, math.Float64bits(s), c, math.Float64bits(c), n,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check("AddN", AddN(s, c, n))
	if s >= 0 && s <= math.MaxFloat64 && c > 0 && c <= math.MaxFloat64 {
		check("addNBinades", addNBinades(s, c, n))
	}
}

// TestAddNMatchesLoop pins AddN to the sequential loop on the cases the
// binade argument has to get right: exact half-ulp ties (both parities),
// binade crossings, s = 0 and -0, c ≥ s, tiny and subnormal operands, c
// absorbed by s (δ = 0), the fleet's typical slack/shortfall operands,
// and inputs outside the closed form's domain.
func TestAddNMatchesLoop(t *testing.T) {
	ulp1 := math.Nextafter(1, 2) - 1 // ulp of [1, 2)
	cases := []struct{ s, c float64 }{
		{0, 1}, {0, 0.1}, {math.Copysign(0, -1), 0.3}, {0, 3.7},
		{1, ulp1 / 2}, {1 + ulp1, ulp1 / 2}, // half-ulp ties, even and odd s
		{1, 1.5 * ulp1}, {1 + ulp1, 1.5 * ulp1}, {1, 2.5 * ulp1}, {1 + ulp1, 3.5 * ulp1},
		{1, ulp1 / 4}, {1e16, 1}, {1e16, 0.5}, {1 << 53, 1}, // absorbed: δ = 0
		{1e16, 3}, {1e16 + 2, 1}, // ties at spacing 2
		{0.1, 0.2}, {1.5, 1.5}, {2, 7.25}, {3, 1e3}, // c ≥ s, crossings
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64},
		{0, 0x1p-1030}, {0x1p-1022, 0x1p-1060}, {1e-300, 1e-310},
		{12.5, 0.98}, {4, 0.02}, {7.96, 3.04}, {123456.789, 0.333},
		{math.MaxFloat64 / 4, math.MaxFloat64 / 8}, {0x1p1023, 1},
		{-1, 0.5}, {1, -0.25}, {1, 0}, {math.NaN(), 1}, {math.Inf(1), 1}, {1, math.Inf(1)},
	}
	for _, tc := range cases {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 44640, 100003} {
			checkAddN(t, tc.s, tc.c, n)
		}
	}
	rng := NewRNG(5)
	for i := 0; i < 3000; i++ {
		s := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		c := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		if i%4 == 0 {
			// Quantise both to a coarse grid so ties and exact sums occur.
			s = math.Ldexp(math.Floor(s*64), -6)
			c = math.Ldexp(math.Floor(c*64)+0.5, -6)
		}
		checkAddN(t, s, c, rng.Intn(5000))
	}
}

// FuzzAddN compares AddN with the loop on arbitrary operands (n bounded
// so the reference stays fast).
func FuzzAddN(f *testing.F) {
	f.Add(0.0, 1.0, uint16(100))
	f.Add(1.0, 0x1p-53, uint16(1000))
	f.Add(1.0, 0x1.8p-52, uint16(999))
	f.Add(1e16, 1.0, uint16(50))
	f.Add(0.1, 0.2, uint16(44640&0xffff))
	f.Fuzz(func(t *testing.T, s, c float64, n uint16) {
		checkAddN(t, s, c, int(n))
	})
}

// BenchmarkAddN times the closed form against the plain loop over sum
// lengths around their crossover, on a slack-like operand and an
// accumulator that grows from call to call as catch-up's do.
func BenchmarkAddN(b *testing.B) {
	const s0, c = 1234.5678, 1.37
	for _, n := range []int{1, 4, 8, 16, 24, 32, 40, 48, 64} {
		b.Run(fmt.Sprintf("loop/n=%d", n), func(b *testing.B) {
			s := s0
			for i := 0; i < b.N; i++ {
				s = naiveAddN(s, c, n)
			}
			addNSink = s
		})
		b.Run(fmt.Sprintf("closed/n=%d", n), func(b *testing.B) {
			s := s0
			for i := 0; i < b.N; i++ {
				s = addNBinades(s, c, n)
			}
			addNSink = s
		})
	}
}

var addNSink float64
