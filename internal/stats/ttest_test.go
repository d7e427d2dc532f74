package stats

import (
	"math"
	"testing"
)

func TestPairedTTestValidation(t *testing.T) {
	if _, err := PairedTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := PairedTTest([]float64{1}, []float64{1}); err == nil {
		t.Error("n<2 should error")
	}
}

func TestPairedTTestIdenticalSamples(t *testing.T) {
	a := []float64{3, 4, 5, 6, 7}
	r, err := PairedTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.P != 1 || r.T != 0 || r.MeanDiff != 0 {
		t.Errorf("identical samples: %+v, want P=1 T=0", r)
	}
	if r.Significant(0.05) {
		t.Error("identical samples should not be significant")
	}
}

func TestPairedTTestConstantShift(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 3, 4, 5} // exact shift, zero-variance differences
	r, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P != 0 {
		t.Errorf("constant nonzero shift should give P=0, got %v", r.P)
	}
	if !r.Significant(0.05) {
		t.Error("constant shift should be significant")
	}
}

func TestPairedTTestKnownValue(t *testing.T) {
	// Classic textbook example: diffs = {1, 2, 3, 4, 5} shifted around 0.
	a := []float64{10, 12, 9, 14, 11}
	b := []float64{9, 10, 7, 11, 9}
	// diffs = {1, 2, 2, 3, 2}; mean=2, sd=sqrt(0.5), t = 2/(sqrt(0.5)/sqrt(5)) ≈ 6.325.
	r, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r.T, 6.3245553, 1e-5) {
		t.Errorf("T = %v, want ≈6.3246", r.T)
	}
	if r.DF != 4 {
		t.Errorf("DF = %d, want 4", r.DF)
	}
	// Two-sided p for t=6.3246, df=4 ≈ 0.00320.
	if !almostEqual(r.P, 0.0032, 5e-4) {
		t.Errorf("P = %v, want ≈0.0032", r.P)
	}
}

func TestPairedTTestNoisyEquivalentSamples(t *testing.T) {
	// Two series that differ only by symmetric noise should not be
	// significantly different — this is the simulator-correctness check
	// shape from paper §5.
	rng := NewRNG(99)
	n := 200
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		base := 5 + 3*math.Sin(float64(i)/10)
		a[i] = base + rng.NormFloat64()*0.2
		b[i] = base + rng.NormFloat64()*0.2
	}
	r, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Significant(0.05) {
		t.Errorf("equivalent noisy series flagged significant: %+v", r)
	}
}

func TestPairedTTestDetectsRealShift(t *testing.T) {
	rng := NewRNG(123)
	n := 100
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = a[i] + 1.0 + rng.NormFloat64()*0.1
	}
	r, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Significant(0.05) {
		t.Errorf("clear shift not detected: %+v", r)
	}
	if r.MeanDiff >= 0 {
		t.Errorf("MeanDiff = %v, want negative (a < b)", r.MeanDiff)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := regIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v", got)
	}
	if got := regIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); !almostEqual(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.4, 0.6, 0.8} {
		lhs := regIncBeta(2.5, 4, x)
		rhs := 1 - regIncBeta(4, 2.5, 1-x)
		if !almostEqual(lhs, rhs, 1e-10) {
			t.Errorf("symmetry broken at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestStudentTSFKnownValues(t *testing.T) {
	// P(T > 0) = 0.5 for any df.
	if got := studentTSF(0, 10); got != 0.5 {
		t.Errorf("SF(0) = %v", got)
	}
	// df=1 (Cauchy): P(T > 1) = 0.25.
	if got := studentTSF(1, 1); !almostEqual(got, 0.25, 1e-6) {
		t.Errorf("SF(1, df=1) = %v, want 0.25", got)
	}
	// Large df approaches the normal tail: P(Z > 1.96) ≈ 0.025.
	if got := studentTSF(1.96, 10000); !almostEqual(got, 0.025, 1e-3) {
		t.Errorf("SF(1.96, df=1e4) = %v, want ≈0.025", got)
	}
}

// welchReference computes Welch's t and Welch–Satterthwaite degrees of
// freedom from first principles, without the package's helpers.
func welchReference(a, b []float64) (tStat, df float64) {
	moments := func(xs []float64) (mean, v float64) {
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		return mean, v / float64(len(xs)-1)
	}
	ma, va := moments(a)
	mb, vb := moments(b)
	na, nb := float64(len(a)), float64(len(b))
	qa, qb := va/na, vb/nb
	return (ma - mb) / math.Sqrt(qa+qb), (qa + qb) * (qa + qb) / (qa*qa/(na-1) + qb*qb/(nb-1))
}

func TestWelchTTestKnownValues(t *testing.T) {
	// Two textbook cases: equal sizes with unequal variances, and unequal
	// sizes. The p-values were obtained by integrating the Student t
	// density numerically at the reference t and df.
	cases := []struct {
		a, b []float64
		p    float64
	}{
		{
			a: []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4},
			b: []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 20.5, 24.4},
			p: 0.021378,
		},
		{
			a: []float64{17.2, 20.9, 22.6, 18.1, 21.7, 21.4, 23.5, 24.2, 14.7, 21.8},
			b: []float64{21.5, 22.8, 21.0, 23.0, 21.6, 23.6, 22.5, 20.7, 23.4, 21.8, 20.7, 21.7, 21.5, 22.5, 23.6, 21.5, 22.5, 23.5, 21.5, 21.8},
			p: 0.148842,
		},
	}
	for i, c := range cases {
		r, err := WelchTTest(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		wantT, wantDF := welchReference(c.a, c.b)
		if !almostEqual(r.T, wantT, 1e-12) || !almostEqual(r.DF, wantDF, 1e-9) {
			t.Errorf("case %d: T = %v, DF = %v; want %v, %v", i, r.T, r.DF, wantT, wantDF)
		}
		if !almostEqual(r.P, c.p, 1e-5) {
			t.Errorf("case %d: P = %v, want %v", i, r.P, c.p)
		}
		if r.NA != len(c.a) || r.NB != len(c.b) || r.MeanDiff >= 0 {
			t.Errorf("case %d: %+v", i, r)
		}
		if rev, _ := WelchTTest(c.b, c.a); rev.T != -r.T || rev.P != r.P {
			t.Errorf("case %d: swapping the samples gave %+v, want T negated and P unchanged", i, rev)
		}
	}
}

func TestWelchTTestEqualVariancesMatchPooled(t *testing.T) {
	// b is a shifted by a constant, in another order: equal sizes and
	// equal variances, where Welch's test is the pooled Student test with
	// 2n−2 degrees of freedom.
	a := []float64{4.1, 5.3, 2.2, 6.8, 5.0, 3.9, 4.4, 5.6}
	b := make([]float64, len(a))
	for i, x := range a {
		b[len(a)-1-i] = x + 1.5
	}
	r, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(a))
	pooledVar := (Variance(a) + Variance(b)) / 2
	pooledT := (Mean(a) - Mean(b)) / math.Sqrt(pooledVar*2/n)
	if !almostEqual(r.T, pooledT, 1e-9) {
		t.Errorf("T = %v, pooled t = %v", r.T, pooledT)
	}
	if !almostEqual(r.DF, 2*n-2, 1e-9) {
		t.Errorf("DF = %v, want %v", r.DF, 2*n-2)
	}
	if want := 2 * studentTSF(math.Abs(pooledT), 2*n-2); !almostEqual(r.P, want, 1e-9) {
		t.Errorf("P = %v, pooled p = %v", r.P, want)
	}
}

func TestWelchTTestErrors(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2, 3}); err == nil {
		t.Error("a sample of 1 should error")
	}
	if _, err := WelchTTest([]float64{1, 2, 3}, nil); err == nil {
		t.Error("an empty sample should error")
	}
	if _, err := WelchTTest([]float64{2, 2, 2}, []float64{5, 5}); err == nil {
		t.Error("two zero-variance samples should error")
	}
	// One constant sample is fine: the other carries the variance.
	r, err := WelchTTest([]float64{2, 2, 2}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r.DF, 2, 1e-12) || !r.Significant(0.1) {
		t.Errorf("one constant sample: %+v, want DF 2 and significant at 0.1", r)
	}
}
