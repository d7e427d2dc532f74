package stats

import (
	"errors"
	"math"
)

// TTestResult holds the outcome of a paired Student t-test.
type TTestResult struct {
	// T is the test statistic: mean(diff) / (sd(diff)/sqrt(n)).
	T float64
	// DF is the degrees of freedom (n - 1).
	DF int
	// P is the two-sided p-value.
	P float64
	// MeanDiff is the mean of the pairwise differences.
	MeanDiff float64
	// N is the number of pairs.
	N int
}

// Significant reports whether the test rejects the null hypothesis of equal
// means at significance level alpha (e.g. 0.05).
func (r TTestResult) Significant(alpha float64) bool { return r.P < alpha }

// PairedTTest performs a two-sided paired Student t-test on samples a and b.
// The paper (§5, "Simulator Correctness") uses exactly this test to check
// that the decision series produced by the simulator and by live runs are
// statistically equivalent on average at alpha = 0.05: a high p-value means
// the simulator's decisions are indistinguishable from the live system's.
//
// If every pairwise difference is exactly zero, the statistic is defined as
// T = 0 with P = 1 (the samples are literally identical on average).
func PairedTTest(a, b []float64) (TTestResult, error) {
	if len(a) != len(b) {
		return TTestResult{}, errors.New("stats: paired t-test requires equal-length samples")
	}
	n := len(a)
	if n < 2 {
		return TTestResult{}, errors.New("stats: paired t-test requires at least 2 pairs")
	}
	diffs := make([]float64, n)
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	md := Mean(diffs)
	sd := StdDev(diffs)
	df := n - 1
	if sd == 0 {
		p := 1.0
		if md != 0 {
			p = 0.0 // identical spread but shifted: certainly different
		}
		return TTestResult{T: 0, DF: df, P: p, MeanDiff: md, N: n}, nil
	}
	t := md / (sd / math.Sqrt(float64(n)))
	p := 2 * studentTSF(math.Abs(t), float64(df))
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, DF: df, P: p, MeanDiff: md, N: n}, nil
}

// WelchResult holds the outcome of Welch's two-sample t-test.
type WelchResult struct {
	// T is the test statistic: (mean(a) − mean(b)) / sqrt(va/na + vb/nb)
	// with unbiased sample variances va and vb.
	T float64
	// DF is the Welch–Satterthwaite degrees of freedom,
	// (va/na + vb/nb)² / ((va/na)²/(na−1) + (vb/nb)²/(nb−1)); it is
	// fractional in general.
	DF float64
	// P is the two-sided p-value.
	P float64
	// MeanDiff is mean(a) − mean(b).
	MeanDiff float64
	// NA and NB are the sample sizes.
	NA, NB int
}

// Significant reports whether the test rejects the null hypothesis of equal
// means at significance level alpha (e.g. 0.05).
func (r WelchResult) Significant(alpha float64) bool { return r.P < alpha }

// WelchTTest performs Welch's two-sided t-test of equal means on two
// independent samples whose variances may differ — the comparison of two
// sets of benchmark runs, which share no pairing and whose spreads
// differ from one build to the next. With equal sizes and equal
// variances it reduces to the pooled Student t-test.
//
// Each sample needs at least 2 values. When both samples have zero
// variance the statistic is undefined and WelchTTest returns an error.
func WelchTTest(a, b []float64) (WelchResult, error) {
	na, nb := len(a), len(b)
	if na < 2 || nb < 2 {
		return WelchResult{}, errors.New("stats: Welch t-test requires at least 2 values per sample")
	}
	sa := Variance(a) / float64(na)
	sb := Variance(b) / float64(nb)
	se2 := sa + sb
	if se2 == 0 {
		return WelchResult{}, errors.New("stats: Welch t-test is undefined when both samples have zero variance")
	}
	md := Mean(a) - Mean(b)
	t := md / math.Sqrt(se2)
	df := se2 * se2 / (sa*sa/float64(na-1) + sb*sb/float64(nb-1))
	p := 2 * studentTSF(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return WelchResult{T: t, DF: df, P: p, MeanDiff: md, NA: na, NB: nb}, nil
}

// studentTSF returns P(T > t) for a Student t distribution with df degrees
// of freedom, via the regularised incomplete beta function:
//
//	P(T > t) = I_{df/(df+t²)}(df/2, 1/2) / 2   for t ≥ 0.
func studentTSF(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularised incomplete beta function I_x(a, b)
// using the continued-fraction expansion from Numerical Recipes.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
