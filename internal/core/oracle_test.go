package core

import (
	"errors"
	"math"
	"sort"
	"testing"

	"caasper/internal/pvp"
	"caasper/internal/stats"
)

// oracleDecide is Algorithm 1 (PAPER §4.1–4.2) transcribed literally: no
// memo, no scratch, no histogram and no selection. It sorts for the R-7
// quantile, scans every SKU for Eq. 1, and computes slopes, skew and the
// Eq. 3 scaling factor from their definitions. DecideScratch must agree
// with it bit for bit (the explanation aside, which DecideScratch defers),
// up to the sign of a zero quantile or peak: which of ±0 a selection
// returns depends on how it breaks ties, which the algorithm leaves open.
//
// Besides the decision it returns the Eq. 1 performance of every SKU and
// the window's peak, which the walk-down explanation quotes.
func oracleDecide(cfg Config, currentCores int, usage []float64) (Decision, []float64, float64, error) {
	// Line 2: drop NaN/±Inf and negative samples.
	var clean []float64
	for _, v := range usage {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			continue
		}
		clean = append(clean, v)
	}
	if len(clean) == 0 {
		return Decision{}, nil, 0, ErrNoUsage
	}
	n := len(clean)
	minC, maxC := cfg.SKUs.MinCores, cfg.SKUs.MaxCores
	xc := currentCores
	if xc < minC {
		xc = minC
	}
	if xc > maxC {
		xc = maxC
	}

	// Line 3, Eq. 1: Performance(R) = 1 − P(throttling | R), where a
	// sample throttles an SKU of R cores when it exceeds R·(1 − 2%).
	perf := make([]float64, 0, maxC-minC+1)
	for c := minC; c <= maxC; c++ {
		exceed := 0
		for _, u := range clean {
			if u > float64(c)*0.98 {
				exceed++
			}
		}
		perf = append(perf, 1-float64(exceed)/float64(n))
	}

	// Line 4: slopes are the forward differences in slope units.
	var slopes []float64
	for i := 0; i+1 < len(perf); i++ {
		slopes = append(slopes, (perf[i+1]-perf[i])*pvp.SlopeScale)
	}

	// Line 5: the bias-corrected Fisher–Pearson skewness of the slopes,
	// G1 = g1·√(k(k−1))/(k−2) with g1 = m3/m2^1.5, floored at zero.
	skew := 0.0
	if k := float64(len(slopes)); k >= 3 {
		sum := 0.0
		for _, x := range slopes {
			sum += x
		}
		mean := sum / k
		var m2, m3 float64
		for _, x := range slopes {
			d := x - mean
			m2 += d * d
			m3 += d * d * d
		}
		m2 /= k
		m3 /= k
		if m2 > 0 {
			g1 := m3 / math.Pow(m2, 1.5)
			skew = g1 * math.Sqrt(k*(k-1)) / (k - 2)
		}
	}
	if skew < 0 || math.IsNaN(skew) {
		skew = 0
	}

	// Line 6: the slope one core up from the allocation (0 at the top).
	s := 0.0
	if idx := xc - minC; idx < len(slopes) {
		s = slopes[idx]
	}

	// Line 7, Eq. 3: SF = ln(w·skew·s + c_min), the argument floored at 1.
	w := cfg.SF.SkewWeight
	if w <= 0 {
		w = 1
	}
	arg := w*skew*s + cfg.SF.CMin
	if arg < 1 {
		arg = 1
	}
	rawSF := math.Log(arg)

	// The R-7 quantile of the sorted window, and the peak.
	sorted := append([]float64(nil), clean...)
	sort.Float64s(sorted)
	pos := cfg.QuantileP * float64(n-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	q := sorted[lo]
	if lo != hi {
		frac := pos - float64(lo)
		q = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	peak := clean[0]
	for _, v := range clean[1:] {
		if v > peak {
			peak = v
		}
	}

	// Lines 8–14: the branches and the guardrail clamp.
	floor := cfg.MinCores
	if minC > floor {
		floor = minC
	}
	guard := func(t int) int { return stats.ClampInt(t, floor, maxC) }
	round := func(sf float64) int {
		if cfg.RoundUp {
			return int(math.Ceil(sf))
		}
		return int(math.Floor(sf))
	}
	d := Decision{CurrentCores: xc, Slope: s, Skew: skew, RawSF: rawSF, Quantile: q}
	capf := float64(xc)
	bufferedCores := func(v float64) int { return int(math.Ceil(v / (1 - cfg.SlackHigh))) }
	switch {
	case s >= cfg.SlopeHigh || q >= (1-cfg.SlackHigh)*capf:
		target := xc + stats.ClampInt(round(rawSF), 1, cfg.MaxStepUp)
		if needed := bufferedCores(q); target < needed {
			target = stats.ClampInt(needed, xc+1, xc+cfg.MaxStepUp)
		}
		d.Branch, d.TargetCores = BranchScaleUp, guard(target)
	case s <= cfg.SlopeLow || q <= cfg.SlackLow*capf:
		if s == 0 && perf[xc-minC] >= perf[len(perf)-1] {
			// Flat tail: the cheapest SKU below whose performance (and
			// every SKU's between it and the allocation) meets the
			// target, kept above the buffered peak.
			target := xc
			for c := xc - 1; c >= minC && perf[c-minC] >= cfg.WalkDownPerfTarget; c-- {
				target = c
			}
			if b := bufferedCores(peak); target < b {
				target = b
			}
			if target > xc {
				target = xc
			}
			d.Branch, d.TargetCores = BranchWalkDown, guard(target)
			if d.TargetCores >= xc {
				d.Branch, d.TargetCores = BranchHold, xc
			}
		} else {
			target := xc - stats.ClampInt(round(rawSF), 1, cfg.MaxStepDown)
			if minSafe := bufferedCores(q); target < minSafe {
				target = minSafe
			}
			if target > xc {
				target = xc
			}
			d.Branch, d.TargetCores = BranchScaleDown, guard(target)
			if d.TargetCores >= xc {
				d.Branch, d.TargetCores = BranchHold, xc
			}
		}
	default:
		d.Branch, d.TargetCores = BranchHold, xc
	}
	d.Delta = d.TargetCores - d.CurrentCores
	return d, perf, peak, nil
}

// sameDecision compares decisions field by field, floats by their bits
// except the quantile, whose zero sign is left open (see oracleDecide).
func sameDecision(a, b Decision) bool {
	bits := math.Float64bits
	return a.CurrentCores == b.CurrentCores && a.TargetCores == b.TargetCores &&
		a.Delta == b.Delta && a.Branch == b.Branch &&
		bits(a.Slope) == bits(b.Slope) && bits(a.Skew) == bits(b.Skew) &&
		bits(a.RawSF) == bits(b.RawSF) && a.Quantile == b.Quantile &&
		a.Explanation == b.Explanation
}

// oracleCase is one decoded fuzz input: a configuration, a sample
// series, and how rolling windows are cut from it.
type oracleCase struct {
	cfg    Config
	series []float64
	window int
	stride int
	cores  int
}

// decodeOracleCase maps arbitrary bytes onto a valid configuration and a
// sample series. Header bytes pick the ladder (up to 100 SKUs, so ladders
// wider than 64 reach the heap-bucket path of pvp.BuildCurveInto), the
// quantile p in (0, 1], the rounding mode, the allocation, the window
// length (1–128) and the stride. Every later byte is one sample: the
// high values are NaN, ±Inf, a negative, −0 and +0; the rest are levels
// on a grid of the ladder's capacity, so runs, repeats and samples at an
// SKU's exceed boundary are common.
func decodeOracleCase(data []byte) (oracleCase, bool) {
	if len(data) < 7 {
		return oracleCase{}, false // no samples
	}
	minC := 1 + int(data[0]%3)
	maxC := minC + int(data[1]%100)
	cfg := DefaultConfig(maxC)
	cfg.SKUs.MinCores = minC
	if cfg.MinCores > maxC {
		cfg.MinCores = maxC
	}
	cfg.QuantileP = float64(1+int(data[2]%100)) / 100
	if data[2]&0x80 != 0 {
		cfg.QuantileP = 0.95
	}
	cfg.RoundUp = data[3]&1 != 0
	cores := minC - 1 + int(data[3]>>1)%(maxC-minC+3)
	oc := oracleCase{
		cfg:    cfg,
		window: 1 + int(data[4]%128),
		stride: 1 + int(data[5]%16),
		cores:  cores,
	}
	scale := float64(maxC) * 1.1 / 239
	for _, b := range data[6:] {
		var v float64
		switch b {
		case 255:
			v = math.NaN()
		case 254:
			v = math.Inf(1)
		case 253:
			v = math.Inf(-1)
		case 252:
			v = -0.5
		case 251:
			v = math.Copysign(0, -1)
		case 250:
			v = float64(maxC) * 0.98 // exactly at the top SKU's boundary
		default:
			switch {
			case b >= 245: // one ulp above a low SKU's boundary
				v = math.Nextafter(float64(int(b)-244)*0.98, math.Inf(1))
			case b >= 240: // exactly at a low SKU's boundary
				v = float64(int(b)-239) * 0.98
			default:
				v = float64(b) * scale
			}
		}
		oc.series = append(oc.series, v)
	}
	return oc, true
}

// checkOracleCase streams rolling windows of the case through one
// scratch — every window twice, so the memo answers the repeat — with
// the allocation drifting by a core every few windows, and requires each
// DecideScratch result to equal the oracle's (see sameDecision). The memo key
// must be the last evaluated clean window, bit for bit, and the peak the
// walk-down explanation quotes the oracle's. It returns the scratch's
// memo hits.
func checkOracleCase(t *testing.T, oc oracleCase) uint64 {
	t.Helper()
	r, err := New(oc.cfg)
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	var sc Scratch
	// The memo's key and answer: the clean window and allocation of the
	// last full evaluation, and the oracle's decision for them. A window
	// equal to the key as floats (so possibly differing in the sign of a
	// zero) is answered from the memo, as it always has been.
	var memo []float64
	var memoCores int
	var memoWant Decision
	bits := math.Float64bits
	w := oc.window
	if w > len(oc.series) {
		w = len(oc.series)
	}
	for start, k := 0, 0; start+w <= len(oc.series); start, k = start+oc.stride, k+1 {
		cores := oc.cores + (k/3)%2
		// The window, the same window again, and a copy with every
		// zero's sign flipped and the last sample dropped as NaN (equal
		// to the window as floats, or a prefix of it).
		flipped := append([]float64(nil), oc.series[start:start+w]...)
		for i, v := range flipped {
			if v == 0 {
				flipped[i] = math.Copysign(0, -1/v)
			}
		}
		flipped[len(flipped)-1] = math.NaN()
		for rep, win := range [][]float64{oc.series[start : start+w], oc.series[start : start+w], flipped} {
			want, perf, peak, werr := oracleDecide(oc.cfg, cores, win)
			hits, misses := sc.MemoHits, sc.MemoMisses
			got, gerr := r.DecideScratch(&sc, cores, win)
			if !errors.Is(gerr, werr) || (werr == nil) != (gerr == nil) {
				t.Fatalf("window %v cores %d: err %v, oracle %v", win, cores, gerr, werr)
			}
			if werr != nil {
				continue
			}
			clean := Preprocess(win)
			keyed := memo != nil && memoCores == stats.ClampInt(cores, oc.cfg.SKUs.MinCores, oc.cfg.SKUs.MaxCores) &&
				equalAsFloats(clean, memo)
			switch {
			case keyed && sc.MemoHits == hits+1:
				if !sameDecision(got, memoWant) {
					t.Fatalf("window %v cores %d: memo answered %+v, memoised %+v", win, cores, got, memoWant)
				}
			case !keyed && sc.MemoMisses == misses+1:
				if !sameDecision(got, want) {
					t.Fatalf("window %v cores %d (repeat %d) cfg %+v:\n got    %+v\n oracle %+v",
						win, cores, rep, oc.cfg, got, want)
				}
				memo, memoCores, memoWant = clean, want.CurrentCores, want
				if k := sc.expKind; (k == expWalkDown || k == expHoldNoCheaper) && sc.expPeak != peak {
					t.Fatalf("window %v: explanation peak %v, oracle %v", win, sc.expPeak, peak)
				}
			default:
				t.Fatalf("window %v cores %d: memo key match %v, but hits %d→%d misses %d→%d",
					win, cores, keyed, hits, sc.MemoHits, misses, sc.MemoMisses)
			}
			m := sc.MemoSnapshot().Window
			same := len(m) == len(memo)
			for i := 0; same && i < len(m); i++ {
				same = bits(m[i]) == bits(memo[i])
			}
			if !same {
				t.Fatalf("window %v (repeat %d): memo window %v, want %v", win, rep, m, memo)
			}
			// The standalone curve builder must agree with Eq. 1 too.
			c, err := pvp.BuildCurve(clean, oc.cfg.SKUs)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range c.Points {
				if bits(p.Performance) != bits(perf[i]) {
					t.Fatalf("window %v: BuildCurve SKU %d performance %v, Eq. 1 gives %v", win, p.Cores, p.Performance, perf[i])
				}
			}
		}
	}
	return sc.MemoHits
}

// equalAsFloats reports element-wise == equality (so −0 equals +0).
func equalAsFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDecideMatchesOracle runs generated cases through checkOracleCase:
// plateau-like runs, noisy windows, special values, signed zeros and
// quantiles p across (0, 1].
func TestDecideMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(41)
	var hits uint64
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 6+rng.Intn(300))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		switch trial % 4 {
		case 1:
			// Mostly signed zeros, so zero order statistics and zero
			// peaks occur, and windows that differ only in zero signs.
			for i := 6; i < len(data); i++ {
				data[i] = []byte{0, 251, 0, 251, 0, 251, 3, 250}[rng.Intn(8)]
			}
		case 0, 2:
			// Plateau shape: a few levels in long runs, rare specials.
			levels := []byte{byte(rng.Intn(240)), byte(rng.Intn(240)), byte(240 + rng.Intn(16))}
			for i := 6; i < len(data); {
				lv := levels[rng.Intn(len(levels))]
				for j := rng.Intn(30); j >= 0 && i < len(data); j-- {
					data[i] = lv
					i++
				}
			}
		}
		oc, ok := decodeOracleCase(data)
		if !ok {
			continue
		}
		hits += checkOracleCase(t, oc)
	}
	if hits == 0 {
		t.Error("memo never answered — the oracle test lost its hit path")
	}
}

// FuzzDecideOracle is TestDecideMatchesOracle on fuzzer-chosen bytes
// (seed corpus in testdata/fuzz/FuzzDecideOracle).
func FuzzDecideOracle(f *testing.F) {
	f.Add([]byte{0, 3, 0x80, 4, 19, 10, 50, 50, 50, 200, 200, 200, 200, 250, 250, 50, 50, 50})
	f.Add([]byte{0, 31, 0x80, 16, 39, 10, 1, 9, 200, 17, 3, 255, 254, 253, 252, 251, 0, 0, 120, 7})
	f.Add([]byte{0, 3, 49, 6, 5, 1, 0, 251, 0, 0, 251, 251, 0, 251, 0, 0, 251, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if oc, ok := decodeOracleCase(data); ok {
			checkOracleCase(t, oc)
		}
	})
}
