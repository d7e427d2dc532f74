package core

import (
	"errors"
	"math"
	"strconv"

	"caasper/internal/obs"
	"caasper/internal/pvp"
	"caasper/internal/stats"
)

// Branch identifies which arm of Algorithm 1 produced a decision.
type Branch string

// The decision branches of Algorithm 1.
const (
	// BranchScaleUp is lines 8–9: steep slope or thin head-room.
	BranchScaleUp Branch = "scale-up"
	// BranchScaleDown is lines 10–11: flat slope or large idle share.
	BranchScaleDown Branch = "scale-down"
	// BranchWalkDown is lines 12–13: flat tail, severe over-provisioning.
	BranchWalkDown Branch = "walk-down"
	// BranchHold is the implicit between-thresholds case: no change.
	BranchHold Branch = "hold"
)

// Decision is the output of one Algorithm 1 evaluation, carrying enough
// intermediate state to satisfy the paper's interpretability requirement
// (R6): the slope, skew, raw scaling factor and a prose explanation.
type Decision struct {
	// CurrentCores is the CPU allocation the decision was made against.
	CurrentCores int
	// TargetCores is the recommended CPU allocation (integer,
	// guardrailed).
	TargetCores int
	// Delta is TargetCores − CurrentCores.
	Delta int
	// Branch names the Algorithm 1 arm that fired.
	Branch Branch
	// Slope is the PvP-curve slope s at CurrentCores.
	Slope float64
	// Skew is the slope-distribution skewness used by Eq. 3.
	Skew float64
	// RawSF is the unclamped, fractional Eq. 3 scaling factor.
	RawSF float64
	// Quantile is the usage quantile compared against the slack bands.
	Quantile float64
	// Explanation is a human-readable account of the decision.
	Explanation string
}

// ScalingNeeded reports whether the decision changes the allocation.
func (d Decision) ScalingNeeded() bool { return d.Delta != 0 }

// Recommender evaluates Algorithm 1. It is stateless across calls — the
// paper's "clean-slate, history-independent reactive algorithm" — so a
// single instance may be shared by concurrent callers.
type Recommender struct {
	cfg Config
}

// New builds a Recommender after validating cfg.
func New(cfg Config) (*Recommender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Recommender{cfg: cfg}, nil
}

// Config returns the recommender's configuration.
func (r *Recommender) Config() Config { return r.cfg }

// ErrNoUsage is returned when the usage window is empty after
// preprocessing.
var ErrNoUsage = errors.New("core: empty usage window")

// Preprocess cleans a usage window the way Algorithm 1 line 2 does:
// NaN/Inf samples (metric-gap artifacts around restarts) and negatives
// are dropped. The input is not mutated.
func Preprocess(usage []float64) []float64 {
	return appendPreprocessed(make([]float64, 0, len(usage)), usage)
}

// appendPreprocessed appends the Preprocess-surviving samples of usage to
// dst and returns it.
func appendPreprocessed(dst, usage []float64) []float64 {
	for _, v := range usage {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// Scratch holds the reusable per-caller evaluation state of Decide: a
// memo of the most recent decision (whose key window doubles as the
// preprocessed-window buffer), the exceed histogram, the quantile's
// selection copy and the PvP curve storage. A long-lived caller (the
// simulator adapters, the k8s control loop) keeps one Scratch per
// decision stream and passes it to DecideScratch, eliminating the
// per-decision allocations and skipping the curve rebuild entirely when
// the decision inputs are unchanged — common while usage sits flat or
// pinned at the cap between ticks.
//
// A Scratch must not be shared between goroutines. The zero value is
// ready to use; a Scratch handed to a different Recommender resets itself,
// so a stale memo can never cross configurations.
type Scratch struct {
	// Sink, when non-nil and enabled, receives one "core.decision" audit
	// event per evaluation: branch, slope, skew, raw scaling factor,
	// quantile and whether the memo answered — the machine-readable form
	// of the paper's interpretability requirement (R6). It survives owner
	// resets, so attaching a sink before the first call is safe.
	Sink obs.Sink
	// Now is the simulated time stamped on audit events. Loop callers set
	// it before each decision (the recommend adapters track it from
	// Observe); it is meaningless when Sink is nil.
	Now int64
	// MemoHits / MemoMisses count decisions answered from the memo versus
	// full Algorithm 1 evaluations — the decision stream's cache telemetry.
	MemoHits, MemoMisses uint64

	owner *Recommender
	curve pvp.Curve
	exp   []byte

	// counts is the exceed histogram (one slot per
	// pvp.SKURange.ExceedBucket) the one-pass evaluation fills;
	// curveCounts is the histogram curve and skew were last built from
	// (nil: none yet). Its slots sum to the window length, so it alone
	// keys them: the curve, and with it Skewness's Pow, is rebuilt only
	// when it changes.
	counts, curveCounts []int
	skew                float64
	// rawSF is Eq. 3's Log at slope sfSlope on the current curve (valid
	// while sfValid: the curve is unchanged since).
	sfValid bool
	sfSlope float64
	rawSF   float64
	// sel is the quickselect copy of the clean window the quantile and
	// the peak are read from.
	sel []float64

	// expKind/expPeak record which prose template the last full
	// evaluation would have produced and the one operand (the observed
	// peak) the Decision struct does not carry. Explanation() rebuilds
	// the string from them on demand; the decision hot path never touches
	// strconv.
	expKind expKind
	expPeak float64

	memoValid bool
	memoCores int
	memoClean []float64
	memoDec   Decision

	// evFields is the reusable audit-event field buffer: Sink.Emit lets
	// callers reclaim the backing after it returns, so the per-decision
	// event costs zero steady-state allocations.
	evFields []obs.Field
}

// expKind discriminates the prose templates of Explanation(). Branch
// alone cannot: three distinct hold explanations share BranchHold.
type expKind uint8

const (
	expNone expKind = iota
	expScaleUp
	expWalkDown
	expHoldNoCheaper // flat tail but no cheaper SKU clears the buffered peak
	expScaleDown
	expHoldQuantile // down-trigger fired but the buffered quantile forbids it
	expHoldDefault
)

// Explanation materialises the prose account of the scratch's most recent
// successful decision ("" before the first one). DecideScratch records
// only which template applies (and the one operand the Decision does not
// carry); this accessor — called by the interpretability surfaces
// (Explainer.Explain, the one-shot Decide wrappers) and nothing on the
// steady-state loop — formats the string from the memoised decision, so
// the hot path pays neither strconv nor the allocation. The result is
// only valid until the next decision on this scratch.
func (s *Scratch) Explanation() string {
	if s.owner == nil || s.expKind == expNone {
		return ""
	}
	cfg := s.owner.cfg
	d := s.memoDec
	capf := float64(d.CurrentCores)
	e := expBuilder{b: s.exp[:0]}
	switch s.expKind {
	case expScaleUp:
		e.str("scale-up: slope ").f2(d.Slope).str(" (threshold ").f2(cfg.SlopeHigh).
			str("), P").f0(cfg.QuantileP * 100).str(" usage ").f2(d.Quantile).
			str(" of ").num(d.CurrentCores).str(" cores (buffer threshold ").f2((1 - cfg.SlackHigh) * capf).
			str("); SF ").f2(d.RawSF).str(" → +").num(d.TargetCores - d.CurrentCores).str(" cores")
	case expWalkDown:
		e.str("walk-down: flat PvP tail at ").num(d.CurrentCores).str(" cores (peak usage ").f2(s.expPeak).
			str("); cheapest SKU meeting ").f0(cfg.WalkDownPerfTarget * 100).
			str("% performance is ").num(d.TargetCores).str(" cores")
	case expHoldNoCheaper:
		e.str("hold: flat PvP tail at ").num(d.CurrentCores).
			str(" cores but no cheaper SKU clears the buffered peak ").f2(s.expPeak)
	case expScaleDown:
		e.str("scale-down: slope ").f2(d.Slope).str(" ≤ ").f2(cfg.SlopeLow).
			str(" or P").f0(cfg.QuantileP * 100).str(" usage ").f2(d.Quantile).
			str(" ≤ ").f2(cfg.SlackLow * capf).str(" (idle threshold); SF ").f2(d.RawSF).
			str(" → -").num(d.CurrentCores - d.TargetCores).str(" cores")
	case expHoldQuantile:
		e.str("hold: down-trigger fired but buffered quantile ").f2(d.Quantile).
			str(" forbids shrinking below ").num(d.CurrentCores).str(" cores")
	case expHoldDefault:
		e.str("hold: slope ").f2(d.Slope).str(" within (").f2(cfg.SlopeLow).str(", ").f2(cfg.SlopeHigh).
			str(") and P").f0(cfg.QuantileP * 100).str(" usage ").f2(d.Quantile).
			str(" within slack bands of ").num(d.CurrentCores).str(" cores")
	}
	s.exp = e.b
	return string(s.exp)
}

// MemoState is the serialisable form of a Scratch's decision memo and
// explanation template — what a checkpoint writes out so a restarted
// decision loop resumes with an identical warm cache: the first
// post-restore decision hits or misses the memo exactly as the
// uninterrupted loop would, keeping audit streams (the "memo" field) and
// MemoHits/MemoMisses counters bit-identical across the restart.
type MemoState struct {
	// Valid mirrors the memo's armed flag; the zero MemoState restores a
	// cold scratch.
	Valid bool
	// Cores and Window are the memo key: the clamped allocation and the
	// preprocessed usage window of the last full evaluation.
	Cores  int
	Window []float64
	// Decision is the memoised result.
	Decision Decision
	// ExpKind and ExpPeak are the lazy-explanation template state (which
	// prose template Explanation() rebuilds, and its one extra operand).
	ExpKind uint8
	ExpPeak float64
	// Now is the audit clock stamped on the next decision event.
	Now int64
}

// MemoSnapshot copies out the scratch's memo and explanation-template
// state. The returned Window is a fresh slice, safe to retain.
func (s *Scratch) MemoSnapshot() MemoState {
	return MemoState{
		Valid:    s.memoValid,
		Cores:    s.memoCores,
		Window:   append([]float64(nil), s.memoClean...),
		Decision: s.memoDec,
		ExpKind:  uint8(s.expKind),
		ExpPeak:  s.expPeak,
		Now:      s.Now,
	}
}

// RestoreMemo re-arms a snapshotted memo on a scratch that will be used
// with this recommender, binding the scratch's owner so the next
// DecideScratch call does not wipe the restored state. The scratch's Sink
// survives, mirroring the reset contract.
func (r *Recommender) RestoreMemo(sc *Scratch, m MemoState) {
	if sc.owner != r {
		*sc = Scratch{owner: r, Sink: sc.Sink, evFields: sc.evFields}
	}
	sc.Now = m.Now
	sc.memoValid = m.Valid
	sc.memoCores = m.Cores
	sc.memoClean = append(sc.memoClean[:0], m.Window...)
	sc.memoDec = m.Decision
	sc.expKind = expKind(m.ExpKind)
	sc.expPeak = m.ExpPeak
}

// emitDecision writes the per-evaluation audit event. Callers guard on
// Sink being enabled so the disabled path costs one branch.
func (sc *Scratch) emitDecision(d Decision, memoHit bool) {
	sc.evFields = append(sc.evFields[:0],
		obs.I("cores", int64(d.CurrentCores)),
		obs.I("target", int64(d.TargetCores)),
		obs.S("branch", string(d.Branch)),
		obs.F("slope", d.Slope),
		obs.F("skew", d.Skew),
		obs.F("raw_sf", d.RawSF),
		obs.F("quantile", d.Quantile),
		obs.B("memo", memoHit),
	)
	sc.Sink.Emit(obs.Event{T: sc.Now, Type: "core.decision", Fields: sc.evFields})
}

// Decide runs Algorithm 1 for the current allocation and usage window
// (observed and/or forecast-extended; see Proactive). It returns the
// decision or an error for unusable input. Loop-style callers should
// prefer DecideScratch, which avoids the per-call allocations.
func (r *Recommender) Decide(currentCores int, usage []float64) (Decision, error) {
	var s Scratch
	d, err := r.DecideScratch(&s, currentCores, usage)
	if err == nil {
		d.Explanation = s.Explanation()
	}
	return d, err
}

// DecideScratch is Decide evaluated through a caller-owned Scratch. The
// returned decision is bit-identical to Decide's for the same inputs with
// one deliberate exception: Explanation is left empty and deferred to
// Scratch.Explanation(), so the steady-state decision loop allocates
// nothing at all (the prose lives in the scratch's reusable byte buffer
// until something actually reads it — the simulator only does on the rare
// enacted resize). A nil scratch is allowed (one is created per call).
func (r *Recommender) DecideScratch(sc *Scratch, currentCores int, usage []float64) (Decision, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	if sc.owner != r {
		// Reset evaluation state but keep the caller-attached telemetry:
		// a sink installed before the first decision must survive this.
		*sc = Scratch{owner: r, Sink: sc.Sink, Now: sc.Now, evFields: sc.evFields}
	}
	cfg := r.cfg
	xc := stats.ClampInt(currentCores, cfg.SKUs.MinCores, cfg.SKUs.MaxCores)

	// One pass over the window does line 2's preprocessing, the memo
	// check and the exceed histogram of line 3. The clean window is
	// written straight over the memo window, starting at the first sample
	// that differs from it: identical clean window + allocation ⇒
	// identical decision, because Algorithm 1 is a pure function of
	// (window, current cores, config). (Raw equality is stricter than the
	// multiset equality the algorithm depends on; it trades a few extra
	// misses for a sort-free hot path.)
	nu := len(usage)
	win := sc.memoClean
	if cap(win) < nu {
		win = append(make([]float64, 0, nu), win...)
		sc.memoClean = win
	}
	memoN := len(win)
	win = win[:nu]
	same := sc.memoValid && xc == sc.memoCores
	signDiff := false // a prefix zero equal to the memo's but of the other sign
	counts := sc.histogram(cfg.SKUs.Count() + 1)
	skus := cfg.SKUs

	// Runs of equal samples reach the histogram once per run: a plateau
	// window costs a few bucket lookups, not one per sample.
	n := 0
	run, rv := 0, 0.0
	for i := 0; ; i++ {
		var v float64
		if i < nu {
			v = usage[i]
			// Line 2: drop NaN/±Inf (metric-gap artifacts) and negatives.
			if !(v >= 0 && v <= math.MaxFloat64) {
				continue
			}
			if !same {
				win[n] = v
			} else if n < memoN && v == win[n] {
				if v == 0 && math.Signbit(v) != math.Signbit(win[n]) {
					signDiff = true
				}
			} else {
				same = false
				if signDiff {
					appendPreprocessed(win[:0], usage[:i])
				}
				win[n] = v
			}
			n++
			if run > 0 && v == rv {
				run++
				continue
			}
		}
		if run > 0 {
			counts[skus.ExceedBucket(rv)] += run
		}
		if i >= nu {
			break
		}
		run, rv = 1, v
	}
	if n == 0 {
		return Decision{}, ErrNoUsage
	}
	if same && n == memoN {
		sc.MemoHits++
		if obs.Enabled(sc.Sink) {
			sc.emitDecision(sc.memoDec, true)
		}
		return sc.memoDec, nil
	}
	if same && signDiff {
		// The clean window is a strict prefix of the memo window up to
		// the sign of some zeros: rewrite it with the new signs.
		appendPreprocessed(win[:0], usage)
	}
	sc.MemoMisses++
	clean := win[:n]
	sc.memoClean = clean
	sc.memoCores = xc

	// Lines 3–6: the PvP curve (the refactored SKU recommendation tool of
	// §4.2, CPU-only) and its slope skew, from the histogram in O(SKUs).
	// Both depend on nothing but the histogram, whose slots sum to n.
	if !equalInts(counts, sc.curveCounts) {
		pvp.BuildCurveCounts(&sc.curve, counts, n, skus)
		sc.counts, sc.curveCounts = sc.curveCounts, counts
		sc.skew = sc.curve.Skew()
		sc.sfValid = false
	}
	curve := &sc.curve
	skew := sc.skew

	// Line 7: the current slope and the Eq. 3 scaling factor.
	s := curve.SlopeAt(xc)
	if !sc.sfValid || s != sc.sfSlope {
		sc.rawSF, sc.sfSlope, sc.sfValid = pvp.ScalingFactor(s, skew, cfg.SF), s, true
	}
	rawSF := sc.rawSF

	// The R-7 quantile, quickselected in a copy so the memo window keeps
	// its order (clean is non-empty, so there is no error). The walk-down
	// branch reads the peak from the same copy.
	sel := append(sc.sel[:0], clean...)
	sc.sel = sel
	q, _ := stats.QuantileInPlace(sel, cfg.QuantileP)

	d := Decision{
		CurrentCores: xc,
		Slope:        s,
		Skew:         skew,
		RawSF:        rawSF,
		Quantile:     q,
	}

	capf := float64(xc)
	switch {
	// Lines 8–9: scale up on a steep slope or when the usage quantile
	// eats into the head-room buffer.
	case s >= cfg.SlopeHigh || q >= (1-cfg.SlackHigh)*capf:
		step := r.roundSF(rawSF)
		if step < 1 {
			step = 1 // an up-trigger always moves at least one core
		}
		if step > cfg.MaxStepUp {
			step = cfg.MaxStepUp
		}
		// Single-step sufficiency: never land below the capacity that
		// restores the configured buffer over the observed quantile.
		needed := int(math.Ceil(q / (1 - cfg.SlackHigh)))
		target := xc + step
		if target < needed {
			target = stats.ClampInt(needed, xc+1, xc+cfg.MaxStepUp)
		}
		d.Branch = BranchScaleUp
		d.TargetCores = r.guardrail(target)
		sc.expKind = expScaleUp

	// Lines 10–13: scale down when the slope is flat or most capacity
	// is idle; on a flat tail, walk the curve down in one move.
	case s <= cfg.SlopeLow || q <= cfg.SlackLow*capf:
		if curve.FlatTailAt(xc) && s == 0 {
			// Lines 12–13: walk down to the cheapest SKU that still
			// meets the workload at the configured performance target.
			target := curve.WalkDown(xc, cfg.WalkDownPerfTarget)
			// Preserve the head-room buffer over the observed peak.
			peak := stats.Max(sel)
			buffered := int(math.Ceil(peak / (1 - cfg.SlackHigh)))
			if target < buffered {
				target = buffered
			}
			if target > xc {
				target = xc
			}
			d.Branch = BranchWalkDown
			d.TargetCores = r.guardrail(target)
			if d.TargetCores >= xc {
				d.Branch = BranchHold
				d.TargetCores = xc
				sc.expKind = expHoldNoCheaper
			} else {
				sc.expKind = expWalkDown
			}
			sc.expPeak = peak
		} else {
			step := r.roundSF(rawSF)
			if step < 1 {
				step = 1
			}
			if step > cfg.MaxStepDown {
				step = cfg.MaxStepDown
			}
			// Do not scale below the buffered quantile.
			minSafe := int(math.Ceil(q / (1 - cfg.SlackHigh)))
			target := xc - step
			if target < minSafe {
				target = minSafe
			}
			if target > xc {
				target = xc
			}
			d.TargetCores = r.guardrail(target)
			if d.TargetCores < xc {
				d.Branch = BranchScaleDown
				sc.expKind = expScaleDown
			} else {
				d.Branch = BranchHold
				d.TargetCores = xc
				sc.expKind = expHoldQuantile
			}
		}

	// Between thresholds: hold (the paper's R3 penalises needless
	// scaling; holding is the only frequency-minimising choice).
	default:
		d.Branch = BranchHold
		d.TargetCores = xc
		sc.expKind = expHoldDefault
	}

	d.Delta = d.TargetCores - d.CurrentCores

	sc.memoDec = d
	sc.memoValid = true
	if obs.Enabled(sc.Sink) {
		sc.emitDecision(d, false)
	}
	return d, nil
}

// expBuilder assembles a Decision explanation in Scratch's reusable byte
// buffer. Its float verbs are byte-identical to fmt's %.2f / %.0f (both
// bottom out in strconv's 'f' formatting, including the +Inf/NaN
// spellings), so swapping fmt.Sprintf out of the hot path changed no
// output; it only cut the ~6 interface-boxing allocations per formatted
// decision down to the single final string conversion.
type expBuilder struct{ b []byte }

func (e *expBuilder) str(lit string) *expBuilder {
	e.b = append(e.b, lit...)
	return e
}

func (e *expBuilder) f2(v float64) *expBuilder {
	e.b = strconv.AppendFloat(e.b, v, 'f', 2, 64)
	return e
}

func (e *expBuilder) f0(v float64) *expBuilder {
	e.b = strconv.AppendFloat(e.b, v, 'f', 0, 64)
	return e
}

func (e *expBuilder) num(v int) *expBuilder {
	e.b = strconv.AppendInt(e.b, int64(v), 10)
	return e
}

// histogram returns the scratch's exceed histogram with k slots, zeroed.
func (sc *Scratch) histogram(k int) []int {
	if cap(sc.counts) < k {
		sc.counts = make([]int, k)
		return sc.counts
	}
	h := sc.counts[:k]
	for i := range h {
		h[i] = 0
	}
	return h
}

// equalInts reports element-wise equality.
func equalInts(a, b []int) bool {
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

// roundSF converts the fractional Eq. 3 factor into whole cores per the
// configured rounding mode (paper: round down by default, §4.2).
func (r *Recommender) roundSF(sf float64) int {
	if r.cfg.RoundUp {
		return int(math.Ceil(sf))
	}
	return int(math.Floor(sf))
}

// guardrail applies the Algorithm 1 line 14 guardrails: clamp the target
// into [max(c_min, ladder bottom), ladder top].
func (r *Recommender) guardrail(target int) int {
	return stats.ClampInt(target, r.cfg.floor(), r.cfg.SKUs.MaxCores)
}
