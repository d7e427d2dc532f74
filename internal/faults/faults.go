// Package faults is the seeded, deterministic fault-injection layer of
// the Kubernetes-like substrate. The paper's whole argument rests on
// CaaSPER staying safe when the platform misbehaves — resizes take 5–15
// minutes, restarts drop connections, and capped usage hides true demand
// (§2.2, §3.3) — yet a fault-free control plane never exercises any of
// those paths. This package makes the substrate misbehave *reproducibly*:
// a fixed seed yields the same injected faults on every run, at any
// worker count, because every draw is keyed on (seed, fault kind, pod,
// simulated time) rather than on a shared sequential stream. Call order
// therefore cannot perturb the outcome, which keeps the golden NDJSON
// event-stream contract of internal/obs intact under chaos. Each draw is
// the first Float64 of a fresh math/rand source seeded from its key,
// computed in closed form: a few multiplies, no PRNG state, no
// allocation.
//
// Five fault kinds are modelled, selected with a small spec grammar
// (comma-separated faults, colon-separated key=value parameters):
//
//	restart-fail:p=0.1              a pod restart attempt fails outright
//	restart-stuck:p=0.05:dur=600    an attempt hangs dur extra seconds
//	metrics-gap:p=0.02              a usage sample is dropped (scrape miss)
//	sched-pressure:p=1:cores=4:dur=300
//	                                transient co-tenant pressure steals
//	                                cores of free capacity per node for
//	                                dur-second windows
//	mem-pressure:p=0.5:gb=2:dur=300
//	                                phantom resident memory inflates a
//	                                pod's RAM usage by gb GB during
//	                                active dur-second windows (RAM-aware
//	                                layers only)
//
// With no spec the injector is nil and every hook compiles down to a
// nil-receiver check — the fault-free path costs one branch and the
// existing golden streams are unchanged.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"caasper/internal/obs"
)

// Kind names one injectable fault class.
type Kind string

// The injectable fault kinds.
const (
	// RestartFail makes a pod restart attempt fail at completion time.
	RestartFail Kind = "restart-fail"
	// RestartStuck extends a restart attempt by Dur seconds (a hung
	// container that the operator's per-attempt timeout must catch).
	RestartStuck Kind = "restart-stuck"
	// MetricsGap drops a usage sample before the metrics server sees it
	// (a scrape miss), producing partial or wholly silent buckets.
	MetricsGap Kind = "metrics-gap"
	// SchedPressure steals Cores of free capacity on every node during
	// active Dur-second windows — Rodriguez & Buyya's "scheduling
	// failures under node pressure are the common case" made concrete.
	SchedPressure Kind = "sched-pressure"
	// MemPressure adds GB of phantom resident memory to a pod during
	// active Dur-second windows (a leaky co-process, page-cache bloat, a
	// runaway query plan) — the OOM-style scenario the multi-resource
	// decision loop has to absorb. Only layers that model RAM query it;
	// CPU-only runs never draw, so their streams are untouched.
	MemPressure Kind = "mem-pressure"
)

// Fault is one parsed fault with its parameters.
type Fault struct {
	// Kind selects the fault class.
	Kind Kind
	// P is the per-draw probability in [0, 1].
	P float64
	// Dur is the fault duration in seconds (stuck time for
	// restart-stuck, window length for sched-pressure). Layers whose
	// native unit is minutes convert (internal/sim divides by 60).
	Dur int64
	// Cores is the per-node capacity stolen by sched-pressure.
	Cores float64
	// GB is the phantom resident memory added by mem-pressure.
	GB float64
}

// defaults returns the parameter defaults for a kind.
func defaults(k Kind) (Fault, error) {
	switch k {
	case RestartFail:
		return Fault{Kind: k, P: 0.1}, nil
	case RestartStuck:
		return Fault{Kind: k, P: 0.05, Dur: 600}, nil
	case MetricsGap:
		return Fault{Kind: k, P: 0.02}, nil
	case SchedPressure:
		return Fault{Kind: k, P: 1, Dur: 300, Cores: 4}, nil
	case MemPressure:
		return Fault{Kind: k, P: 0.5, Dur: 300, GB: 2}, nil
	default:
		return Fault{}, fmt.Errorf("faults: unknown fault kind %q", k)
	}
}

// Spec is a parsed fault specification: at most one fault per kind,
// stored at the kind's index (kindIndex) so hooks read their parameters
// without a lookup. An absent kind's slot has an empty Kind.
type Spec struct {
	faults [numKinds]Fault
}

// The kind indices of Spec.faults, in name order (so String's sorted
// rendering is a walk in index order).
const (
	iMemPressure = iota
	iMetricsGap
	iRestartFail
	iRestartStuck
	iSchedPressure
	numKinds
)

// kindIndex maps a kind to its index in Spec.faults (−1 if unknown).
func kindIndex(k Kind) int {
	switch k {
	case MemPressure:
		return iMemPressure
	case MetricsGap:
		return iMetricsGap
	case RestartFail:
		return iRestartFail
	case RestartStuck:
		return iRestartStuck
	case SchedPressure:
		return iSchedPressure
	default:
		return -1
	}
}

// ParseSpec parses the -faults grammar. An empty string yields a nil
// Spec (fault-free).
func ParseSpec(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	spec := &Spec{}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		f, err := defaults(Kind(parts[0]))
		if err != nil {
			return nil, err
		}
		if spec.faults[kindIndex(f.Kind)].Kind != "" {
			return nil, fmt.Errorf("faults: duplicate fault %q", f.Kind)
		}
		for _, kv := range parts[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faults: %s: parameter %q is not key=value", f.Kind, kv)
			}
			switch key {
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				// Written so NaN, which fails every comparison, is rejected.
				if err != nil || !(p >= 0 && p <= 1) {
					return nil, fmt.Errorf("faults: %s: p=%q is not a probability in [0,1]", f.Kind, val)
				}
				f.P = p
			case "dur":
				d, err := strconv.ParseInt(val, 10, 64)
				if err != nil || d < 1 {
					return nil, fmt.Errorf("faults: %s: dur=%q is not a positive second count", f.Kind, val)
				}
				f.Dur = d
			case "cores":
				c, err := strconv.ParseFloat(val, 64)
				if err != nil || !positive(c) {
					return nil, fmt.Errorf("faults: %s: cores=%q is not a positive core count", f.Kind, val)
				}
				f.Cores = c
			case "gb":
				g, err := strconv.ParseFloat(val, 64)
				if err != nil || !positive(g) {
					return nil, fmt.Errorf("faults: %s: gb=%q is not a positive GB count", f.Kind, val)
				}
				f.GB = g
			default:
				return nil, fmt.Errorf("faults: %s: unknown parameter %q", f.Kind, key)
			}
		}
		spec.faults[kindIndex(f.Kind)] = f
	}
	if spec.Empty() {
		return nil, errors.New("faults: empty spec")
	}
	return spec, nil
}

// positive reports whether x is a finite number above zero: NaN and +Inf,
// which strconv.ParseFloat accepts, would poison capacity arithmetic.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Empty reports whether the spec injects nothing.
func (s *Spec) Empty() bool {
	if s != nil {
		for i := range s.faults {
			if s.faults[i].Kind != "" {
				return false
			}
		}
	}
	return true
}

// Get returns the fault of the given kind and whether it is present.
func (s *Spec) Get(k Kind) (Fault, bool) {
	i := kindIndex(k)
	if s == nil || i < 0 {
		return Fault{}, false
	}
	return s.faults[i], s.faults[i].Kind != ""
}

// String renders the spec back in grammar form, kinds sorted, so logs
// and run summaries are stable.
func (s *Spec) String() string {
	if s.Empty() {
		return ""
	}
	var b strings.Builder
	for _, f := range s.faults {
		if f.Kind == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:p=%s", f.Kind, strconv.FormatFloat(f.P, 'g', -1, 64))
		if f.Kind == RestartStuck || f.Kind == SchedPressure || f.Kind == MemPressure {
			fmt.Fprintf(&b, ":dur=%d", f.Dur)
		}
		if f.Kind == SchedPressure {
			fmt.Fprintf(&b, ":cores=%s", strconv.FormatFloat(f.Cores, 'g', -1, 64))
		}
		if f.Kind == MemPressure {
			fmt.Fprintf(&b, ":gb=%s", strconv.FormatFloat(f.GB, 'g', -1, 64))
		}
	}
	return b.String()
}

// Counts aggregates injected faults for end-of-run chaos summaries.
type Counts struct {
	// RestartFails, RestartStucks and MetricsGaps count injected faults.
	RestartFails, RestartStucks, MetricsGaps int64
	// PressureWindows counts activated sched-pressure windows.
	PressureWindows int64
	// MemPressureWindows counts activated mem-pressure windows.
	MemPressureWindows int64
}

// Any reports whether any fault was injected.
func (c Counts) Any() bool {
	return c.RestartFails+c.RestartStucks+c.MetricsGaps+c.PressureWindows+c.MemPressureWindows > 0
}

// Injector draws injected faults deterministically. The zero-cost
// contract: a nil *Injector is valid and injects nothing, so callers hold
// one pointer and the fault-free path is a single nil check per hook.
//
// Determinism contract (same as the golden NDJSON test of internal/obs):
// every draw is the first Float64 of a fresh stdlib math/rand source
// seeded from a mix of (seed, kind, pod, simulated time), computed in
// closed form (see drawAt), so a fixed seed yields a byte-identical fault
// stream at any worker count and in any query order. Draws depend on no
// state; the injector's mutable state is its counts, edge-dedupe windows,
// draw-key cache and event field buffer, so it is queried from the
// single-threaded control loop of one run and concurrent runs each own
// their injector.
type Injector struct {
	spec *Spec
	seed uint64

	// Events, when non-nil and enabled, receives one "fault.*" event per
	// injected fault, keyed on simulated seconds.
	Events obs.Sink
	// Stats, when non-nil, receives "fault.*" registry counters.
	Stats *obs.Registry

	// keyKind, keyPod and keyVal cache the draw-key prefix of the last
	// (kind, pod) queried. Hooks query one pod over and over (a tenant's
	// ordinal-0 pod, the pressure hooks' ""), so the cache replaces the
	// FNV fold over the pod name on almost every draw; the key is the
	// same, so every draw is too.
	keyKind int
	keyPod  string
	keyVal  uint64
	// fields is the reused backing array of emitted events' Fields (the
	// obs.Sink contract lets emitters reuse it once Emit returns).
	fields []obs.Field

	counts Counts
	// pressureWindow is the last sched-pressure window whose activation
	// edge was emitted (-1 before any query).
	pressureWindow int64
	// memWindow is the last mem-pressure window whose activation edge
	// was emitted (-1 before any query).
	memWindow int64
}

// New builds an injector for the spec. A nil or empty spec returns a nil
// injector — the fault-free fast path.
func New(spec *Spec, seed uint64) *Injector {
	if spec.Empty() {
		return nil
	}
	return &Injector{spec: spec, seed: seed, keyKind: -1, pressureWindow: -1, memWindow: -1}
}

// Clone returns an independent silent replayer of the same fault
// stream: identical spec and seed — so every (kind, pod, time)-keyed
// draw matches the original's — but fresh edge-dedupe state, zero counts
// and no Events/Stats sinks. Draws are stateless, so clones running
// concurrently stay deterministic. Callers that shard a run across
// clones re-derive counts and edge events from one authoritative
// injector; the clones only need the draw values. Nil-safe: cloning a
// nil injector returns nil.
func (in *Injector) Clone() *Injector {
	if in == nil {
		return nil
	}
	return New(in.spec, in.seed)
}

// Seed returns the injector's seed (0 for nil).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Spec returns the injector's parsed spec (nil for nil).
func (in *Injector) Spec() *Spec {
	if in == nil {
		return nil
	}
	return in.spec
}

// Counts returns the injected-fault counts so far (zero for nil).
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// kindSalts gives each fault kind an independent draw stream, by kind
// index.
var kindSalts = [numKinds]uint64{
	iRestartFail:   0x9E37_79B9_7F4A_7C15,
	iRestartStuck:  0xBF58_476D_1CE4_E5B9,
	iMetricsGap:    0x94D0_49BB_1331_11EB,
	iSchedPressure: 0xD6E8_FEB8_6659_FD93,
	iMemPressure:   0xC2B2_AE3D_27D4_EB4F,
}

// key returns the draw-key prefix of kind index k and pod: the seed and
// kind salt with the pod name folded in. The last prefix is cached, so
// the fold runs only when the (kind, pod) pair changes; NextGap hoists
// it out of its per-minute scans.
func (in *Injector) key(k int, pod string) uint64 {
	if k == in.keyKind && pod == in.keyPod {
		return in.keyVal
	}
	h := in.seed ^ kindSalts[k]
	for i := 0; i < len(pod); i++ {
		h = (h ^ uint64(pod[i])) * 0x100000001B3 // FNV-1a fold
	}
	in.keyKind, in.keyPod, in.keyVal = k, pod, h
	return h
}

// drawAt returns a uniform [0,1) value for a key prefix and time: the
// first Float64 of rand.New(rand.NewSource(int64(mix))), where mix is the
// splitmix64-finalised key. It depends only on the key, never on how many
// draws came before, and holds no state.
//
// The value is computed in closed form instead of by seeding a source.
// rngSource.Seed runs ~1 840 Lehmer steps x ← 48271·x mod (2³¹−1) to
// fill a 607-word register, yet the first Uint64 reads only two words,
// vec[333] + vec[606]; each vec[i] is
// (x₂₁₊₃ᵢ<<40) ^ (x₂₂₊₃ᵢ<<20) ^ x₂₃₊₃ᵢ ^ rngCooked[i], and
// xₙ = x₀·48271ⁿ mod (2³¹−1), so six multiply-mods by the precomputed
// jump multipliers give both words. TestDrawMatchesMathRand pins the
// equality against the stdlib.
func (in *Injector) drawAt(h uint64, t int64) float64 {
	h ^= uint64(t) * 0xFF51_AFD7_ED55_8CCD
	// splitmix64 finalizer: decorrelate adjacent seconds before the
	// mix becomes a math/rand seed.
	h ^= h >> 33
	h *= 0xC4CE_B9FE_1A85_EC53
	h ^= h >> 33
	return firstFloat64(int64(h))
}

// Constants of the Go 1 math/rand additive lagged Fibonacci source
// (math/rand/rng.go) that the first draw after Seed reads.
const (
	lehmerMod  = 1<<31 - 1            // int32max: the seeding LCG's modulus
	lehmerMul  = 48271                // the seeding LCG's multiplier
	zeroSeed   = 89482311             // Seed's substitute for a seed ≡ 0
	feedWord   = 333                  // rngLen − rngTap − 1: vec index of the first feed read
	tapWord    = 606                  // rngLen − 1: vec index of the first tap read
	cookedFeed = -4633371852008891965 // rngCooked[333]
	cookedTap  = 4152330101494654406  // rngCooked[606]
)

// jumpMul[w][j] is 48271^(21+3·i+j) mod (2³¹−1) for i = feedWord (w=0)
// and tapWord (w=1): Seed discards 20 warm-up steps, then draws three
// LCG values per register word.
var jumpMul = func() (m [2][3]uint64) {
	for w, i := range [2]int{feedWord, tapWord} {
		for j := range m[w] {
			n := 21 + 3*i + j
			p := uint64(1)
			for b := uint64(lehmerMul); n > 0; n >>= 1 {
				if n&1 == 1 {
					p = p * b % lehmerMod
				}
				b = b * b % lehmerMod
			}
			m[w][j] = p
		}
	}
	return m
}()

// registerWord is the vec word Seed builds from LCG start x0, given the
// word's three jump multipliers and its rngCooked constant.
func registerWord(x0 uint64, m *[3]uint64, cooked int64) uint64 {
	return (x0*m[0]%lehmerMod)<<40 ^ (x0*m[1]%lehmerMod)<<20 ^ x0*m[2]%lehmerMod ^ uint64(cooked)
}

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64() without
// building the source.
func firstFloat64(seed int64) float64 {
	// Reduce the seed exactly as rngSource.Seed does.
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x0 := uint64(seed)
	v := (registerWord(x0, &jumpMul[0], cookedFeed) + registerWord(x0, &jumpMul[1], cookedTap)) & (1<<63 - 1)
	f := float64(v) / (1 << 63)
	if f == 1 {
		// Float64 retries when Int63 rounds up to 2⁶³; an exhaustive
		// scan of all 2³¹−1 reduced seeds found none that does (the
		// largest first Int63 is 2⁶³ − 4 441 333 495), but the stdlib
		// path keeps the equality unconditional.
		return rand.New(rand.NewSource(seed)).Float64()
	}
	return f
}

// draw returns a uniform [0,1) value for the (kind index, pod, t) key.
func (in *Injector) draw(k int, pod string, t int64) float64 {
	return in.drawAt(in.key(k, pod), t)
}

// emit sends one fault event whose fields the caller appended to
// in.fields[:0], and keeps the grown buffer for the next event. Callers
// check obs.Enabled(in.Events) first, so a silent injector never builds
// fields; a listening one allocates only while the buffer grows.
func (in *Injector) emit(t int64, typ string, fields []obs.Field) {
	in.Events.Emit(obs.Event{T: t, Type: typ, Fields: fields})
	in.fields = fields[:0]
}

// RestartFails reports whether the pod's restart attempt completing at
// time now fails. Fires at most once per (pod, now) key; the operator
// queries it exactly once per attempt completion.
func (in *Injector) RestartFails(pod string, now int64) bool {
	if in == nil {
		return false
	}
	f := &in.spec.faults[iRestartFail]
	if f.Kind == "" || in.draw(iRestartFail, pod, now) >= f.P {
		return false
	}
	in.counts.RestartFails++
	in.Stats.Counter("fault.restart_fails").Inc()
	if obs.Enabled(in.Events) {
		in.emit(now, "fault.restart-fail", append(in.fields[:0], obs.S("pod", pod)))
	}
	return true
}

// RestartStuck returns the extra seconds a restart attempt starting at
// time now hangs for (0 when the attempt proceeds normally).
func (in *Injector) RestartStuck(pod string, now int64) int64 {
	if in == nil {
		return 0
	}
	f := &in.spec.faults[iRestartStuck]
	if f.Kind == "" || in.draw(iRestartStuck, pod, now) >= f.P {
		return 0
	}
	in.counts.RestartStucks++
	in.Stats.Counter("fault.restart_stucks").Inc()
	if obs.Enabled(in.Events) {
		in.emit(now, "fault.restart-stuck", append(in.fields[:0], obs.S("pod", pod), obs.I("dur", f.Dur)))
	}
	return f.Dur
}

// DropSample reports whether the pod's usage sample at time now is lost
// before the metrics server records it.
func (in *Injector) DropSample(pod string, now int64) bool {
	if in == nil {
		return false
	}
	f := &in.spec.faults[iMetricsGap]
	if f.Kind == "" || in.draw(iMetricsGap, pod, now) >= f.P {
		return false
	}
	in.counts.MetricsGaps++
	in.Stats.Counter("fault.metrics_gaps").Inc()
	if obs.Enabled(in.Events) {
		in.emit(now, "fault.metrics-gap", append(in.fields[:0], obs.S("pod", pod)))
	}
	return true
}

// NextGap returns the first time in [from, to) at which DropSample would
// drop the pod's sample, or −1 when every draw in the span passes. It is
// a pure probe — no counts, no events, no state but the draw-key cache —
// so an engine that batches time can pre-schedule the exact gap minutes
// of a span and keep its bulk catch-up path between them, firing
// DropSample only at the minutes that actually gap. The draws are the
// same (seed, kind, pod, time)-keyed values DropSample makes, so
// probe-then-fire is byte-identical to the per-minute loop. Each probed
// minute is one closed-form draw (see drawAt), so a scan costs a few
// multiplies per minute and allocates nothing.
func (in *Injector) NextGap(pod string, from, to int64) int64 {
	if in == nil || from >= to {
		return -1
	}
	f := &in.spec.faults[iMetricsGap]
	if f.Kind == "" || f.P <= 0 {
		return -1
	}
	h := in.key(iMetricsGap, pod)
	for t := from; t < to; t++ {
		if in.drawAt(h, t) < f.P {
			return t
		}
	}
	return -1
}

// PressureCores returns the per-node capacity (cores) currently stolen
// by transient scheduling pressure. Time is divided into Dur-second
// windows; each window independently activates with probability P. The
// activation edge of each active window emits one "fault.sched-pressure"
// event — at the window boundary, not at the query time, so the stream
// does not depend on when callers poll.
func (in *Injector) PressureCores(now int64) float64 {
	if in == nil {
		return 0
	}
	f := &in.spec.faults[iSchedPressure]
	if f.Kind == "" {
		return 0
	}
	window := now / f.Dur
	if in.draw(iSchedPressure, "", window) >= f.P {
		return 0
	}
	if window != in.pressureWindow {
		in.pressureWindow = window
		in.counts.PressureWindows++
		in.Stats.Counter("fault.sched_pressure_windows").Inc()
		if obs.Enabled(in.Events) {
			in.emit(window*f.Dur, "fault.sched-pressure", append(in.fields[:0],
				obs.F("cores", f.Cores), obs.I("until", (window+1)*f.Dur)))
		}
	}
	return f.Cores
}

// MemPressureGB returns the phantom resident memory (GB) currently
// inflating the pod's RAM usage. Like PressureCores, time is divided
// into Dur-second windows that independently activate with probability
// P, keyed on (seed, kind, pod, window) so each pod's pressure stream is
// independent and query-order-free. The activation edge of each active
// window emits one "fault.mem-pressure" event at the window boundary.
// Only RAM-aware layers call this hook; a CPU-only run never draws.
func (in *Injector) MemPressureGB(pod string, now int64) float64 {
	if in == nil {
		return 0
	}
	f := &in.spec.faults[iMemPressure]
	if f.Kind == "" {
		return 0
	}
	window := now / f.Dur
	if in.draw(iMemPressure, pod, window) >= f.P {
		return 0
	}
	if window != in.memWindow {
		in.memWindow = window
		in.counts.MemPressureWindows++
		in.Stats.Counter("fault.mem_pressure_windows").Inc()
		if obs.Enabled(in.Events) {
			in.emit(window*f.Dur, "fault.mem-pressure", append(in.fields[:0],
				obs.S("pod", pod), obs.F("gb", f.GB), obs.I("until", (window+1)*f.Dur)))
		}
	}
	return f.GB
}

// Has reports whether the injector's spec includes the given fault kind
// (false for nil). Engines that batch time use it to decide which per-
// minute hooks genuinely need a draw per minute (metrics-gap) and which
// can be advanced analytically.
func (in *Injector) Has(k Kind) bool {
	if in == nil {
		return false
	}
	_, ok := in.spec.Get(k)
	return ok
}

// AdvancePressure replays the per-minute scheduling-pressure poll over
// [from, to) with one PressureCores query per pressure window instead of
// one per minute, returning the pressure in effect at time to−1. The
// draw, the window counts and the activation-edge events are identical to
// minute-by-minute polling because PressureCores keys everything on the
// window index (now/Dur) and emits the edge at the window boundary — any
// representative minute inside a window produces the same stream. This is
// the pre-scheduled form of the sched-pressure fault the discrete-event
// fleet engine uses to skip idle spans without perturbing the golden
// event stream. A nil injector or a spec without sched-pressure returns 0
// without drawing, matching the per-minute loop's behaviour.
func (in *Injector) AdvancePressure(from, to int64) float64 {
	if in == nil || to <= from {
		return 0
	}
	f := &in.spec.faults[iSchedPressure]
	if f.Kind == "" {
		return 0
	}
	p := 0.0
	for w := from / f.Dur; w <= (to-1)/f.Dur; w++ {
		m := w * f.Dur
		if m < from {
			m = from
		}
		p = in.PressureCores(m)
	}
	return p
}

// Summary renders the chaos section of an end-of-run report ("" for a
// nil injector).
func (in *Injector) Summary() string {
	if in == nil {
		return ""
	}
	return Summarize(in.spec, in.seed, in.counts)
}

// Summarize renders the chaos section of an end-of-run report from a
// spec, seed and fault tally — for callers that only hold a result's
// Counts rather than the injector itself ("" for an empty spec).
func Summarize(spec *Spec, seed uint64, c Counts) string {
	if spec.Empty() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: spec=%s seed=%d\n", spec, seed)
	fmt.Fprintf(&b, "  restart attempts failed:   %d\n", c.RestartFails)
	fmt.Fprintf(&b, "  restart attempts stuck:    %d\n", c.RestartStucks)
	fmt.Fprintf(&b, "  metric samples dropped:    %d\n", c.MetricsGaps)
	fmt.Fprintf(&b, "  scheduling-pressure windows: %d\n", c.PressureWindows)
	// Rendered only when the spec can produce it, so CPU-only chaos
	// summaries stay byte-identical to the pre-vector output.
	if _, ok := spec.Get(MemPressure); ok {
		fmt.Fprintf(&b, "  memory-pressure windows:     %d\n", c.MemPressureWindows)
	}
	return b.String()
}
