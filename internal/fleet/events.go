// Discrete-event fleet engine (Options.Engine == EngineEvents).
//
// The stepped engine costs O(minutes × tenants): every tenant executes
// every simulated minute even when nothing about it can change. But a
// tenant's observable behaviour only changes at a handful of instants —
// its decision ticks, its trace's inflection points (the starts of
// constant-demand runs), and pressure-window boundaries of the fleet-level
// fault injector. Between those instants the demand, the limit, the
// observed usage and therefore every accumulator update are all constant,
// which makes the in-between minutes pure arithmetic.
//
// This engine exploits that: a virtual clock jumps from decision tick to
// decision tick through a binary-heap wake queue keyed on (minute, tenant
// index). A tenant woken at tick d first catches up analytically — its
// trace is walked run by run (trace.RunStarts), observation windows are
// advanced with one bulk ring append per run (recommend.RunObserver),
// accounting sums of a constant operand are evaluated in closed form one
// binade at a time (stats.AddN, bit-identical to the stepped engine's
// minute-by-minute float adds), and billing advances whole
// periods at a time (billing.Meter.RecordN). It then decides exactly as
// the stepped engine would and computes its next wake-up:
//
//   - a tenant that filed a proposal, or whose recommender cannot prove
//     steadiness, wakes at the very next decision tick;
//   - a tenant that filed nothing and whose recommender reports
//     SteadyObserving(u) — a saturated window of nothing but the current
//     usage u, with a pure Recommend — provably re-decides "hold" at every
//     tick until its demand next changes, so it sleeps until the first
//     decision tick at or after its trace's next inflection point.
//
// Fault draws are (seed, kind, pod, time)-keyed and stateless — each is
// computed in closed form from its key alone — so skipped minutes draw
// identically when caught up later: metrics-gap minutes are
// pre-scheduled with a pure probe (faults.Injector.NextGap) so gap-heavy
// tenants keep the bulk catch-up path between the minutes that actually
// drop, and the fleet-level scheduling pressure advances one poll per
// window (faults.Injector.AdvancePressure). Per-tenant fault events land
// in the same per-tenant buffers the stepped engine uses, so the replayed
// NDJSON stream is byte-identical, at every worker count.
package fleet

import (
	"caasper/internal/faults"
	"caasper/internal/recommend"
	"caasper/internal/stats"
	"caasper/internal/trace"
)

// wakeEntry is one pending wake-up: tenant idx runs at minute at.
type wakeEntry struct {
	at  int32
	idx int32
}

// wakeHeap is a binary min-heap of wake-ups ordered by (at, idx). The
// secondary key makes same-tick pops emerge in ascending tenant order, so
// the awake list needs no post-sort to match the stepped engine's
// index-ordered walk.
type wakeHeap []wakeEntry

func wakeLess(a, b wakeEntry) bool {
	return a.at < b.at || (a.at == b.at && a.idx < b.idx)
}

func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wakeLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *wakeHeap) pop() wakeEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && wakeLess(q[l], q[m]) {
			m = l
		}
		if r < n && wakeLess(q[r], q[m]) {
			m = r
		}
		if m == i {
			return top
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// nextDecisionAt returns the first decision minute ≥ m within the horizon,
// or −1 when the replay ends first — the same arithmetic the stepped
// engine uses to bound its segments (first minute ≥ max(m, warmup) with
// (minute − warmup) divisible by the cadence).
func (s *runState) nextDecisionAt(m int) int {
	nd := s.warmup
	if m > s.warmup {
		nd = s.warmup + (m-s.warmup+s.d-1)/s.d*s.d
	}
	if nd >= s.minutes {
		return -1
	}
	return nd
}

// prepEvents initializes the per-tenant event-engine state.
func (s *runState) prepEvents() {
	// Trace run starts are shared: fleets commonly replay a few workload
	// shapes across many tenants, so the inflection scan runs once per
	// distinct trace, not once per tenant.
	runsByTrace := make(map[*trace.Trace][]int32)
	for _, t := range s.ts {
		r, ok := runsByTrace[t.spec.Trace]
		if !ok {
			r = t.spec.Trace.RunStarts()
			runsByTrace[t.spec.Trace] = r
		}
		t.runs = r
		t.gap = t.inj.Has(faults.MetricsGap)
		t.bulk, _ = t.rec.(recommend.RunObserver)
		t.steady, _ = t.rec.(recommend.SteadyObserver)
		// The limit is cached on the tenant: chasing set → pod → spec is
		// two dependent cache misses per wake at fleet scale, and only a
		// phase-2 enactment — which requires a proposal from an awake
		// tenant — can change it.
		t.lim = t.set.CPULimit()
	}
}

// uniformWake reports the single minute every awake tenant re-wakes at,
// or −1 when the wakes diverge (or any tenant sleeps forever). When the
// wake heap is empty, the awake list holds every live tenant, so a
// uniform wake means the next tick's awake set is *this* list verbatim —
// the tick loops skip the heap round-trip entirely. Noisy fleets, whose
// tenants can never prove steadiness and therefore all march tick to
// tick in lockstep, spend their whole run on this path.
func uniformWake(ts []*tenant, awake []int) int {
	w := ts[awake[0]].wakeAt
	if w < 0 {
		return -1
	}
	for _, i := range awake[1:] {
		if ts[i].wakeAt != w {
			return -1
		}
	}
	return w
}

// runEvents is the discrete-event engine: it preps the per-tenant event
// state, splits the fleet into node-disjoint shard groups (one group
// holding every tenant under ShardingOff) and runs them through the
// shard loop (shard.go).
func (s *runState) runEvents() error {
	s.prepEvents()
	if s.shard != ShardingOff {
		return s.runShards(shardPartition(s.ts))
	}
	idxs := make([]int32, len(s.ts))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	return s.runShards(idxs, []int32{0, int32(len(idxs))})
}

// wake runs one awake tenant's phase 1 at decision tick d: catch up to
// the tick, decide, and schedule the next wake-up.
func (t *tenant) wake(s *runState, d, sevFrom int) {
	t.advanceTo(d+1, sevFrom)
	limit := t.lim
	t.hasProp = false
	t.decide(limit)
	t.computeWake(s, d, limit)
}

// advanceTo replays the tenant's minutes [done, end) analytically, run by
// run. Within one constant-demand run the limit (only phase 2 changes it,
// and this tenant filed no proposals while asleep), the usage and every
// per-minute arithmetic operand are constant, so:
//
//   - the observation window advances with one bulk append (RunObserver) —
//     metrics-gap tenants first fire their pre-scheduled gap draws
//     (NextGap probe, then DropSample per gap minute for counts and
//     events) and split the append around a first-minute gap, which is
//     the only minute whose observed value a gap can change; only a
//     recommender without the bulk form runs the stepped engine's
//     per-minute scrape loop verbatim;
//   - slack/insufficiency/severity take n constant adds at once
//     (stats.AddN): inside one binade every add of the same operand
//     rounds by the same representable increment, so the n sequential
//     adds collapse to one multiply-add per binade crossed, with the
//     stepped engine's exact rounding (the accumulator sequences per
//     variable are identical because a run is entirely slack or entirely
//     short, never both);
//   - billing advances whole periods at a time (RecordN).
//
// Severity accumulates only for minutes ≥ sevFrom (the minute after the
// previous decision tick): the stepped engine resets severity at every
// tick, including ones this tenant slept through.
func (t *tenant) advanceTo(end, sevFrom int) {
	if t.done >= end {
		return
	}
	limf := float64(t.lim)
	vs := t.spec.Trace.Values
	sumSlack := t.res.SumSlack
	sumShort := t.res.SumInsufficient
	sev := t.severity
	for t.done < end {
		now := t.done
		for t.runCur+1 < len(t.runs) && int(t.runs[t.runCur+1]) <= now {
			t.runCur++
		}
		re := len(vs)
		if t.runCur+1 < len(t.runs) {
			re = int(t.runs[t.runCur+1])
		}
		if re > end {
			re = end
		}
		n := re - now
		demand := vs[now]
		usage := demand
		if usage > limf {
			usage = limf
		}

		if t.bulk == nil {
			// Per-minute scrape: a recommender without ObserveRun needs its
			// per-minute calls (and its per-minute gap draws with them).
			for m := now; m < re; m++ {
				observed := usage
				if t.inj.DropSample(t.pod, int64(m)) {
					observed = t.prevUsage
				}
				t.prevUsage = usage
				t.rec.Observe(m, observed)
			}
		} else if t.gap {
			// Pre-scheduled gaps: within this walk the usage is constant, so
			// after its first minute prevUsage == usage and a dropped sample
			// observes the very value an intact one would — only a gap at
			// the first minute (where prevUsage may still hold the previous
			// run's usage) changes an observation. Probe the exact gap
			// minutes (NextGap), fire DropSample at each so counts and
			// events land per minute exactly as the per-minute loop's, and
			// advance the window in at most two bulk appends.
			first := int64(-1)
			for g := t.inj.NextGap(t.pod, int64(now), int64(re)); g >= 0; g = t.inj.NextGap(t.pod, g+1, int64(re)) {
				t.inj.DropSample(t.pod, g)
				if first < 0 {
					first = g
				}
			}
			if first == int64(now) && t.prevUsage != usage {
				t.rec.Observe(now, t.prevUsage)
				if n > 1 {
					t.bulk.ObserveRun(now+1, usage, n-1)
				}
			} else {
				t.bulk.ObserveRun(now, usage, n)
			}
			t.prevUsage = usage
		} else {
			t.prevUsage = usage
			t.bulk.ObserveRun(now, usage, n)
		}

		if slack := limf - usage; slack > 0 {
			sumSlack = stats.AddN(sumSlack, slack, n)
		}
		if short := demand - limf; short > 0 {
			sumShort = stats.AddN(sumShort, short, n)
			t.res.ThrottledMinutes += n
			lo := now
			if sevFrom > lo {
				lo = sevFrom
			}
			sev = stats.AddN(sev, short, re-lo)
		}
		t.meter.RecordN(limf, n)
		t.done = re
	}
	t.res.SumSlack = sumSlack
	t.res.SumInsufficient = sumShort
	t.severity = sev
}

// computeWake sets the tenant's next wake minute after deciding at tick d.
// The default is the next decision tick. The tenant may sleep past it only
// when every skipped tick provably replays "hold": it filed no proposal at
// d (so the limit stays put), its recommender asserts SteadyObserving(u)
// for the current usage u (pure Recommend over a saturated all-u window),
// and its demand — hence u — is constant until the trace's next inflection
// point. Under those three facts each skipped tick sees the identical
// (window, limit) input and yields the identical "hold", so the first tick
// at which anything can differ is the first one at or after the next
// inflection.
func (t *tenant) computeWake(s *runState, d, limit int) {
	t.wakeAt = s.nextDecisionAt(d + 1)
	if t.wakeAt < 0 || t.hasProp || t.steady == nil {
		return
	}
	limf := float64(limit)
	u := t.spec.Trace.Values[d]
	if u > limf {
		u = limf
	}
	if !t.steady.SteadyObserving(u) {
		return
	}
	ni := len(t.spec.Trace.Values) // no further inflection: sleep forever
	if t.runCur+1 < len(t.runs) {
		ni = int(t.runs[t.runCur+1])
	}
	t.wakeAt = s.nextDecisionAt(ni)
}
