package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"time"
)

// Ladder rungs, as exponents k of rungRate. refRung is the reference
// offered rate (39.6k samples/s, about a fifth of the highest rate
// meeting the limit on a 2-vCPU Xeon VM). The walk starts at ladderStart
// (90k samples/s, well below that rate) and moves coarseStep rungs
// (×1.22) at a time until it brackets the limit; warmUpRung (216k
// samples/s) is near the limit.
const (
	refRung     = 28
	ladderStart = 45
	coarseStep  = 4
	warmUpRung  = 63
)

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// rungRate is the offered rate of ladder rung k, in samples/s.
func rungRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// phaseStats summarises one phase's requests.
type phaseStats struct {
	post, get, late  []float64 // ms, sorted; latency from due time for 2xx replies
	attempted        int
	failed, rejected int
	errors           int
}

// add pools another phase's requests into s (sort before reading).
func (s *phaseStats) add(o phaseStats) {
	s.post = append(s.post, o.post...)
	s.get = append(s.get, o.get...)
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.rejected += o.rejected
	s.errors += o.errors
}

func (s *phaseStats) sort() {
	s.post, s.get, s.late = sortedCopy(s.post), sortedCopy(s.get), sortedCopy(s.late)
}

func (p *phase) stats() phaseStats {
	var s phaseStats
	for i, r := range p.res {
		q := p.reqs[i]
		s.attempted++
		if !r.ok() {
			s.failed++
			if r.status == http.StatusTooManyRequests {
				s.rejected++
			} else {
				s.errors++
			}
			continue
		}
		ms := float64(r.latency(q)) / 1e6
		if q.kind == kindPost {
			s.post = append(s.post, ms)
		} else {
			s.get = append(s.get, ms)
		}
		s.late = append(s.late, float64(r.late)/1e6)
	}
	s.sort()
	return s
}

// limitMs is latencyLimit in milliseconds.
var limitMs = float64(latencyLimit) / 1e6

// rungWindows is the number of equal stretches of due time a rung's
// requests are split into for the limit check.
const rungWindows = 5

// windowP99 returns the median, over rungWindows stretches of the
// phase's due time, of each stretch's POST and GET p99 from due time (ms),
// and whether every stretch held enough samples for a p99. A stall of the
// host (a descheduled vCPU) lands in one stretch and moves the median
// little; a rate beyond capacity grows a backlog that fails them all.
func (p *phase) windowP99() (post, get float64, ok bool) {
	var posts, gets [rungWindows][]float64
	span := p.seconds * 1e9
	for i, r := range p.res {
		q := p.reqs[i]
		if !r.ok() {
			continue
		}
		w := min(int(float64(q.due)/span*rungWindows), rungWindows-1)
		ms := float64(r.latency(q)) / 1e6
		if q.kind == kindPost {
			posts[w] = append(posts[w], ms)
		} else {
			gets[w] = append(gets[w], ms)
		}
	}
	var pp, gp []float64
	ok = true
	for w := range posts {
		ok = ok && supports(len(posts[w]), 99) && supports(len(gets[w]), 99)
		pp = append(pp, percentile(sortedCopy(posts[w]), 99))
		gp = append(gp, percentile(sortedCopy(gets[w]), 99))
	}
	return median(pp), median(gp), ok
}

// verdict judges a phase against the rung limit: POST and GET p99 from
// due time within the limit (the median over the rung's stretches, see
// windowP99), no failed request, a queue that drains within the limit
// after the last request, and a verified decision stream. A phase whose
// generator ran late beyond the limit, or with too few samples for a
// p99, is invalid rather than slow.
func (p *phase) verdict(s phaseStats) (pass, valid bool) {
	post, get, enough := p.windowP99()
	valid = enough && percentile(s.late, 99) <= limitMs
	pass = valid && s.failed == 0 && p.verified &&
		post <= limitMs && get <= limitMs && p.drain <= latencyLimit
	return pass, valid
}

// achieved is the sample rate the phase's server accepted, over the
// time the generator took to send the schedule (its tail latency is
// judged by the limit, not charged to the rate).
func (p *phase) achieved() float64 {
	if p.span <= 0 {
		return 0
	}
	return float64(p.accepted) / p.span.Seconds()
}

func (o *outcome) notePhase(label string, p *phase, s phaseStats) {
	pass, valid := p.verdict(s)
	wpost, wget, _ := p.windowP99()
	o.notef("%s %.0f samples/s: POST p50 %.3f p99 %.3f ms (n=%d), GET p99 %.3f ms (n=%d), median stretch p99 POST %.3f GET %.3f ms, late p99 %.3f ms, failed %d/%d, drain %.2f ms, lag p99 %.2f ms, verified %v, pass %v valid %v",
		label, p.rate, percentile(s.post, 50), percentile(s.post, 99), len(s.post),
		percentile(s.get, 99), len(s.get), wpost, wget, percentile(s.late, 99), s.failed, s.attempted,
		float64(p.drain)/1e6, p.lagP99, p.verified, pass, valid)
}

// refShare is the share of the run spent at the reference rate.
const refShare = 0.15

// benchServe runs the reference-rate phase, then walks the rate ladder
// while --seconds allow: coarse steps from ladderStart (up while rungs
// meet the limit, down while they miss) bracket the limit, then single
// rungs climb from the highest coarse pass until two rungs in a row miss.
// It reports the highest rung that met the limit.
func benchServe(seed uint64, seconds float64, traced bool) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, correct: true}
	tenants := serveInputs(seed)
	rng := rand.New(rand.NewPCG(seed, 0x6c616464))
	if traced {
		return traceServe(out, tenants, seed, seconds)
	}
	start := time.Now()
	if err := warmUp(tenants, rng.Uint64()); err != nil {
		return nil, err
	}
	var setups []float64
	run := func(rate, secs float64) (*phase, phaseStats, error) {
		p, err := runPhase(tenants, rate, secs, rng.Uint64(), nil)
		if err != nil {
			return nil, phaseStats{}, err
		}
		setups = append(setups, p.setup.Seconds())
		if !p.verified {
			out.correct = false
		}
		return p, p.stats(), nil
	}
	ref, rs, err := run(rungRate(refRung), refShare*seconds)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = rs.attempted, rs.failed
	out.notePhase("reference", ref, rs)
	out.notef("reference: POST p50 %.4f ms, p%g %.3f ms (n=%d)", percentile(rs.post, 50),
		tailPercentile(len(rs.post)), percentile(rs.post, tailPercentile(len(rs.post))), len(rs.post))

	best := 0.0
	rung := func(k int) (bool, error) {
		p, s, err := run(rungRate(k), rungSeconds)
		if err != nil {
			return false, err
		}
		out.notePhase(fmt.Sprintf("rung %d", k), p, s)
		pass, _ := p.verdict(s)
		if pass && p.achieved() > best {
			best = p.achieved()
		}
		return pass, nil
	}
	budget := func() bool { return since(start)+rungSeconds+0.3 < seconds }

	// Coarse: bracket the limit between a passing rung lo and lo+coarseStep.
	lo, k, step := -1, ladderStart, coarseStep
	for budget() && k >= 0 {
		pass, err := rung(k)
		if err != nil {
			return nil, err
		}
		if pass {
			lo = k
		}
		if (pass && step < 0) || (!pass && step > 0 && lo >= 0) {
			break
		}
		if !pass {
			step = -coarseStep
		}
		k += step
	}
	// Fine: climb from the highest coarse pass until two misses in a row.
	for k, misses := lo+1, 0; lo >= 0 && misses < 2 && budget(); k++ {
		pass, err := rung(k)
		if err != nil {
			return nil, err
		}
		if pass {
			misses = 0
		} else {
			misses++
		}
	}
	if !budget() {
		out.notef("the ladder walk ran out of time")
	}
	out.set("tenant_minutes_per_s", best)
	out.set("setup_s", median(setups))
	return out, nil
}

// warmUpSeconds of traffic near the ladder's limit, discarded,
// let the heap, the server's buffer pools, goroutine stacks and page
// tables grow to their working size before anything is timed; otherwise
// the first high-rate rung pays for that growth.
const warmUpSeconds = 1

func warmUp(tenants []*serveTenant, seed uint64) error {
	_, err := runPhase(tenants, rungRate(warmUpRung), warmUpSeconds, seed, nil)
	return err
}

// tracePairs is the number of untraced/traced reference-phase pairs a
// traced serve run alternates; alternating keeps the host's drift and the
// process's warm-up out of the tracing overhead.
const tracePairs = 3

// traceServe alternates untraced and traced reference phases, reports the
// serve layer's metrics from the traced ones and the tracing overhead
// from the comparison, and probes the decision kernels on the tenants'
// traces.
func traceServe(out *outcome, tenants []*serveTenant, seed uint64, seconds float64) (*outcome, error) {
	tr := newTracer()
	out.tr = tr
	rng := rand.New(rand.NewPCG(seed, 0x74726163))
	if err := warmUp(tenants, rng.Uint64()); err != nil {
		return nil, err
	}
	var plain, traced phaseStats
	var postH, getH, overhead, drains, lags []float64
	var allocBytes uint64
	stale, gets := 0, 0
	for i := 0; i < 2*tracePairs; i++ {
		var ptr *tracer
		if i%2 == 1 {
			ptr = tr
		}
		p, err := runPhase(tenants, rungRate(refRung), 0.12*seconds, rng.Uint64(), ptr)
		if err != nil {
			return nil, err
		}
		s := p.stats()
		out.attempted += s.attempted
		out.failed += s.failed
		out.correct = out.correct && p.verified
		if ptr == nil {
			plain.add(s)
			continue
		}
		traced.add(s)
		for j, r := range p.res {
			if !r.ok() || p.handlerNs[j] == 0 {
				continue
			}
			h := float64(p.handlerNs[j]) / 1e3
			if p.reqs[j].kind == kindPost {
				postH = append(postH, h)
			} else {
				getH = append(getH, h)
			}
			overhead = append(overhead, float64(r.done-r.sent)/1e3-h)
		}
		for _, r := range p.runs {
			stale += r.stale
			gets += r.gets
		}
		drains = append(drains, float64(p.drain)/1e6)
		lags = append(lags, p.lagP99)
		allocBytes += p.allocBytes
	}
	plain.sort()
	traced.sort()
	postH, getH, overhead = sortedCopy(postH), sortedCopy(getH), sortedCopy(overhead)
	out.set("serve.post_handler_p50_us", percentile(postH, 50))
	out.set("serve.post_handler_p99_us", percentile(postH, 99))
	out.set("serve.get_handler_p99_us", percentile(getH, 99))
	out.set("serve.client_overhead_p50_us", percentile(overhead, 50))
	out.set("serve.post_p50_ms", percentile(plain.post, 50))
	out.set("serve.post_p99_ms", percentile(traced.post, 99))
	out.set("serve.get_p99_ms", percentile(traced.get, 99))
	out.set("serve.post_samples", float64(len(traced.post)))
	out.set("serve.queue_lag_p99_ms", median(lags))
	out.set("serve.stale_read_share", float64(stale)/float64(gets))
	out.set("serve.drain_ms", median(drains))
	out.set("serve.rejected", float64(traced.rejected))
	out.set("serve.errors", float64(traced.errors))
	out.set("serve.alloc_kb_per_req", float64(allocBytes)/float64(traced.attempted)/1024)
	out.set("loadgen.late_p99_ms", percentile(traced.late, 99))
	over := percentile(traced.post, 50)/percentile(plain.post, 50) - 1
	out.set("trace.overhead_share", over)
	out.notef("%d untraced / %d traced reference phases of %.1fs: POST p50 %.4f / %.4f ms (tracing overhead %+.1f%%), p99 %.3f / %.3f ms (n=%d / %d); handler p50 %.1f us of a POST, client overhead p50 %.1f us",
		tracePairs, tracePairs, 0.12*seconds, percentile(plain.post, 50), percentile(traced.post, 50), 100*over,
		percentile(plain.post, 99), percentile(traced.post, 99), len(plain.post), len(traced.post),
		percentile(postH, 50), percentile(overhead, 50))

	root := tr.reserve()
	t0 := tr.now()
	err := out.probeKernels(tr, root, serveWindows(tenants, rng))
	tr.addID(root, "probes", 0, t0, tr.now())
	return out, err
}

// serveWindows cuts decision windows from the serve tenants' streams.
func serveWindows(tenants []*serveTenant, rng *rand.Rand) []probeWindow {
	out := make([]probeWindow, probeWindowCount)
	for i := range out {
		t := tenants[rng.IntN(len(tenants))]
		at := rng.IntN(len(t.values) - serveWindow)
		out[i] = probeWindow{usage: t.values[at : at+serveWindow], maxCores: serveMaxCores, cores: 1 + rng.IntN(serveMaxCores)}
	}
	return out
}
