package main

import (
	"fmt"
	"runtime"
	"time"
)

// fleetKind is one fleet workload: its name and input synthesis.
type fleetKind struct {
	name  string
	setup func(seed uint64, wrap wrapFunc) (*fleetRun, error)
}

var (
	plateau = fleetKind{"fleet-month-plateau", setupPlateau}
	chaos   = fleetKind{"fleet-day-chaos", setupChaos}
)

// minReps is the fewest replays a fleet run makes, however short
// --seconds is.
const minReps = 3

// fleetRep sets up and runs one replay, timing both.
func fleetRep(k fleetKind, seed uint64, wrap wrapFunc) (*fleetRun, fleetOutcome, error) {
	runtime.GC() // start each replay from a collected heap
	t0 := time.Now()
	r, err := k.setup(seed, wrap)
	if err != nil {
		return nil, fleetOutcome{}, fmt.Errorf("%s setup: %w", k.name, err)
	}
	setup := time.Since(t0)
	o, err := runFleetOnce(r)
	if err != nil {
		return nil, fleetOutcome{}, err
	}
	o.setup = setup
	return r, o, nil
}

func (o fleetOutcome) golden() golden {
	return golden{
		Result:    o.digest,
		Stream:    o.stream,
		Scalings:  o.res.TotalScalings,
		Deferrals: o.res.TotalDeferrals,
		Aborted:   o.res.TotalAborted,
	}
}

// benchFleet replays the workload's fleet until --seconds have passed
// (at least minReps times), checking every replay's digests, and reports
// the medians. The traced run is traceFleet.
func benchFleet(k fleetKind, seed uint64, seconds float64, traced bool) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, correct: true}
	check := &goldenCheck{workload: k.name, seed: seed}
	if traced {
		return traceFleet(k, seed, seconds, check, out)
	}
	var setups, walls, rates []float64
	start := time.Now()
	for len(walls) < minReps || time.Since(start).Seconds() < seconds {
		_, o, err := fleetRep(k, seed, nil)
		if err != nil {
			return nil, err
		}
		if err := out.checkFleet(check, o); err != nil {
			return nil, err
		}
		setups = append(setups, o.setup.Seconds())
		walls = append(walls, o.wall.Seconds())
		rates = append(rates, o.tenantMins/o.wall.Seconds())
	}
	out.set("setup_s", median(setups))
	out.set("tenant_minutes_per_s", median(rates))
	out.notef("%s: %d replays, RunFleet median %.3fs (min %.3fs), setup median %.3fs; RunFleet s by replay: %.3f",
		k.name, len(walls), median(walls), sortedCopy(walls)[0], median(setups), walls)
	return out, nil
}

// checkFleet counts one replay and compares its digests with the
// recorded ones.
func (out *outcome) checkFleet(check *goldenCheck, o fleetOutcome) error {
	out.attempted++
	ok, err := check.matches(o.golden())
	if err != nil {
		return err
	}
	if !ok {
		out.failed++
		out.correct = false
		out.notef("MISMATCH: replay %d digest %s stream %s, recorded %s stream %s",
			out.attempted, o.digest, o.stream, check.want.Result, check.want.Stream)
	}
	return nil
}

// layerSample is what one traced replay measured at the layer
// boundaries.
type layerSample struct {
	wall, cpu   time.Duration
	allocBytes  uint64
	gcCycles    uint32
	rec         recStats
	emitCalls   int64
	emitNs      int64
	streamBytes int64
}

// traceFleet alternates untraced and traced replays until --seconds have
// passed (at least one of each), checks that both reproduce the recorded
// digests, and reports the per-layer metrics: means over the traced
// replays, plus the kernel probes.
func traceFleet(k fleetKind, seed uint64, seconds float64, check *goldenCheck, out *outcome) (*outcome, error) {
	tr := newTracer()
	out.tr = tr
	var plainRates, tracedRates []float64
	var samples []layerSample
	var last *fleetRun
	var lastRes fleetOutcome
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < seconds; i++ {
		if i%2 == 0 {
			_, o, err := fleetRep(k, seed, nil)
			if err != nil {
				return nil, err
			}
			if err := out.checkFleet(check, o); err != nil {
				return nil, err
			}
			plainRates = append(plainRates, o.tenantMins/o.wall.Seconds())
			continue
		}
		root := tr.reserve()
		reg := &recRegistry{tr: tr, parent: root}
		r, err := k.setup(seed, reg.wrap)
		if err != nil {
			return nil, err
		}
		var sink *tracedSink
		if r.opts.Events != nil {
			sink = &tracedSink{inner: r.opts.Events}
			r.opts.Events = sink
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0, t0 := cpuTime(), tr.now()
		o, err := runFleetOnce(r)
		t1, cpu1 := tr.now(), cpuTime()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		tr.addID(root, "fleet.RunFleet", 0, t0, t1)
		if err := out.checkFleet(check, o); err != nil {
			return nil, err
		}
		s := layerSample{
			wall:        time.Duration(t1 - t0),
			cpu:         cpu1 - cpu0,
			allocBytes:  ms1.TotalAlloc - ms0.TotalAlloc,
			gcCycles:    ms1.NumGC - ms0.NumGC,
			rec:         reg.total(),
			streamBytes: o.bytes,
		}
		if sink != nil {
			s.emitCalls, s.emitNs = sink.calls.Load(), sink.ns.Load()
		}
		samples = append(samples, s)
		tracedRates = append(tracedRates, o.tenantMins/s.wall.Seconds())
		last, lastRes = r, o
	}
	out.setFleetLayers(last, lastRes, samples)
	overhead := 1 - median(tracedRates)/median(plainRates)
	out.set("trace.overhead_share", overhead)
	out.notef("tracing overhead: traced %.4g vs untraced %.4g tenant-minutes/s (%d/%d replays): %.1f%%",
		median(tracedRates), median(plainRates), len(tracedRates), len(plainRates), 100*overhead)

	probe, err := k.setup(seed, nil)
	if err != nil {
		return nil, err
	}
	if err := out.runProbes(tr, probe, seed); err != nil {
		return nil, err
	}
	return out, nil
}

// setFleetLayers derives the fleet, recommend, k8s, faults and obs
// per-layer metrics from the traced replays.
func (out *outcome) setFleetLayers(r *fleetRun, o fleetOutcome, samples []layerSample) {
	n := float64(len(samples))
	var wall, cpu, alloc, gc, recNs, runNs, emitNs float64
	for _, s := range samples {
		wall += s.wall.Seconds()
		cpu += s.cpu.Seconds()
		alloc += float64(s.allocBytes)
		gc += float64(s.gcCycles)
		recNs += float64(s.rec.recommendNs)
		runNs += float64(s.rec.observeRunNs)
		emitNs += float64(s.emitNs)
	}
	wall, alloc, gc = wall/n, alloc/n, gc/n
	recS, runS, emitS := recNs/n/1e9, runNs/n/1e9, emitNs/n/1e9
	util := cpu / n / (wall * float64(gomaxprocs()))
	// Child spans run on several goroutines at once; dividing their
	// summed time by the mean number of busy threads converts it to a
	// share of the wall-clock run.
	busy := util * float64(gomaxprocs())
	if busy < 1 {
		busy = 1
	}
	childWall := (recS + runS + emitS) / busy

	last := samples[len(samples)-1]
	st := last.rec
	res := o.res
	tenants := float64(len(res.Tenants))
	out.set("fleet.run_s", wall)
	out.set("fleet.self_s", wall-childWall)
	out.set("fleet.cpu_util", util)
	out.set("fleet.alloc_mb", alloc/(1<<20))
	out.set("fleet.gc_cycles", gc)
	out.set("fleet.sleep_share", 1-float64(st.recommendCalls)/(tenants*float64(decisionTicks(res.Minutes))))
	enact := float64(res.TotalScalings + res.TotalAborted)
	out.set("fleet.deferral_share", float64(res.TotalDeferrals)/(float64(res.TotalDeferrals)+enact))
	out.set("recommend.observe_calls", float64(st.observeCalls))
	out.set("recommend.observe_run_calls", float64(st.observeRunCalls))
	out.set("recommend.observe_run_s", runS)
	observed := float64(st.observeCalls + st.observeRunMinutes)
	out.set("recommend.catchup_share", float64(st.observeRunMinutes)/observed)
	out.set("recommend.recommend_calls", float64(st.recommendCalls))
	out.set("recommend.recommend_s", recS)
	out.set("recommend.recommend_ns", recNs/n/float64(st.recommendCalls))
	out.set("k8s.enactments", enact)
	if r.shape.faults != "" {
		out.set("faults.draws", observed)
	}
	out.set("obs.emit_calls", float64(last.emitCalls))
	out.set("obs.emit_s", emitS)
	out.set("obs.bytes", float64(last.streamBytes))
	out.set("trace.span_share", childWall/wall)
	out.notef("layers of fleet.run_s %.3fs (busy threads %.2f): recommend %.1f%% (Recommend %.1f%%, ObserveRun %.1f%%), obs %.1f%%, fleet self %.1f%%; the self-times account for 100%% by construction, the spans for %.1f%%",
		wall, busy, 100*(recS+runS)/busy/wall, 100*recS/busy/wall, 100*runS/busy/wall,
		100*emitS/busy/wall, 100*(wall-childWall)/wall, 100*childWall/wall)
}
