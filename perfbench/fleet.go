package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"caasper"
	"caasper/internal/k8s"
)

// fleetShape fixes one fleet workload's size and engine.
type fleetShape struct {
	tenants int
	minutes int
	engine  string
	// faults is the fault spec ("" runs fault-free).
	faults string
}

var (
	// plateauShape: a wide, uncontended month under the events engine,
	// faults and telemetry off.
	plateauShape = fleetShape{tenants: 10000, minutes: 30 * 1440, engine: caasper.FleetEngineEvents}
	// chaosShape: a contended day under the stepped engine with the
	// fleet golden's fault spec and the event stream on.
	chaosShape = fleetShape{
		tenants: 200, minutes: 1440, engine: caasper.FleetEngineStepped,
		faults: "restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4",
	}
)

// fleetRun is one fully set-up fleet replay: specs, a fresh cluster (a
// run binds pods to it) and, when the workload streams events, the sink
// writing into a digesting discard writer.
type fleetRun struct {
	shape  fleetShape
	specs  []caasper.TenantSpec
	opts   caasper.FleetOptions
	stream *digestWriter
	sink   *caasper.NDJSONSink
	// windows are decision windows cut from the tenants' own traces, with
	// the SKU ceiling each tenant decides over (for the kernel probes).
	windows []probeWindow
}

// probeWindow is one recommender input drawn from a workload trace.
type probeWindow struct {
	usage    []float64
	maxCores int
	cores    int
}

// wrapFunc optionally wraps each tenant's recommender (nil: untraced).
type wrapFunc func(caasper.Recommender) caasper.Recommender

func cpuRange(initial, min, max int) caasper.ResourceRange {
	return caasper.ResourceRange{
		Initial: caasper.Resources{CPUCores: initial},
		Limits: caasper.ResourceLimits{
			Min: caasper.Resources{CPUCores: min},
			Max: caasper.Resources{CPUCores: max},
		},
	}
}

func newFactory(maxCores, window int, wrap wrapFunc) func() (caasper.Recommender, error) {
	return func() (caasper.Recommender, error) {
		rec, err := caasper.NewReactive(caasper.DefaultConfig(maxCores), window)
		if err != nil || wrap == nil {
			return rec, err
		}
		return wrap(rec), nil
	}
}

// plateauVariants is the number of distinct plateau traces the month
// fleet shares (tenants pick one each).
const plateauVariants = 48

// plateauWindow is the plateau tenants' observation window: short enough
// to re-saturate two decision ticks after an inflection.
const plateauWindow = 20

// setupPlateau synthesises the month fleet: piecewise-constant diurnal
// traces (a 9-hour busy plateau over a quiet base, two inflections a
// day) whose phase and levels are drawn from the seed, shared across
// tenants, on 128 wide nodes. The level ranges keep each plateau's
// fixed point inside the recommender's hold band, so tenants resize
// around each inflection and sleep in between.
func setupPlateau(seed uint64, wrap wrapFunc) (*fleetRun, error) {
	sh := plateauShape
	rng := rand.New(rand.NewPCG(seed, 0x706c6174))
	// Every seed uses each of the eight level pairs equally often and
	// spreads tenants evenly over the variants, so seeds move the phases
	// and the pairing, not the amount of work.
	shift := rng.IntN(8)
	traces := make([]*caasper.Trace, plateauVariants)
	for v := range traces {
		k := float64((v + shift) % 8)
		low, high := 0.5+0.05*k, 2.2+0.06*k
		// Plateau edges land one minute after a decision tick.
		start := 10*rng.IntN(144) + 1
		vals := make([]float64, sh.minutes)
		for m := range vals {
			mm := m % 1440
			busy := (mm-start >= 0 && mm-start < 540) || mm+1440-start < 540
			if busy {
				vals[m] = high
			} else {
				vals[m] = low
			}
		}
		traces[v] = caasper.NewTrace(fmt.Sprintf("plateau-%02d", v), time.Minute, vals)
	}
	order := rng.Perm(sh.tenants)
	specs := make([]caasper.TenantSpec, sh.tenants)
	factory := newFactory(4, plateauWindow, wrap)
	for i := range specs {
		specs[i] = caasper.TenantSpec{
			Name:           fmt.Sprintf("t%05d", i),
			Trace:          traces[order[i]%plateauVariants],
			NewRecommender: factory,
			Resources:      cpuRange(1, 1, 4),
			Replicas:       1,
			MemGiBPerPod:   1,
		}
	}
	cluster, err := plateauCluster()
	if err != nil {
		return nil, err
	}
	opts := caasper.DefaultFleetOptions()
	opts.Cluster = cluster
	opts.Minutes = sh.minutes
	opts.Engine = sh.engine
	opts.Sharding = caasper.FleetShardingAuto
	opts.BillingPeriod = 24 * time.Hour
	r := &fleetRun{shape: sh, specs: specs, opts: opts}
	r.windows = cutWindows(rng, specs, plateauWindow)
	return r, nil
}

// plateauCluster is 128 nodes wide enough that no scale-up ever waits.
func plateauCluster() (*caasper.Cluster, error) {
	nodes := make([]*k8s.Node, 128)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("node-%03d", i), 4096, 8192)
	}
	return k8s.NewCluster(nodes...)
}

// chaosGenerators are the repository's noisy trace generators, cycled
// across the chaos fleet's tenants.
var chaosGenerators = []string{"workday12h", "cyclical3d", "step62h", "customer"}

// chaosWindow is the chaos tenants' observation window (the paper's
// running 40 minutes).
const chaosWindow = 40

// setupChaos synthesises the contended chaos day: one noisy trace per
// tenant (each generator seeded per tenant, repeated to a full day) on
// six nodes with half again the initial allocation, so concurrent
// scale-ups contend and the arbiter defers.
func setupChaos(seed uint64, wrap wrapFunc) (*fleetRun, error) {
	sh := chaosShape
	rng := rand.New(rand.NewPCG(seed, 0x6368616f))
	specs := make([]caasper.TenantSpec, sh.tenants)
	const initial = 2
	for i := range specs {
		gen := caasper.Workloads[chaosGenerators[i%len(chaosGenerators)]]
		src := gen(seed*1_000_003 + uint64(i))
		vals := make([]float64, sh.minutes)
		for m := range vals {
			vals[m] = src.Values[m%len(src.Values)]
		}
		tr := caasper.NewTrace(fmt.Sprintf("%s-%d", src.Name, i), time.Minute, vals)
		maxC := int(tr.Peak()*1.5) + 2
		specs[i] = caasper.TenantSpec{
			Name:           fmt.Sprintf("t%04d", i),
			Trace:          tr,
			NewRecommender: newFactory(maxC, chaosWindow, wrap),
			Resources:      cpuRange(initial, initial, maxC),
			Replicas:       1,
			MemGiBPerPod:   2,
		}
	}
	cluster, err := chaosCluster(sh.tenants * initial)
	if err != nil {
		return nil, err
	}
	spec, err := caasper.ParseFaultSpec(sh.faults)
	if err != nil {
		return nil, err
	}
	opts := caasper.DefaultFleetOptions()
	opts.Cluster = cluster
	opts.Minutes = sh.minutes
	opts.Engine = sh.engine
	opts.FaultSpec = spec
	opts.FaultSeed = seed
	r := &fleetRun{shape: sh, specs: specs, opts: opts}
	r.stream = newDigestWriter()
	r.sink = caasper.NewNDJSONSink(r.stream)
	r.opts.Events = r.sink
	r.windows = cutWindows(rng, specs, chaosWindow)
	return r, nil
}

// chaosCluster is six nodes holding 1.5× the fleet's initial cores.
func chaosCluster(initialCores int) (*caasper.Cluster, error) {
	perNode := (initialCores*3/2 + 5) / 6
	nodes := make([]*k8s.Node, 6)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("node-%d", i), perNode, float64(perNode*4))
	}
	return k8s.NewCluster(nodes...)
}

// probeWindowCount is the number of decision windows cut per workload.
const probeWindowCount = 512

// cutWindows draws decision windows from random tenants at random
// minutes, each with its tenant's core ceiling.
func cutWindows(rng *rand.Rand, specs []caasper.TenantSpec, window int) []probeWindow {
	out := make([]probeWindow, probeWindowCount)
	for i := range out {
		s := specs[rng.IntN(len(specs))]
		at := rng.IntN(len(s.Trace.Values) - window)
		mc := s.Resources.Max.CPUCores
		out[i] = probeWindow{
			usage:    s.Trace.Values[at : at+window],
			maxCores: mc,
			cores:    1 + rng.IntN(mc),
		}
	}
	return out
}

// fleetOutcome is one replay's measurement and correctness digests.
type fleetOutcome struct {
	setup      time.Duration
	wall       time.Duration
	res        *caasper.FleetResult
	digest     string
	stream     string
	bytes      int64
	tenantMins float64
}

// runFleetOnce runs one prepared replay and digests its result.
func runFleetOnce(r *fleetRun) (fleetOutcome, error) {
	t0 := time.Now()
	res, err := caasper.RunFleet(r.specs, r.opts)
	wall := time.Since(t0)
	if err != nil {
		return fleetOutcome{}, fmt.Errorf("RunFleet: %w", err)
	}
	out := fleetOutcome{wall: wall, res: res, digest: resultDigest(res)}
	out.tenantMins = float64(len(res.Tenants)) * float64(res.Minutes)
	if r.sink != nil {
		if err := r.sink.Flush(); err != nil {
			return fleetOutcome{}, fmt.Errorf("flushing event stream: %w", err)
		}
		out.stream, out.bytes = r.stream.sum(), r.stream.n
	}
	return out, nil
}

// resultDigest hashes every tenant's result, then folds the per-tenant
// hashes and the fleet totals into one SHA-256. Floats are hashed by
// their bits: a speed-only change must reproduce them exactly.
func resultDigest(res *caasper.FleetResult) string {
	total := sha256.New()
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	i := func(v int64) { u(uint64(v)) }
	f := func(v float64) { u(math.Float64bits(v)) }
	s := func(v string) { i(int64(len(v))); buf = append(buf, v...) }
	for _, t := range res.Tenants {
		buf = buf[:0]
		s(t.Name)
		s(t.Recommender)
		i(int64(t.InitialCores))
		i(int64(t.FinalCores))
		f(t.SumSlack)
		f(t.SumInsufficient)
		i(int64(t.NumScalings))
		i(int64(t.ThrottledMinutes))
		i(int64(t.Deferrals))
		i(int64(t.ResizesAborted))
		f(t.BilledCorePeriods)
		c := t.FaultCounts
		i(c.RestartFails)
		i(c.RestartStucks)
		i(c.MetricsGaps)
		i(c.PressureWindows)
		i(c.MemPressureWindows)
		h := sha256.Sum256(buf)
		total.Write(h[:])
	}
	buf = buf[:0]
	i(int64(res.Minutes))
	f(res.TotalSlack)
	f(res.TotalInsufficient)
	f(res.TotalCost)
	i(int64(res.TotalScalings))
	i(int64(res.TotalDeferrals))
	i(int64(res.TotalAborted))
	i(int64(res.ArbitrationTicks))
	i(res.PressureWindows)
	total.Write(buf)
	return hex.EncodeToString(total.Sum(nil))
}

// decisionTicks is the number of decision ticks per tenant over minutes
// at the fleet defaults (warm-up = cadence = 10 minutes).
func decisionTicks(minutes int) int {
	const d = 10
	if minutes <= d {
		return 0
	}
	return (minutes-1-d)/d + 1
}
