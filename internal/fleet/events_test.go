package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
)

// runEngine executes one fleet run capturing the result and the encoded
// event stream.
func runEngine(t *testing.T, specs []TenantSpec, opts Options, engine string, workers int) (*Result, string) {
	t.Helper()
	mem := obs.NewMemorySink()
	opts.Engine = engine
	opts.Workers = workers
	opts.Events = mem
	res, err := Run(specs, opts)
	if err != nil {
		t.Fatalf("engine=%s workers=%d: %v", engine, workers, err)
	}
	return res, encodeStream(mem)
}

// withSmallCluster returns opts with a fresh small cluster (cluster state
// is mutated by a run, so each run needs its own).
func withSmallCluster(opts Options) Options {
	opts.Cluster = k8s.SmallCluster()
	return opts
}

// equivalenceRun is one row of an equivalence table: an engine, an
// events sharding mode and a worker count a fleet must reproduce the
// one-worker stepped run under, bit for bit.
type equivalenceRun struct {
	engine, sharding string
	workers          int
}

// engineRuns is the engine-equivalence table: the stepped engine at other
// worker counts and the single-shard event loop.
var engineRuns = []equivalenceRun{
	{EngineStepped, "", 4},
	{EngineStepped, "", 8},
	{EngineEvents, ShardingOff, 1},
	{EngineEvents, ShardingOff, 4},
	{EngineEvents, ShardingOff, 8},
}

// shardedRuns is the sharding-equivalence table: the auto-sharded event
// engine at every worker count.
var shardedRuns = []equivalenceRun{
	{EngineEvents, ShardingAuto, 1},
	{EngineEvents, ShardingAuto, 4},
	{EngineEvents, ShardingAuto, 8},
}

// allRuns is engineRuns and shardedRuns together.
var allRuns = append(append([]equivalenceRun{}, engineRuns...), shardedRuns...)

// checkEquivalence runs a fleet through every row of runs and requires a
// bit-equal Result and a byte-identical NDJSON stream against the
// one-worker stepped run, which it returns; the events engine must also
// match it with telemetry off under every sharding mode runs uses. specs
// and opts build a fresh fleet and cluster per run, because a run mutates
// both.
func checkEquivalence(t *testing.T, runs []equivalenceRun, specs func() []TenantSpec, opts func() Options) *Result {
	t.Helper()
	base, baseStream := runEngine(t, specs(), opts(), EngineStepped, 1)
	var shardings []string
	for _, r := range runs {
		o := opts()
		o.Sharding = r.sharding
		res, stream := runEngine(t, specs(), o, r.engine, r.workers)
		if !reflect.DeepEqual(base, res) {
			t.Errorf("engine=%s sharding=%q workers=%d: result diverged:\n%s\nvs\n%s",
				r.engine, r.sharding, r.workers, base.Summary(), res.Summary())
		}
		if stream != baseStream {
			t.Errorf("engine=%s sharding=%q workers=%d: event stream diverged", r.engine, r.sharding, r.workers)
		}
		if r.engine == EngineEvents && (len(shardings) == 0 || shardings[len(shardings)-1] != r.sharding) {
			shardings = append(shardings, r.sharding)
		}
	}
	// With telemetry off the shard merge tallies counters instead of
	// replaying events; the Result must not notice.
	for _, sharding := range shardings {
		o := opts()
		o.Engine, o.Sharding, o.Workers = EngineEvents, sharding, 4
		res, err := Run(specs(), o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("events off, sharding=%q: result diverged:\n%s\nvs\n%s", sharding, base.Summary(), res.Summary())
		}
	}
	return base
}

// chaosOpts is the fault spec scripts/fleet.sh pins as the chaos golden
// (restart-fail, metrics-gap and sched-pressure all active), on a fresh
// copy of cluster.
func chaosOpts(t *testing.T, minutes int, cluster func() *k8s.Cluster) func() Options {
	spec, err := faults.ParseSpec("restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4")
	if err != nil {
		t.Fatal(err)
	}
	return func() Options {
		opts := DefaultOptions()
		opts.Cluster = cluster()
		opts.Minutes = minutes
		opts.FaultSpec = spec
		opts.FaultSeed = 7
		return opts
	}
}

// TestEventEngineEquivalenceChaos16 runs the scripts/fleet.sh chaos
// configuration — a 16-tenant heterogeneous fleet on the small cluster —
// through the engine-equivalence table.
func TestEventEngineEquivalenceChaos16(t *testing.T) {
	specs := func() []TenantSpec { return mixedFleet(t, 16) }
	base := checkEquivalence(t, engineRuns, specs, chaosOpts(t, 240, k8s.SmallCluster))
	if base.TotalScalings == 0 {
		t.Fatal("chaos fleet produced no scalings; traces too tame to prove anything")
	}
}

// TestShardedEquivalenceChaos16 runs the same chaos configuration through
// the sharding-equivalence table: the auto-sharded event engine must
// reproduce the stepped reference at every worker count.
func TestShardedEquivalenceChaos16(t *testing.T) {
	specs := func() []TenantSpec { return mixedFleet(t, 16) }
	checkEquivalence(t, shardedRuns, specs, chaosOpts(t, 240, k8s.SmallCluster))
}

// TestEventEngineEquivalenceRandomized64 fuzzes the engine equivalence
// over a 64-tenant fleet with a fixed seed: piecewise-constant and noisy
// traces, every recommender family (bulk-capable, steady-capable,
// per-minute-only, and one that implements neither optional interface),
// 1–2 replicas, and chaos faults. Any divergence between the engines'
// analytic and stepped arithmetic shows up as a result or stream mismatch.
func TestEventEngineEquivalenceRandomized64(t *testing.T) {
	checkEquivalence(t, engineRuns, func() []TenantSpec { return randomized64Specs(t) }, func() Options { return randomized64Opts(t) })
}

// TestShardedEquivalenceRandomized64 runs the same fuzz fleet, whose
// sixteen wide nodes split it into many shard groups, through the
// sharding-equivalence table; a fault in the cross-shard merge shows up
// as a result or stream mismatch.
func TestShardedEquivalenceRandomized64(t *testing.T) {
	checkEquivalence(t, shardedRuns, func() []TenantSpec { return randomized64Specs(t) }, func() Options { return randomized64Opts(t) })
}

// TestEventEngineEquivalenceOneGroup runs the equivalence table on fleets
// whose placement forms a single shard group, where the events engine
// fans phase 1 out over the workers inside the one group.
func TestEventEngineEquivalenceOneGroup(t *testing.T) {
	cases := []struct {
		name    string
		specs   func() []TenantSpec
		cluster func() *k8s.Cluster
	}{
		{
			// Twelve tenants contend for one node with half again their
			// initial cores.
			name:  "one node",
			specs: func() []TenantSpec { return mixedFleet(t, 12) },
			cluster: func() *k8s.Cluster {
				return mustCluster(t, k8s.NewNode("solo", 36, 512))
			},
		},
		{
			// Three-replica sets spread over four nodes: the second set's
			// replicas already share nodes with the first, welding every
			// node into one group.
			name: "welded replicas",
			specs: func() []TenantSpec {
				specs := mixedFleet(t, 6)
				for i := range specs {
					specs[i].Replicas = 3
				}
				return specs
			},
			cluster: func() *k8s.Cluster {
				nodes := make([]*k8s.Node, 4)
				for i := range nodes {
					nodes[i] = k8s.NewNode(fmt.Sprintf("node-%d", i), 14, 64)
				}
				return mustCluster(t, nodes...)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := groupCount(t, tc.specs(), tc.cluster()); n != 1 {
				t.Fatalf("fleet forms %d shard groups, want 1", n)
			}
			base := checkEquivalence(t, allRuns, tc.specs, chaosOpts(t, 240, tc.cluster))
			if base.TotalDeferrals == 0 {
				t.Fatal("one-group fleet never deferred a scale-up; no contention to prove anything")
			}
		})
	}
}

// mustCluster builds a cluster from nodes.
func mustCluster(t *testing.T, nodes ...*k8s.Node) *k8s.Cluster {
	t.Helper()
	c, err := k8s.NewCluster(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// groupCount onboards specs onto cluster in input order, as Run does, and
// returns the number of shard groups the placement forms.
func groupCount(t *testing.T, specs []TenantSpec, cluster *k8s.Cluster) int {
	t.Helper()
	ts := make([]*tenant, len(specs))
	for i, spec := range specs {
		rr := spec.Resources.Resolve()
		set, err := k8s.NewStatefulSet(spec.Name, spec.Replicas, rr.Initial.CPUCores, spec.MemGiBPerPod, cluster)
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = &tenant{set: set}
	}
	_, offsets := shardPartition(ts)
	return len(offsets) - 1
}

const randomized64Minutes = 420

// randomized64Specs builds the 64-tenant fuzz fleet: piecewise-constant
// and noisy traces,
// every recommender family, 1–2 replicas. Deterministic (fixed seed), so
// repeated calls build identical fleets.
func randomized64Specs(t *testing.T) []TenantSpec {
	t.Helper()
	const minutes = randomized64Minutes

	mkTrace := func(rng *rand.Rand, name string) *trace.Trace {
		vs := make([]float64, minutes)
		if rng.Intn(2) == 0 {
			// Piecewise-constant: long flat runs — the event engine's
			// best case, exercising bulk append and steady sleep.
			level := 0.5 + rng.Float64()*4
			for i := 0; i < minutes; {
				runLen := 20 + rng.Intn(120)
				for j := 0; j < runLen && i < minutes; j++ {
					vs[i] = level
					i++
				}
				level = 0.5 + rng.Float64()*4
			}
		} else {
			// Noisy: every minute distinct — degenerates the event engine
			// to minute-length runs, exercising the fallback paths.
			for i := range vs {
				vs[i] = 0.5 + rng.Float64()*4
			}
		}
		return trace.New(name, time.Minute, vs)
	}

	rng := rand.New(rand.NewSource(42))
	specs := make([]TenantSpec, 0, 64)
	for i := 0; i < 64; i++ {
		tr := mkTrace(rng, fmt.Sprintf("r%02d", i))
		maxC := 8
		var factory func() (recommend.Recommender, error)
		switch i % 6 {
		case 0:
			factory = func() (recommend.Recommender, error) {
				return recommend.NewCaaSPERReactive(core.DefaultConfig(maxC), 40)
			}
		case 1:
			factory = func() (recommend.Recommender, error) {
				return baselines.NewKubernetesVPA(baselines.DefaultKubernetesVPAOptions(maxC))
			}
		case 2:
			factory = func() (recommend.Recommender, error) {
				return baselines.NewOpenShiftVPA(baselines.DefaultOpenShiftVPAOptions(maxC))
			}
		case 3:
			factory = func() (recommend.Recommender, error) {
				return baselines.NewAutopilot(baselines.DefaultAutopilotOptions(maxC))
			}
		case 4:
			factory = func() (recommend.Recommender, error) {
				return baselines.NewControl(4), nil
			}
		case 5:
			factory = stubFactory("stub", 2+i%4) // neither optional interface
		}
		specs = append(specs, TenantSpec{
			Name:           fmt.Sprintf("t%02d", i),
			Trace:          tr,
			NewRecommender: factory,
			Resources:      core.CPURange(1+rng.Intn(3), 1, maxC),
			Replicas:       1 + rng.Intn(2),
			MemGiBPerPod:   1,
		})
	}
	return specs
}

// randomized64Opts builds the fuzz fleet's options: sixteen wide nodes
// (so the 64 tenants partition into many node-disjoint groups) and the
// full chaos fault spec.
func randomized64Opts(t *testing.T) Options {
	t.Helper()
	spec, err := faults.ParseSpec("restart-fail:p=0.1,metrics-gap:p=0.03,sched-pressure:p=0.3:dur=45:cores=8")
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*k8s.Node, 16)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("node-%d", i), 64, 256)
	}
	cluster, err := k8s.NewCluster(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cluster = cluster
	opts.Minutes = randomized64Minutes
	opts.FaultSpec = spec
	opts.FaultSeed = 11
	return opts
}

// countingRec wraps the reactive adapter, counting Recommend calls while
// transparently promoting its RunObserver/SteadyObserver methods.
type countingRec struct {
	*recommend.CaaSPERReactive
	calls *int64
}

func (c *countingRec) Recommend(cur int) int {
	atomic.AddInt64(c.calls, 1)
	return c.CaaSPERReactive.Recommend(cur)
}

// TestEventEngineSleepsSteadyTenants proves the wake queue actually skips
// decision ticks: on a two-level piecewise-constant trace held at "hold"
// by the MinCores clamp, the event engine must consult the recommender far
// less often than the stepped engine's once-per-tick — with bit-equal
// results.
func TestEventEngineSleepsSteadyTenants(t *testing.T) {
	const minutes = 600
	vs := make([]float64, minutes)
	for i := range vs {
		if i < 300 {
			vs[i] = 1
		} else {
			vs[i] = 3
		}
	}
	mkSpecs := func(calls *int64) []TenantSpec {
		return []TenantSpec{{
			Name:  "steady",
			Trace: trace.New("two-level", time.Minute, vs),
			NewRecommender: func() (recommend.Recommender, error) {
				r, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
				if err != nil {
					return nil, err
				}
				return &countingRec{CaaSPERReactive: r, calls: calls}, nil
			},
			Resources:    core.CPURange(4, 4, 8), // clamp forces "hold" on the low plateau
			Replicas:     1,
			MemGiBPerPod: 1,
		}}
	}

	run := func(engine string) (*Result, int64) {
		var calls int64
		opts := DefaultOptions()
		opts.Cluster = k8s.SmallCluster()
		opts.Minutes = minutes
		opts.Engine = engine
		res, err := Run(mkSpecs(&calls), opts)
		if err != nil {
			t.Fatalf("engine=%s: %v", engine, err)
		}
		return res, atomic.LoadInt64(&calls)
	}

	stepped, steppedCalls := run(EngineStepped)
	events, eventsCalls := run(EngineEvents)
	if !reflect.DeepEqual(stepped, events) {
		t.Errorf("results diverged:\n%s\nvs\n%s", stepped.Summary(), events.Summary())
	}
	// Stepped decides at every tick 10, 20, …, 590: 59 calls. The event
	// engine should need only the window warm-ups around the two plateaus.
	if steppedCalls != 59 {
		t.Fatalf("stepped made %d Recommend calls, want 59 (test premise broken)", steppedCalls)
	}
	if eventsCalls >= steppedCalls/2 {
		t.Errorf("event engine made %d Recommend calls vs stepped's %d; steady tenant never slept",
			eventsCalls, steppedCalls)
	}
}

// TestEventEngineEdgeCadences pins the engines together on awkward
// schedules: a warm-up beyond the horizon (no decisions at all), a cadence
// that does not divide the horizon, and a horizon ending exactly on a
// decision tick.
func TestEventEngineEdgeCadences(t *testing.T) {
	cases := []struct {
		name           string
		minutes, d, wu int
	}{
		{"no decisions", 120, 10, 1000},
		{"odd cadence", 100, 7, 13},
		{"horizon on tick", 90, 30, 30},
		{"every minute", 50, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mkSpecs := func() []TenantSpec { return mixedFleet(t, 4) }
			opts := DefaultOptions()
			opts.Minutes = tc.minutes
			opts.DecisionEveryMinutes = tc.d
			opts.WarmupMinutes = tc.wu
			base, baseStream := runEngine(t, mkSpecs(), withSmallCluster(opts), EngineStepped, 1)
			res, stream := runEngine(t, mkSpecs(), withSmallCluster(opts), EngineEvents, 1)
			if !reflect.DeepEqual(base, res) {
				t.Errorf("result diverged:\n%s\nvs\n%s", base.Summary(), res.Summary())
			}
			if stream != baseStream {
				t.Errorf("event stream diverged")
			}
		})
	}
}

// TestEngineValidation: unknown engine names are rejected as config errors.
func TestEngineValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Engine = "warp"
	if err := opts.Validate(); err == nil {
		t.Fatal("engine \"warp\" accepted")
	} else if !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("got %v, want ErrInvalidConfig", err)
	}
}
