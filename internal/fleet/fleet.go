// Package fleet implements the sharded multi-tenant fleet controller: N
// independent tenants — each a stateful set, a recommender and a CPU
// demand trace — autoscaled concurrently against ONE shared Kubernetes
// cluster. It is the scale-out answer to the paper's closing observation
// that a CaaS platform runs CaaSPER "for all customer databases on the
// cluster", not one: per-tenant decision loops are embarrassingly
// parallel, but the cluster's capacity is not, so simultaneous scale-ups
// can oversubscribe a node. The controller therefore splits every tick in
// two:
//
//  1. a parallel observe/decide phase fanned out over the tenant shards
//     through internal/parallel (index-addressed slots, no shared writes),
//     where each tenant scrapes its usage sample, feeds its recommender
//     and files a resize proposal; and
//  2. a sequential enact/arbitrate phase where scale-downs release
//     capacity first and the capacity arbiter grants scale-ups in
//     throttling-severity order (most-throttled first, tenant index as
//     the deterministic tie-break), deferring any tenant whose grant
//     would not fit the free capacity of its pods' nodes under the
//     current scheduling pressure.
//
// Because phase 1 writes only tenant-local state and phase 2 runs in a
// fixed order, results — and the "fleet.*" event stream — are
// byte-identical at every worker count, the same determinism contract the
// simulator's RunMatrix established. Fault injection composes: each
// tenant owns an injector (draws are pod-keyed, so streams are
// tenant-specific and order-independent), and a fleet-level injector
// drives cluster-wide scheduling pressure from the sequential loop.
package fleet

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"caasper/internal/billing"
	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/hooks"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/parallel"
	"caasper/internal/recommend"
	"caasper/internal/trace"
)

// TenantSpec describes one tenant of the fleet: its workload, its policy
// and its stateful-set shape.
type TenantSpec struct {
	// Name identifies the tenant and prefixes its pod names; it must be
	// unique within the fleet.
	Name string
	// Trace is the tenant's per-minute CPU demand series.
	Trace *trace.Trace
	// NewRecommender builds the tenant's fresh policy instance. A factory
	// rather than an instance because recommenders are stateful and the
	// fleet runs tenants concurrently.
	NewRecommender func() (recommend.Recommender, error)
	// Replicas is the stateful-set size (default 1).
	Replicas int
	// MemGiBPerPod sizes pod memory (scheduling only; not billed).
	// Ignored when Resources manages RAM — the RAM allocation then
	// sizes the pods.
	MemGiBPerPod float64

	// Resources holds the tenant's bounds: Initial.CPUCores is the
	// starting whole-core limit per pod (default Min), Min/Max.CPUCores
	// the tenant's safety clamps. Managing any non-CPU dimension (a
	// non-zero Max.RAMGB, Max.DiskGB or Max.Replicas) upgrades the tenant
	// from the CPU-only decision loop to the multi-resource loop: RAM
	// scales by the dual-threshold MemoryPolicy, disk grows off its
	// high-water mark, and — for Stateless tenants — replicas overflow
	// horizontally once the vertical CPU ceiling pins. CPU-only tenants
	// run the exact pre-vector code paths.
	Resources core.ResourceRange
	// RAMTrace is the per-minute per-pod RAM demand series in GB; nil
	// derives one deterministically from Trace (workload.DeriveRAM).
	RAMTrace *trace.Trace
	// DiskTrace is the per-minute per-pod disk usage series in GB; nil
	// derives one deterministically from Trace (workload.DeriveDisk).
	DiskTrace *trace.Trace
	// Stateless marks the tenant safe for horizontal overflow: only
	// stateless tiers may trade a replica for a resize (stateful sets
	// pay the size-of-data seeding cost the paper warns about).
	Stateless bool
	// SeedMinutes delays a new replica's first served minute (default 0
	// for stateless tiers — no data to copy).
	SeedMinutes int
	// Mem tunes the RAM policy (zero value: defaults).
	Mem recommend.MemoryPolicy
	// Disk tunes the disk policy (zero value: defaults).
	Disk recommend.DiskPolicy
}

// Options configures a fleet run. The telemetry/fault knobs come from the
// embedded hooks.RunHooks, the same canonical spelling SimOptions and
// LiveOptions share.
type Options struct {
	hooks.RunHooks
	// Cluster hosts every tenant's pods; nil defaults to the paper's
	// large cluster (6 × 16 CPU / 56 GiB).
	Cluster *k8s.Cluster
	// Minutes bounds the run; 0 replays until the shortest trace ends.
	Minutes int
	// DecisionEveryMinutes is the per-tenant decision cadence (default 10).
	DecisionEveryMinutes int
	// WarmupMinutes delays each tenant's first decision (default:
	// DecisionEveryMinutes), letting window-based recommenders accumulate
	// signal.
	WarmupMinutes int
	// Workers bounds the parallel observe/decide fan-out; below 1 selects
	// runtime.GOMAXPROCS(0). Results are byte-identical at every value.
	Workers int
	// BillingPeriod is the pay-as-you-go metering period (default 1h).
	BillingPeriod time.Duration
	// PricePerCorePeriod is the unit price (default 1: report ratios).
	PricePerCorePeriod float64
	// RAMPricePerGBPeriod / DiskPricePerGBPeriod price the non-CPU
	// dimensions for multi-resource tenants (defaults: billing
	// DefaultRates, 0.25 and 0.02). CPU-only tenants never meter them.
	RAMPricePerGBPeriod, DiskPricePerGBPeriod float64
	// Engine selects the tick engine: EngineStepped (the default, also
	// selected by "") or EngineEvents. Both produce byte-identical results
	// and event streams; see the engine constants for when each wins.
	Engine string
	// Sharding controls the event engine's shard grouping: ShardingAuto
	// (the default, also selected by "") partitions the fleet into
	// node-disjoint shard groups and runs them concurrently; ShardingOff
	// puts every tenant in one group. Both run the same event loop, and
	// results and event streams are byte-identical either way — the knob
	// exists as a partition-independence check, not for correctness.
	// Ignored by the stepped engine.
	Sharding string
}

// Engine names accepted by Options.Engine.
const (
	// EngineStepped advances every tenant minute by minute in
	// decision-cadence segments — the reference engine: simple, O(minutes ×
	// tenants), and the behavioural yardstick the event engine is tested
	// against.
	EngineStepped = "stepped"
	// EngineEvents is the discrete-event engine: a virtual clock plus a
	// binary-heap wake queue where tenants only run at decision ticks and
	// sleep through provably-steady spans, with observation windows,
	// accounting and billing advanced analytically across constant-demand
	// trace runs. Results and event streams are byte-identical to
	// EngineStepped; wall-clock cost scales with trace inflections and
	// decisions instead of simulated minutes, which is what makes
	// 100k-tenant months tractable.
	EngineEvents = "events"
)

// Sharding modes accepted by Options.Sharding.
const (
	// ShardingAuto (the default) lets the event engine split the fleet
	// at its real contention boundary: arbitration only couples tenants
	// whose pods share a cluster node, so the tenant graph's
	// node-connected components run as independent shards, each with its
	// own wake heap, virtual clock and fault-draw stream, fanned out on
	// internal/parallel. A fleet whose tenants all contend on one node
	// collapses to a single group, exactly as under ShardingOff.
	ShardingAuto = "auto"
	// ShardingOff runs every tenant as one group of the same event loop,
	// with each tick's awake tenants fanned out over Workers — the
	// one-group side of the partition-independence check.
	ShardingOff = "off"
)

// DefaultOptions returns the fleet defaults: 10-minute decisions, hourly
// billing, unit price, shortest-trace horizon.
func DefaultOptions() Options {
	return Options{
		DecisionEveryMinutes: 10,
		BillingPeriod:        time.Hour,
		PricePerCorePeriod:   1,
	}
}

// Validate checks option invariants. Failures wrap errs.ErrInvalidConfig.
func (o Options) Validate() error {
	if o.DecisionEveryMinutes < 1 {
		return fmt.Errorf("fleet: DecisionEveryMinutes must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if o.Minutes < 0 {
		return fmt.Errorf("fleet: Minutes must be ≥ 0: %w", errs.ErrInvalidConfig)
	}
	if o.BillingPeriod < 0 {
		return fmt.Errorf("fleet: BillingPeriod must be ≥ 0: %w", errs.ErrInvalidConfig)
	}
	switch o.Engine {
	case "", EngineStepped, EngineEvents:
	default:
		return fmt.Errorf("fleet: unknown engine %q: %w", o.Engine, errs.ErrInvalidConfig)
	}
	switch o.Sharding {
	case "", ShardingAuto, ShardingOff:
	default:
		return fmt.Errorf("fleet: unknown sharding mode %q (auto or off): %w", o.Sharding, errs.ErrInvalidConfig)
	}
	return nil
}

// TenantResult aggregates one tenant's run.
type TenantResult struct {
	// Name and Recommender identify the tenant.
	Name        string
	Recommender string
	// InitialCores / FinalCores bracket the allocation trajectory.
	InitialCores, FinalCores int
	// SumSlack is K(·): Σ max(0, limit − usage) in core-minutes.
	SumSlack float64
	// SumInsufficient is C(·): Σ max(0, demand − limit) in core-minutes.
	SumInsufficient float64
	// NumScalings is N(·): the number of enacted resizes.
	NumScalings int
	// ThrottledMinutes counts minutes with any insufficient CPU.
	ThrottledMinutes int
	// Deferrals counts scale-up proposals the capacity arbiter rejected
	// (the tenant's arbitration losses).
	Deferrals int
	// ResizesAborted counts enactments lost to injected restart failures.
	ResizesAborted int
	// BilledCorePeriods is the pay-as-you-go cost at unit price.
	BilledCorePeriods float64
	// FaultCounts tallies this tenant's injected faults.
	FaultCounts faults.Counts

	// Multi-resource extensions — zero for CPU-only tenants.

	// FinalRAMGB / FinalDiskGB / FinalReplicas close the vector
	// trajectory (0 when the dimension is unmanaged).
	FinalRAMGB, FinalDiskGB, FinalReplicas int
	// RAMShortGBMin is Σ max(0, ram demand − grant) in GB-minutes.
	RAMShortGBMin float64
	// OOMMinutes counts minutes with any RAM shortfall.
	OOMMinutes int
	// DiskFullMinutes counts minutes the disk trace exceeded the volume.
	DiskFullMinutes int
	// BilledRAMGBPeriods / BilledDiskGBPeriods are the non-CPU costs in
	// native units (GB-periods).
	BilledRAMGBPeriods, BilledDiskGBPeriods float64
}

// Result aggregates a fleet run: per-tenant outcomes plus the
// fleet-level aggregates and arbitration statistics.
type Result struct {
	// Minutes is the simulated horizon.
	Minutes int
	// Tenants holds one result per tenant, in input order.
	Tenants []TenantResult
	// TotalSlack / TotalInsufficient / TotalCost aggregate K, C and cost
	// across tenants.
	TotalSlack, TotalInsufficient, TotalCost float64
	// TotalScalings / TotalDeferrals / TotalAborted aggregate N, the
	// arbitration losses and the fault-aborted enactments.
	TotalScalings, TotalDeferrals, TotalAborted int
	// ArbitrationTicks counts ticks on which the arbiter had to defer at
	// least one tenant (capacity contention actually bit).
	ArbitrationTicks int
	// PressureWindows counts fleet-level scheduling-pressure windows.
	PressureWindows int64
	// TotalOOMMinutes / TotalRAMShortGBMin / TotalRAMCost / TotalDiskCost
	// aggregate the multi-resource tenants (zero for CPU-only fleets).
	TotalOOMMinutes             int
	TotalRAMShortGBMin          float64
	TotalRAMCost, TotalDiskCost float64
}

// Summary renders the per-tenant comparison table plus the fleet
// aggregate row.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-20s %10s %10s %5s %6s %6s %8s\n",
		"tenant", "recommender", "K", "C", "N", "defer", "abort", "cost")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "%-10s %-20s %10.0f %10.1f %5d %6d %6d %8.0f\n",
			t.Name, t.Recommender, t.SumSlack, t.SumInsufficient,
			t.NumScalings, t.Deferrals, t.ResizesAborted, t.BilledCorePeriods)
	}
	fmt.Fprintf(&b, "%-10s %-20s %10.0f %10.1f %5d %6d %6d %8.0f\n",
		"TOTAL", fmt.Sprintf("(%d tenants)", len(r.Tenants)), r.TotalSlack,
		r.TotalInsufficient, r.TotalScalings, r.TotalDeferrals,
		r.TotalAborted, r.TotalCost)
	fmt.Fprintf(&b, "arbitration: %d contended ticks, %d deferrals, %d pressure windows over %d minutes\n",
		r.ArbitrationTicks, r.TotalDeferrals, r.PressureWindows, r.Minutes)
	// The multi-resource block renders only when a tenant managed a
	// non-CPU dimension, keeping CPU-only summaries byte-identical.
	multi := false
	for _, t := range r.Tenants {
		if t.FinalRAMGB > 0 || t.FinalDiskGB > 0 || t.FinalReplicas > 0 {
			multi = true
			break
		}
	}
	if multi {
		fmt.Fprintf(&b, "\n%-10s %8s %8s %5s %6s %10s %8s %8s\n",
			"tenant", "ram", "disk", "reps", "oom", "ram-short", "ram$", "disk$")
		for _, t := range r.Tenants {
			if t.FinalRAMGB == 0 && t.FinalDiskGB == 0 && t.FinalReplicas == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-10s %8d %8d %5d %6d %10.1f %8.1f %8.1f\n",
				t.Name, t.FinalRAMGB, t.FinalDiskGB, t.FinalReplicas,
				t.OOMMinutes, t.RAMShortGBMin, t.BilledRAMGBPeriods, t.BilledDiskGBPeriods)
		}
		fmt.Fprintf(&b, "multi-resource: %d OOM minutes, %.1f GB-min RAM short, ram cost %.1f, disk cost %.1f\n",
			r.TotalOOMMinutes, r.TotalRAMShortGBMin, r.TotalRAMCost, r.TotalDiskCost)
	}
	return b.String()
}

// faultEventEstimate sizes one tenant's fault buffer for a run: the
// metrics-gap draw every minute is the only per-minute fault event (one
// field each), so the buffer holds the gap count's mean plus three
// standard deviations. Few tenants exceed it; the rare restart-fail and
// mem-pressure events mostly fit the margin, and a buffer that does
// overflow opens another arena chunk and stays correct. The buffers are
// not pooled across runs: a sync.Pool in front of them saved nothing on
// repeated chaos replays, because the collector drains it in between
// (EXPERIMENTS.md).
func faultEventEstimate(spec *faults.Spec, minutes int) int {
	f, ok := spec.Get(faults.MetricsGap)
	if !ok {
		return 0
	}
	mean := f.P * float64(minutes)
	return int(mean+3*math.Sqrt(mean)) + 1
}

// proposal is one tenant's pending resize request for the current tick.
// CPU-only tenants fill only target/severity; multi-resource tenants
// (t.mr != nil) also carry explicit targets for every managed dimension.
type proposal struct {
	target   int
	severity float64 // accumulated insufficient core-minutes since the last decision
	ram      int     // RAM GB target (multi only)
	disk     int     // disk GB target (multi only)
	reps     int     // replica target (multi only)
}

// grows reports whether any dimension of the proposal asks for more
// capacity — such proposals go through the arbiter; pure releases enact
// first. A CPU-only proposal always moves its target (decide files none
// otherwise), so for it this is the plain scale-up test.
func (p proposal) grows(t *tenant) bool {
	if p.target > t.set.CPULimit() {
		return true
	}
	m := t.mr
	return m != nil && (p.ram > m.ramAlloc || p.reps > m.replicas)
}

// tenant is the per-tenant runtime state. Phase 1 touches exactly one
// tenant per goroutine; phase 2 walks them sequentially.
type tenant struct {
	spec TenantSpec
	rec  recommend.Recommender
	set  *k8s.StatefulSet
	// meter is held by value: fleets allocate tenants in one block and the
	// meter has no identity beyond its tenant.
	meter billing.Meter
	inj   *faults.Injector
	sink  *obs.MemorySink
	res   TenantResult
	// pod caches the ordinal-0 pod name, the tenant's fault-draw key.
	pod string

	prevUsage float64 // last minute's usage, replayed on a metrics-gap fault
	severity  float64 // insufficiency accumulated since the last decision
	prop      proposal
	hasProp   bool

	// mr is the multi-resource state; nil keeps the tenant on the exact
	// CPU-only code paths (see multi.go).
	mr *multiState

	// Event-engine state (see events.go; untouched by the stepped engine).
	done   int                      // minutes [0, done) are fully accounted
	wakeAt int                      // next wake minute computed at the last decision (−1: none)
	lim    int                      // cached CPU limit: only phase 2 resizes, and only proposers
	runs   []int32                  // the trace's constant-run starts, shared across tenants
	runCur int                      // index into runs of the run containing done
	gap    bool                     // spec includes metrics-gap: samples need per-minute draws
	bulk   recommend.RunObserver    // non-nil: bulk window advance allowed
	steady recommend.SteadyObserver // non-nil: steady-state sleep allowed
}

// decide evaluates the recommender at a decision tick: the clamped target
// becomes a phase-2 proposal when it differs from the current limit, and
// the severity accumulator (the arbiter's priority signal) is snapshotted
// into the proposal and reset either way. Multi-resource tenants hand the
// clamped target on to decideMulti, which weighs the other dimensions.
func (t *tenant) decide(limit int) {
	target := t.rec.Recommend(limit)
	if target < t.spec.Resources.Min.CPUCores {
		target = t.spec.Resources.Min.CPUCores
	}
	if target > t.spec.Resources.Max.CPUCores {
		target = t.spec.Resources.Max.CPUCores
	}
	if t.mr != nil {
		t.decideMulti(limit, target)
		return
	}
	if target != limit {
		t.prop = proposal{target: target, severity: t.severity}
		t.hasProp = true
	}
	t.severity = 0
}

// runState is the assembled per-run machinery shared by both engines: the
// tenants, the cluster, the fleet-level injector and the phase-2 scratch.
// Run builds it, dispatches to runStepped or runEvents, then reads the
// results back out in the common epilogue.
type runState struct {
	ts      []*tenant
	cluster *k8s.Cluster
	finj    *faults.Injector
	h       hooks.RunHooks
	events  bool
	minutes int
	warmup  int
	d       int // decision cadence in minutes
	workers int
	shard   string // Options.Sharding ("", auto or off)
	res     *Result

	// Phase-2 working storage reused across ticks.
	ups []int
	arb *arbScratch

	// ssink, when non-nil, marks this runState as one shard of an
	// event-engine run with events enabled (see shard.go): h.Events points
	// at the same buffer, and enactPhase tags each buffered event with its
	// merge key so the post-run merge can reproduce the stepped engine's
	// byte order.
	ssink *shardSink
}

// Run executes the fleet loop over the shared cluster and returns the
// per-tenant and aggregate results. See the package comment for the
// two-phase tick structure and the determinism argument.
func Run(tenants []TenantSpec, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("fleet: no tenants: %w", errs.ErrInvalidConfig)
	}
	h := opts.RunHooks
	events := obs.Enabled(h.Events)

	cluster := opts.Cluster
	if cluster == nil {
		cluster = k8s.LargeCluster()
	}
	period := opts.BillingPeriod
	if period == 0 {
		period = time.Hour
	}
	price := opts.PricePerCorePeriod
	if price == 0 {
		price = 1
	}
	warmup := opts.WarmupMinutes
	if warmup == 0 {
		warmup = opts.DecisionEveryMinutes
	}

	// Resolve the horizon: the shortest trace bounds the replay.
	minutes := opts.Minutes
	seen := make(map[string]bool, len(tenants))
	for i, spec := range tenants {
		if spec.Name == "" {
			return nil, fmt.Errorf("fleet: tenant %d has no name: %w", i, errs.ErrInvalidConfig)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("fleet: duplicate tenant %q: %w", spec.Name, errs.ErrInvalidConfig)
		}
		seen[spec.Name] = true
		if spec.Trace == nil || len(spec.Trace.Values) == 0 {
			return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, errs.ErrEmptyTrace)
		}
		if spec.Trace.Interval != time.Minute {
			// A mis-configured interval is a config error, not a missing
			// trace: callers matching ErrEmptyTrace to skip absent tenants
			// must not silently swallow a resample mistake.
			return nil, fmt.Errorf("fleet: tenant %q: trace interval %s is not 1m (resample first): %w",
				spec.Name, spec.Trace.Interval, errs.ErrInvalidConfig)
		}
		if spec.NewRecommender == nil {
			return nil, fmt.Errorf("fleet: tenant %q has no recommender factory: %w", spec.Name, errs.ErrInvalidConfig)
		}
		rr := spec.Resources.Resolve()
		if rr.Initial.CPUCores < 1 || rr.Min.CPUCores < 1 || rr.Max.CPUCores < rr.Min.CPUCores {
			return nil, fmt.Errorf("fleet: tenant %q: bad core bounds: %w", spec.Name, errs.ErrInvalidConfig)
		}
		if rr.Multi() {
			if err := rr.Validate(); err != nil {
				return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
			}
			if opts.Engine == EngineEvents {
				// The event engine's analytic catch-up covers only the
				// CPU dimension today; refuse rather than silently
				// dropping RAM/disk accounting.
				return nil, fmt.Errorf(`fleet: tenant %q manages RAM/disk/replicas, which the "events" engine cannot replay (its analytic catch-up is CPU-only); rerun with Engine %q (-engine stepped): %w`,
					spec.Name, EngineStepped, errs.ErrInvalidConfig)
			}
		}
		if minutes == 0 || len(spec.Trace.Values) < minutes {
			minutes = len(spec.Trace.Values)
		}
	}

	// Build the tenants: stateful sets scheduled onto the shared cluster
	// in input order (first-come placement, like a real fleet onboarding
	// sequence), per-tenant injectors (pod-keyed draws make each stream
	// tenant-specific regardless of query order) and per-tenant event
	// buffers, sized to the run, replayed sequentially after the loop.
	// All tenant records live in one backing block, and every meter is a
	// value copy of one validated prototype — construction garbage used
	// to dominate short-horizon fleet benchmarks.
	meterProto, err := billing.NewMeter(price, period, time.Minute)
	if err != nil {
		return nil, err
	}
	faultEvents := faultEventEstimate(h.FaultSpec, minutes)
	tstore := make([]tenant, len(tenants))
	ts := make([]*tenant, len(tenants))
	for i, spec := range tenants {
		rr := spec.Resources.Resolve()
		replicas := spec.Replicas
		if rr.Multi() && rr.Initial.Replicas > 0 {
			replicas = rr.Initial.Replicas
		}
		if replicas < 1 {
			replicas = 1
		}
		memGiB := spec.MemGiBPerPod
		if rr.Max.RAMGB > 0 {
			memGiB = float64(rr.Initial.RAMGB) // RAM-managed pods size to the grant
		}
		rec, err := spec.NewRecommender()
		if err != nil {
			return nil, fmt.Errorf("fleet: building recommender for %q: %w", spec.Name, err)
		}
		set, err := k8s.NewStatefulSet(spec.Name, replicas, rr.Initial.CPUCores, memGiB, cluster)
		if err != nil {
			return nil, fmt.Errorf("fleet: onboarding %q: %w", spec.Name, err)
		}
		t := &tstore[i]
		t.spec, t.rec, t.set, t.meter, t.pod = spec, rec, set, *meterProto, set.Pods[0].Name
		// The decide clamp reads the resolved bounds off the tenant's copy.
		t.spec.Resources = rr
		if rr.Multi() {
			if err := t.initMulti(replicas, minutes, period, opts); err != nil {
				return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
			}
		}
		t.inj = faults.New(h.FaultSpec, h.FaultSeed)
		if t.inj != nil {
			t.inj.Stats = h.Metrics
			if events {
				t.sink = obs.NewMemorySink()
				t.sink.Reserve(faultEvents, faultEvents)
				t.inj.Events = t.sink
			}
		}
		t.res = TenantResult{
			Name:         spec.Name,
			Recommender:  rec.Name(),
			InitialCores: rr.Initial.CPUCores,
		}
		ts[i] = t
	}

	// The fleet-level injector drives cluster-wide scheduling pressure
	// from the sequential loop; its events go straight to the shared sink.
	finj := faults.New(h.FaultSpec, h.FaultSeed)
	if finj != nil {
		finj.Events, finj.Stats = h.Events, h.Metrics
	}

	res := &Result{Minutes: minutes, Tenants: make([]TenantResult, len(ts))}

	s := &runState{
		ts:      ts,
		cluster: cluster,
		finj:    finj,
		h:       h,
		events:  events,
		minutes: minutes,
		warmup:  warmup,
		d:       opts.DecisionEveryMinutes,
		workers: opts.Workers,
		shard:   opts.Sharding,
		res:     res,
		arb:     &arbScratch{},
	}
	if events {
		s.emit(0, "fleet.run", append(s.arb.fields[:0],
			obs.I("tenants", int64(len(ts))),
			obs.I("minutes", int64(minutes)),
			obs.I("nodes", int64(len(cluster.Nodes()))),
			obs.I("decision_every", int64(opts.DecisionEveryMinutes)),
		))
	}
	if opts.Engine == EngineEvents {
		err = s.runEvents()
	} else {
		err = s.runStepped()
	}
	if err != nil {
		return nil, err
	}

	// Epilogue: close the books, emit the per-tenant summaries and replay
	// each tenant's buffered fault stream, all in tenant order.
	for i, t := range ts {
		t.meter.Flush()
		t.res.FinalCores = t.set.CPULimit()
		t.res.BilledCorePeriods = t.meter.BilledCorePeriods()
		t.res.FaultCounts = t.inj.Counts()
		if t.mr != nil {
			t.finishMulti()
		}
		res.Tenants[i] = t.res

		res.TotalSlack += t.res.SumSlack
		res.TotalInsufficient += t.res.SumInsufficient
		res.TotalCost += t.res.BilledCorePeriods
		res.TotalScalings += t.res.NumScalings
		res.TotalDeferrals += t.res.Deferrals
		res.TotalAborted += t.res.ResizesAborted
		res.TotalOOMMinutes += t.res.OOMMinutes
		res.TotalRAMShortGBMin += t.res.RAMShortGBMin
		res.TotalRAMCost += t.res.BilledRAMGBPeriods
		res.TotalDiskCost += t.res.BilledDiskGBPeriods

		if events {
			fields := append(s.arb.fields[:0],
				obs.S("tenant", t.spec.Name),
				obs.S("recommender", t.res.Recommender),
				obs.F("slack", t.res.SumSlack),
				obs.F("insufficient", t.res.SumInsufficient),
				obs.I("scalings", int64(t.res.NumScalings)),
				obs.I("deferrals", int64(t.res.Deferrals)),
				obs.I("aborted", int64(t.res.ResizesAborted)),
				obs.I("throttled_minutes", int64(t.res.ThrottledMinutes)),
				obs.F("cost", t.res.BilledCorePeriods),
			)
			if t.mr != nil {
				// Appended, never reordered: CPU-only tenant events stay
				// byte-identical to the pre-vector stream.
				fields = append(fields,
					obs.I("ram_gb", int64(t.res.FinalRAMGB)),
					obs.I("disk_gb", int64(t.res.FinalDiskGB)),
					obs.I("replicas", int64(t.res.FinalReplicas)),
					obs.I("oom_minutes", int64(t.res.OOMMinutes)),
					obs.F("ram_short", t.res.RAMShortGBMin),
				)
			}
			s.emit(minutes, "fleet.tenant", fields)
			if t.sink != nil {
				t.sink.ReplayTo(h.Events)
				t.sink = nil
			}
		}
	}
	res.PressureWindows = finj.Counts().PressureWindows

	if m := h.Metrics; m != nil {
		m.Counter("fleet.tenants").Add(int64(len(ts)))
		m.Counter("fleet.minutes").Add(int64(minutes))
		m.Counter("fleet.resizes").Add(int64(res.TotalScalings))
		m.Counter("fleet.deferrals").Add(int64(res.TotalDeferrals))
		m.Counter("fleet.resizes_aborted").Add(int64(res.TotalAborted))
		m.Gauge("fleet.total_cost").Set(res.TotalCost)
	}
	return res, nil
}

// runStepped is the reference engine. The replay advances in
// decision-cadence segments rather than single minutes: limits only change
// in phase 2, which only runs at decision ticks, so every minute in
// between is pure tenant-local observation. Batching the segment into ONE
// parallel fan-out per decision tick (instead of one per minute) removes
// ~DecisionEveryMinutes× scheduling round-trips per tick while preserving
// the exact per-minute observe/account/meter sequence each tenant executes
// — results and event streams stay byte-identical at every worker count.
func (s *runState) runStepped() error {
	ts, minutes, warmup := s.ts, s.minutes, s.warmup
	ctx := context.Background()

	// The sequential phase walks every tenant index each tick.
	all := make([]int, len(ts))
	for i := range all {
		all[i] = i
	}

	for segStart := 0; segStart < minutes; {
		// The segment ends just after the next decision minute (the first
		// now ≥ segStart with now ≥ warmup and (now−warmup)%D == 0), or at
		// the horizon when no further decision happens.
		segEnd := minutes // exclusive
		decision := -1    // the decision minute, -1 when the replay ends first
		nd := warmup
		if segStart > warmup {
			nd = warmup + (segStart-warmup+s.d-1)/s.d*s.d
		}
		if nd < minutes {
			segEnd = nd + 1
			decision = nd
		}

		// Sequential segment prologue: poll the fleet-level scheduling
		// pressure for every minute in order — the same draw and event
		// sequence the per-minute loop produced — keeping the decision
		// minute's value for this tick's arbitration.
		pressure := 0.0
		if s.finj != nil {
			for now := segStart; now < segEnd; now++ {
				pressure = s.finj.PressureCores(int64(now))
			}
			s.cluster.SetPressure(pressure)
		}

		// Phase 1 — parallel observe/decide over the whole segment. Each
		// task touches only its tenant's state and reads nothing phase 2
		// mutates, so any worker count produces identical proposals.
		err := parallel.ForEach(ctx, len(ts), s.workers, func(i int) error {
			t := ts[i]
			if t.mr != nil {
				// Multi-resource tenants observe every dimension; the
				// CPU-only loop below stays byte-for-byte untouched.
				t.observeMultiSegment(segStart, segEnd, decision)
				return nil
			}
			limit := t.set.CPULimit() // constant within the segment
			limf := float64(limit)
			t.hasProp = false
			for now := segStart; now < segEnd; now++ {
				demand := t.spec.Trace.Values[now]
				usage := demand
				if usage > limf {
					usage = limf
				}

				// Scrape: a metrics-gap fault loses this minute's sample,
				// so the recommender observes the previous one —
				// ground-truth accounting below is unaffected.
				observed := usage
				if t.inj.DropSample(t.pod, int64(now)) {
					observed = t.prevUsage
				}
				t.prevUsage = usage
				t.rec.Observe(now, observed)

				// Ground-truth accounting in core-minutes.
				if slack := limf - usage; slack > 0 {
					t.res.SumSlack += slack
				}
				if short := demand - limf; short > 0 {
					t.res.SumInsufficient += short
					t.severity += short
					t.res.ThrottledMinutes++
				}
				t.meter.Record(limf)
			}

			// Decide: file a proposal for phase 2. The severity snapshot
			// is the insufficiency accumulated since the last decision —
			// the arbiter's priority signal.
			if decision >= 0 {
				t.decide(limit)
			}
			return nil
		})
		if err != nil {
			return err
		}
		segStart = segEnd
		if decision >= 0 {
			s.enactTick(all, pressure, decision)
		}
	}
	return nil
}

// enactTick runs phase 2 at one decision tick and closes its books: the
// arbitration-tick counter and the per-tick "fleet.arbitration" summary
// event, emitted when at least one tenant was deferred. The stepped
// engine calls this; the event engine's shard loops call enactPhase
// directly and re-derive the tick bookkeeping in the merge (shard.go),
// where the global contender/grant/deferral totals are known.
func (s *runState) enactTick(cands []int, pressure float64, now int) {
	contenders, granted, deferred := s.enactPhase(cands, pressure, now)
	if deferred > 0 {
		s.res.ArbitrationTicks++
		if s.events {
			s.emitArbitration(now, contenders, granted, deferred, pressure)
		}
	}
}

// enactPhase is phase 2 — the sequential enact/arbitrate pass at one
// decision tick, shared by both engines. cands lists the tenant indices
// that may hold proposals, in ascending order: the stepped engine passes
// every index, the event engine just the tenants awake at this tick
// (sleeping tenants provably file nothing, so the walk is equivalent).
// It returns the tick's arbitration tallies — the scale-up contender
// count and how many were granted vs deferred — for enactTick or the
// shard merge to summarize.
//
// Scale-downs go first: they only release capacity, so they are always
// granted and make room for this tick's scale-ups (the arbiter sees the
// freed cores).
func (s *runState) enactPhase(cands []int, pressure float64, now int) (contenders, granted, deferred int) {
	ts := s.ts
	ups := s.ups[:0]
	for _, i := range cands {
		t := ts[i]
		if !t.hasProp {
			continue
		}
		if !t.prop.grows(t) {
			if s.ssink != nil {
				s.ssink.key = evKey{stage: 0, idx: int32(i)}
			}
			s.enact(t, now)
		} else {
			ups = append(ups, i)
		}
	}

	// Arbitration: grant scale-ups most-throttled-first; tenant index
	// breaks ties deterministically. The order is total (indices are
	// unique), so this closure-free insertion sort reproduces exactly
	// the permutation sort.SliceStable used to produce. Each grant
	// applies its in-place resizes immediately, so later feasibility
	// checks see the already-reserved capacity.
	if len(ups) > 0 {
		for a := 1; a < len(ups); a++ {
			v := ups[a]
			sv := ts[v].prop.severity
			b := a - 1
			for b >= 0 {
				sb := ts[ups[b]].prop.severity
				if sv > sb || (sv == sb && v < ups[b]) {
					ups[b+1] = ups[b]
					b--
				} else {
					break
				}
			}
			ups[b+1] = v
		}
		for _, i := range ups {
			t := ts[i]
			if s.ssink != nil {
				s.ssink.key = evKey{stage: 1, idx: int32(i), sev: t.prop.severity}
			}
			if node, short := infeasible(t, pressure, s.arb); node != nil {
				t.res.Deferrals++
				deferred++
				if s.events {
					s.emit(now, "fleet.deferred", append(s.arb.fields[:0],
						obs.S("tenant", t.spec.Name),
						obs.I("from", int64(t.set.CPULimit())),
						obs.I("want", int64(t.prop.target)),
						obs.F("severity", t.prop.severity),
						obs.S("node", node.Name),
						obs.F("short_cores", short),
					))
				}
				continue
			}
			s.enact(t, now)
			granted++
		}
	}
	s.ups = ups
	return len(ups), granted, deferred
}

// arbScratch holds the phase-2 working storage reused across ticks: the
// per-node resize tally of infeasible (parallel slices — sets span a
// handful of nodes, so linear probing beats a map rebuilt per check),
// enact's rollback list and the fleet.* event field buffer (see emit).
// needMem is touched only by multi-resource tenants, so CPU-only fleets
// never allocate it. Every event-engine shard owns one, so concurrent
// shards never share a buffer.
type arbScratch struct {
	nodes   []*k8s.Node
	need    []float64
	needMem []float64 // RAM deltas per node (multi-resource proposals)
	done    []*k8s.Pod
	fields  []obs.Field
}

// infeasible checks whether granting the tenant's proposal would
// oversubscribe any node hosting its pods: per node, the summed CPU
// resize deltas must fit the node's free capacity minus the transient
// scheduling pressure (which the raw in-place resize path does not see —
// the arbiter is the pressure-aware layer), and for a multi-resource
// tenant the summed RAM deltas must fit the node's free memory too. It
// returns the first violating node and the shortfall in the violating
// dimension's native unit, or nil when the grant fits.
func infeasible(t *tenant, pressure float64, arb *arbScratch) (*k8s.Node, float64) {
	multi := t.mr != nil
	podMem := t.spec.MemGiBPerPod
	if multi && t.mr.ram != nil {
		podMem = float64(t.prop.ram)
	}
	arb.nodes = arb.nodes[:0]
	arb.need = arb.need[:0]
	arb.needMem = arb.needMem[:0]
	for _, p := range t.set.Pods {
		delta := float64(t.prop.target) - p.CPULimit()
		memDelta := 0.0
		if multi {
			memDelta = podMem - p.Spec.Requests.MemoryGiB
		}
		if (delta <= 0 && memDelta <= 0) || p.Node == nil {
			continue
		}
		delta, memDelta = max(delta, 0), max(memDelta, 0)
		found := false
		for j, n := range arb.nodes {
			if n == p.Node {
				arb.need[j] += delta
				if multi {
					arb.needMem[j] += memDelta
				}
				found = true
				break
			}
		}
		if !found {
			arb.nodes = append(arb.nodes, p.Node)
			arb.need = append(arb.need, delta)
			if multi {
				arb.needMem = append(arb.needMem, memDelta)
			}
		}
	}
	for j, n := range arb.nodes {
		free := n.Free()
		if avail := free.CPUCores - pressure; arb.need[j] > avail {
			return n, arb.need[j] - avail
		}
		if multi && arb.needMem[j] > free.MemoryGiB {
			return n, arb.needMem[j] - free.MemoryGiB
		}
	}
	return nil, 0
}

// enact applies one granted proposal. The in-place resize goes first:
// every pod of the set moves to the CPU target — and, for a RAM-managed
// tenant, the RAM grant — all-or-nothing (an unexpected mid-apply
// rejection rolls the already-resized pods back). An injected restart
// failure aborts the enactment before any pod changes, modelling a failed
// apply. An aborted resize drops the whole proposal; the next decision
// re-files it. A multi-resource tenant then grows its volume (never
// shrinks it) and adds or removes a replica.
func (s *runState) enact(t *tenant, now int) {
	m, prop := t.mr, t.prop
	from := t.set.CPULimit()
	oldMem, newMem := t.spec.MemGiBPerPod, t.spec.MemGiBPerPod
	resize := prop.target != from
	fromRAM, fromReps := 0, 0
	if m != nil {
		fromRAM, fromReps = m.ramAlloc, m.replicas
		if m.ram != nil {
			oldMem, newMem = float64(fromRAM), float64(prop.ram)
			resize = resize || prop.ram != fromRAM
		}
	}

	if resize {
		if t.inj.RestartFails(t.pod, int64(now)) {
			s.aborted(t, from, "restart-fail", now)
			return
		}
		done := s.arb.done[:0]
		for _, p := range t.set.Pods {
			if err := s.cluster.ResizeInPlace(p, k8s.NewGuaranteedSpec(prop.target, newMem)); err != nil {
				// The arbiter pre-checked feasibility, so this is a genuine
				// surprise (e.g. a racing co-tenant): roll back and treat it
				// as an aborted enactment rather than leaving the set split.
				for _, q := range done {
					_ = s.cluster.ResizeInPlace(q, k8s.NewGuaranteedSpec(from, oldMem))
				}
				s.arb.done = done[:0]
				s.aborted(t, from, "infeasible", now)
				return
			}
			done = append(done, p)
		}
		s.arb.done = done[:0]
		if m != nil && m.ram != nil {
			m.ramAlloc = prop.ram
			t.set.MemGiBPerPod = newMem // future replicas inherit the grant
		}
		t.res.NumScalings++
	}

	if m != nil {
		if m.dsk != nil && prop.disk > m.diskAlloc {
			m.diskAlloc = prop.disk
		}
		// Only a Stateless tenant's decideMulti moves the replica target.
		if prop.reps > fromReps {
			if _, err := t.set.AddReplica(s.cluster, t.set.CPULimit(), int64(now+t.spec.SeedMinutes)); err != nil {
				// The arbiter checks existing pods' nodes; a fresh replica
				// competes for cluster-wide capacity and may still lose.
				t.res.Deferrals++
				if s.events {
					s.emit(now, "fleet.deferred", append(s.arb.fields[:0],
						obs.S("tenant", t.spec.Name),
						obs.S("reason", "scale-out"),
						obs.I("want_replicas", int64(prop.reps)),
						obs.F("severity", prop.severity),
					))
				}
			} else {
				m.replicas++
				m.seeding = now + t.spec.SeedMinutes
				t.res.NumScalings++
			}
		} else if prop.reps < fromReps {
			if _, err := t.set.RemoveReplica(s.cluster); err == nil {
				m.replicas--
				t.res.NumScalings++
			}
		}
	}

	if s.events {
		fields := append(s.arb.fields[:0],
			obs.S("tenant", t.spec.Name),
			obs.I("from", int64(from)),
			obs.I("to", int64(prop.target)),
			obs.F("severity", prop.severity),
		)
		if m != nil {
			// Appended, never reordered: CPU-only resize events keep their
			// four fields.
			fields = append(fields,
				obs.I("ram_from", int64(fromRAM)),
				obs.I("ram_to", int64(m.ramAlloc)),
				obs.I("disk_gb", int64(m.diskAlloc)),
				obs.I("replicas", int64(m.replicas)),
			)
		}
		s.emit(now, "fleet.resize", fields)
	}
}

// aborted books an enactment lost before any pod changed (restart-fail)
// or rolled back mid-apply (infeasible).
func (s *runState) aborted(t *tenant, from int, reason string, now int) {
	t.res.ResizesAborted++
	if s.events {
		s.emit(now, "fleet.resize-aborted", append(s.arb.fields[:0],
			obs.S("tenant", t.spec.Name),
			obs.I("from", int64(from)),
			obs.I("to", int64(t.prop.target)),
			obs.S("reason", reason),
		))
	}
}

// emit sends one fleet event whose fields the caller appended to
// s.arb.fields[:0], and keeps the grown buffer for the next event: the
// obs.Sink contract lets emitters reuse the backing array once Emit
// returns, so the enabled stream allocates only while the buffer grows.
func (s *runState) emit(now int, typ string, fields []obs.Field) {
	s.h.Events.Emit(obs.Event{T: int64(now), Type: typ, Fields: fields})
	s.arb.fields = fields[:0]
}

// emitArbitration sends the per-tick "fleet.arbitration" summary — from
// enactTick, or from the shard merge with the summed shard tallies.
func (s *runState) emitArbitration(now, contenders, granted, deferred int, pressure float64) {
	s.emit(now, "fleet.arbitration", append(s.arb.fields[:0],
		obs.I("contenders", int64(contenders)),
		obs.I("granted", int64(granted)),
		obs.I("deferred", int64(deferred)),
		obs.F("pressure", pressure),
	))
}
