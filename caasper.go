// Package caasper is the public API of this repository: a from-scratch
// reproduction of CaaSPER, the hybrid reactive/proactive vertical
// autoscaling algorithm for Container-as-a-Service databases described in
// "Vertically Autoscaling Monolithic Applications with CaaSPER" (SIGMOD
// 2024).
//
// The package re-exports the stable surface of the internal packages:
//
//   - the decision algorithm (Algorithm 1) behind NewReactive and
//     NewProactive, both implementing the pluggable Recommender
//     interface of the autoscaling loop;
//   - the price-vs-performance curve machinery (BuildCurve, SKURange)
//     that the algorithm's slope detection is built on;
//   - the forecasters of the proactive mode (SeasonalNaive, HoltWinters,
//     AR, MovingAverage, ...);
//   - the baseline recommenders the paper compares against (the default
//     Kubernetes VPA, an OpenShift-style predictive VPA, fixed limits,
//     and an Autopilot-style moving maximum);
//   - the §5 trace-driven simulator (Simulate) with its K/C/N metrics
//     and pay-as-you-go billing;
//   - the resource vector that answers the paper's §8 "other resource
//     types" item (ResourceRange, MemoryPolicy, DiskPolicy,
//     BillingRates, SimulateVector): RAM, disk and replicas scale
//     alongside the CPU decision;
//   - the parameter-tuning harness (RandomSearch, ParetoFrontier,
//     BestForAlpha) for mapping customer cost/performance preferences to
//     algorithm parameters;
//   - the live end-to-end harness (RunLive) that executes workloads on a
//     miniature Kubernetes substrate with rolling-update resizes and a
//     transaction-level database model;
//   - workload synthesis (Workloads, AlibabaTrace, Stitch) for every
//     trace family used in the paper's evaluation;
//   - the structured telemetry layer (EventSink, NDJSONSink,
//     MetricsRegistry): a deterministic decision-audit event stream plus
//     runtime metrics, wired through the simulator, the Kubernetes
//     substrate and the tuning harness;
//   - seeded deterministic fault injection (ParseFaultSpec,
//     NewFaultInjector): failed/stuck restarts, metric gaps and
//     scheduling pressure, reproducible byte-for-byte from one seed.
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory.
package caasper

import (
	"caasper/internal/baselines"
	"caasper/internal/billing"
	"caasper/internal/core"
	"caasper/internal/dbsim"
	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/fleet"
	"caasper/internal/forecast"
	"caasper/internal/hooks"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/pvp"
	"caasper/internal/recommend"
	"caasper/internal/serve"
	"caasper/internal/sim"
	"caasper/internal/trace"
	"caasper/internal/tuning"
	"caasper/internal/workload"
)

// ---------------------------------------------------------------------------
// Errors
//
// Every public constructor and Validate method classifies its failures by
// wrapping one of these sentinels, so callers branch with errors.Is
// instead of matching message strings:
//
//	if errors.Is(err, caasper.ErrBadWindow) { ... }
var (
	// ErrInvalidConfig marks configuration that violates an invariant
	// (non-positive cores, inverted bounds, missing required fields).
	ErrInvalidConfig = errs.ErrInvalidConfig
	// ErrBadWindow marks invalid decision/observation window sizes.
	ErrBadWindow = errs.ErrBadWindow
	// ErrEmptyTrace marks empty or malformed trace input.
	ErrEmptyTrace = errs.ErrEmptyTrace
	// ErrUnknownRecommender marks a recommender name NewRecommenderByName
	// does not recognise.
	ErrUnknownRecommender = errs.ErrUnknownRecommender
)

// ---------------------------------------------------------------------------
// Core algorithm

// Config carries the Algorithm 1 inputs: slope thresholds (s_h, s_l),
// slack thresholds (m_h, m_l), maximum step sizes (SF_h, SF_l), the
// operational floor c_min, the usage quantile and the SKU ladder.
type Config = core.Config

// Decision is one autoscaling decision with its interpretable
// intermediate state (slope, skew, scaling factor, prose explanation).
type Decision = core.Decision

// Branch identifies which arm of Algorithm 1 produced a decision.
type Branch = core.Branch

// The Algorithm 1 decision branches.
const (
	BranchScaleUp   = core.BranchScaleUp
	BranchScaleDown = core.BranchScaleDown
	BranchWalkDown  = core.BranchWalkDown
	BranchHold      = core.BranchHold
)

// DefaultConfig returns the paper-flavoured defaults over a SKU ladder of
// 1..maxCores whole cores.
func DefaultConfig(maxCores int) Config { return core.DefaultConfig(maxCores) }

// Recommender is the pluggable policy interface of the autoscaling loop
// (paper Figure 1 step 3): Observe one usage sample per metric interval,
// Recommend a target allocation at each decision tick.
type Recommender = recommend.Recommender

// NewReactive builds the reactive CaaSPER recommender: Algorithm 1
// evaluated over a sliding usage window of `window` samples (the paper
// uses the last 40 minutes).
func NewReactive(cfg Config, window int) (Recommender, error) {
	return recommend.NewCaaSPERReactive(cfg, window)
}

// NewProactive builds the hybrid reactive+proactive recommender: the
// decision window combines the observed tail with `horizon` forecast
// samples (Eq. 4) once `minHistory` samples (one full season) have
// accumulated.
func NewProactive(cfg Config, f Forecaster, observedWindow, horizon, minHistory int) (Recommender, error) {
	return recommend.NewCaaSPERProactive(cfg, f, observedWindow, horizon, minHistory)
}

// Decide evaluates Algorithm 1 once, outside any loop: given the current
// whole-core allocation and a CPU usage window, it returns the decision
// with its explanation. This is the stateless entry point for ad-hoc
// "what would CaaSPER do" queries.
func Decide(cfg Config, currentCores int, usage []float64) (Decision, error) {
	r, err := core.New(cfg)
	if err != nil {
		return Decision{}, err
	}
	return r.Decide(currentCores, usage)
}

// ---------------------------------------------------------------------------
// PvP curves

// SKURange is the candidate core ladder of the PvP curve.
type SKURange = pvp.SKURange

// Curve is a price-vs-performance curve: 1−P(throttling) per SKU.
type Curve = pvp.Curve

// BuildCurve constructs the PvP curve for a usage window (Eq. 1).
func BuildCurve(usage []float64, r SKURange) (*Curve, error) {
	return pvp.BuildCurve(usage, r)
}

// ScalingFactor evaluates the Eq. 3 function SF(s, skew).
func ScalingFactor(slope, skew float64, params pvp.ScalingFactorParams) float64 {
	return pvp.ScalingFactor(slope, skew, params)
}

// ScalingFactorParams configures Eq. 3.
type ScalingFactorParams = pvp.ScalingFactorParams

// ---------------------------------------------------------------------------
// Forecasting

// Forecaster predicts future CPU usage from history.
type Forecaster = forecast.Forecaster

// NewSeasonalNaive returns the paper's production forecaster: repeat the
// last full season of `season` samples.
func NewSeasonalNaive(season int) Forecaster { return &forecast.SeasonalNaive{Season: season} }

// NewHoltWinters returns an additive triple-exponential-smoothing
// forecaster.
func NewHoltWinters(alpha, beta, gamma float64, season int) Forecaster {
	return &forecast.HoltWinters{Alpha: alpha, Beta: beta, Gamma: gamma, Season: season}
}

// NewAR returns an autoregressive forecaster of order p (Yule–Walker).
func NewAR(p int) Forecaster { return &forecast.AR{P: p} }

// NewMovingAverage returns a windowed moving-average forecaster.
func NewMovingAverage(window int) Forecaster { return &forecast.MovingAverage{Window: window} }

// NewIntervalSeasonalNaive returns the seasonal-naïve forecaster with
// empirical prediction intervals, enabling the §4.3 confidence prefilter
// (set Proactive.MaxRelativeUncertainty on the core type to use it).
func NewIntervalSeasonalNaive(season int) Forecaster {
	return forecast.NewIntervalSeasonalNaive(season)
}

// EnsembleMode selects how an ensemble combines member forecasts.
type EnsembleMode = forecast.EnsembleMode

// Ensemble combination rules.
const (
	EnsembleMean   = forecast.EnsembleMean
	EnsembleMax    = forecast.EnsembleMax
	EnsembleMedian = forecast.EnsembleMedian
)

// NewEnsemble combines several forecasters under the given rule.
func NewEnsemble(mode EnsembleMode, members ...Forecaster) Forecaster {
	return &forecast.Ensemble{Members: members, Mode: mode}
}

// ---------------------------------------------------------------------------
// Resource vectors
//
// The resource-vector API generalises the CPU-only bounds to
// CPU + RAM + disk + replicas. Every options struct (SimOptions,
// LiveOptions, TenantSpec) states its bounds as one ResourceRange; a
// CPU-only caller sets just the CPU entries.

// Resources is one point in resource space: CPU cores, RAM GB, disk GB
// and replica count.
type Resources = core.Resources

// ResourceLimits bounds the scalable dimensions (Min/Max per dimension);
// a zero Max leaves a dimension unmanaged.
type ResourceLimits = core.Limits

// ResourceRange is the full vector contract of a workload: the initial
// allocation plus the min/max bounds of every managed dimension.
type ResourceRange = core.ResourceRange

// ParseResourceSpec parses the -resources CLI grammar, e.g.
// "cpu=2-16,ram=4-32,disk=20,replicas=1-4" (a single number pins the
// dimension's initial value; a range bounds its scaling).
var ParseResourceSpec = core.ParseResourceSpec

// MemoryPolicy is the dual-threshold RAM policy (grow when free memory
// falls under max(MinFreeGB, MinFreePct·alloc), shrink with hysteresis).
type MemoryPolicy = recommend.MemoryPolicy

// DiskPolicy is the grow-only volume policy (keep HeadroomPct free,
// round up to StepGB, never shrink).
type DiskPolicy = recommend.DiskPolicy

// DefaultMemoryPolicy / DefaultDiskPolicy return the running defaults
// used wherever a zero policy is supplied.
var (
	DefaultMemoryPolicy = recommend.DefaultMemoryPolicy
	DefaultDiskPolicy   = recommend.DefaultDiskPolicy
)

// BillingRates prices the resource vector per billing period.
type BillingRates = billing.Rates

// DefaultBillingRates returns the running price weights (CPU 1.0 per
// core-period, RAM 0.25 per GB-period, disk 0.02 per GB-period).
var DefaultBillingRates = billing.DefaultRates

// DeriveRAMTrace / DeriveDiskTrace synthesize RAM-usage and disk-usage
// series from a CPU demand trace — the stand-ins the simulator uses when
// a vector run supplies no explicit non-CPU traces.
var (
	DeriveRAMTrace  = workload.DeriveRAM
	DeriveDiskTrace = workload.DeriveDisk
)

// VectorSimResult aggregates a multi-resource simulation: the embedded
// CPU SimResult plus the RAM/disk trajectories, OOM accounting and
// per-dimension bills.
type VectorSimResult = sim.VectorResult

// SimulateVector replays a demand trace through a recommender across the
// full resource vector: the CPU dimension runs through Simulate
// unchanged, RAM scales under MemoryPolicy, disk grows under DiskPolicy.
// SimOptions.Resources must manage at least one non-CPU dimension.
func SimulateVector(tr *Trace, rec Recommender, opts SimOptions) (*VectorSimResult, error) {
	return sim.RunVector(tr, rec, opts)
}

// ---------------------------------------------------------------------------
// Baselines

// NewControl returns the fixed-limits reference policy.
func NewControl(cores int) Recommender { return baselines.NewControl(cores) }

// NewKubernetesVPA returns the default-VPA baseline (decaying histogram,
// P90 target) with upstream-default options over the given ladder.
func NewKubernetesVPA(maxCores int) (Recommender, error) {
	return baselines.NewKubernetesVPA(baselines.DefaultKubernetesVPAOptions(maxCores))
}

// NewOpenShiftVPA returns the OpenShift-style predictive baseline.
func NewOpenShiftVPA(maxCores int) (Recommender, error) {
	return baselines.NewOpenShiftVPA(baselines.DefaultOpenShiftVPAOptions(maxCores))
}

// NewAutopilot returns the moving-window-maximum baseline.
func NewAutopilot(maxCores int) (Recommender, error) {
	return baselines.NewAutopilot(baselines.DefaultAutopilotOptions(maxCores))
}

// ---------------------------------------------------------------------------
// Named recommender construction

// RecommenderSettings carries the shared knobs of the named recommender
// constructors. Only MaxCores is required; every other field has the
// paper's running default. It aliases recommend.Settings so the serve
// layer can hot-swap policies by name without importing this package.
type RecommenderSettings = recommend.Settings

// RecommenderNames lists the names NewRecommenderByName accepts, sorted.
func RecommenderNames() []string { return recommend.Names() }

// NewRecommenderByName builds a recommender from its CLI-facing name —
// the one switch every command shares instead of each growing its own:
//
//	caasper             the reactive CaaSPER policy (Algorithm 1)
//	caasper-proactive   the hybrid reactive+forecast policy (Eq. 4)
//	vpa                 the default Kubernetes VPA baseline
//	openshift           the OpenShift-style predictive VPA baseline
//	autopilot           the Autopilot-style moving-maximum baseline
//	control             fixed limits at ControlCores
//
// An unrecognised name wraps ErrUnknownRecommender.
func NewRecommenderByName(name string, s RecommenderSettings) (Recommender, error) {
	return recommend.NewByName(name, s)
}

// ---------------------------------------------------------------------------
// Traces and workloads

// Trace is a regularly sampled CPU usage series in cores.
type Trace = trace.Trace

// NewTrace builds a trace from raw values.
var NewTrace = trace.New

// ReadTraceCSV parses a trace in the repository's CSV form
// (index,cpu_cores rows with a header), attaching the given name and
// sample interval.
var ReadTraceCSV = trace.ReadCSV

// Workloads exposes the paper's synthetic workload generators keyed by
// name. Each takes a seed and returns a one-minute-resolution trace.
var Workloads = map[string]func(seed uint64) *Trace{
	"step62h":    workload.StepTrace62h,
	"workday12h": workload.Workday12h,
	"cyclical3d": workload.Cyclical3Day,
	"workweek":   workload.WorkWeek,
	"customer":   workload.CustomerTrace,
	"throttled8": workload.ThrottledAt8,
	"healthy32":  workload.HealthyAt32,
	"overprov12": workload.OverProvisionedAt12,
	"throttled3": workload.ThrottledAt3,
}

// AlibabaIDs lists the Alibaba-style trace identifiers of §6.3.
var AlibabaIDs = workload.AlibabaIDs

// AlibabaTrace synthesizes the stand-in for one Alibaba container trace.
func AlibabaTrace(id string, seed uint64) (*Trace, error) {
	return workload.AlibabaTrace(id, seed)
}

// ---------------------------------------------------------------------------
// Simulation (§5)

// SimOptions configures the trace-driven simulator.
type SimOptions = sim.Options

// SimResult aggregates one simulation run: the K/C/N metrics, throttled
// observation share, billing cost and full per-minute series.
type SimResult = sim.Result

// DefaultSimOptions returns 10-minute decisions, 10-minute resizes and
// hourly billing.
func DefaultSimOptions(initial, maxCores int) SimOptions {
	return sim.DefaultOptions(initial, maxCores)
}

// Simulate replays a demand trace through a recommender.
func Simulate(tr *Trace, rec Recommender, opts SimOptions) (*SimResult, error) {
	return sim.Run(tr, rec, opts)
}

// ---------------------------------------------------------------------------
// Parameter tuning (§5)

// TuningParams is one tunable parameter combination.
type TuningParams = tuning.Params

// TuningEvaluation is one simulated evaluation of a combination.
type TuningEvaluation = tuning.Evaluation

// RandomSearch evaluates random parameter combinations on a trace.
var RandomSearch = tuning.RandomSearch

// RandomSearchReport is RandomSearch plus a TuningReport describing how
// many sampled combinations were actually evaluated versus skipped.
var RandomSearchReport = tuning.RandomSearchReport

// TuningOptions configures RandomSearch.
type TuningOptions = tuning.SearchOptions

// TuningReport summarises a RandomSearchReport run (sampled / evaluated /
// skipped counts and the first skip's reason).
type TuningReport = tuning.SearchReport

// ParetoFrontier extracts the non-dominated (K, C) evaluations.
var ParetoFrontier = tuning.ParetoFrontier

// BestForAlpha minimises G(α, p) = α·K + C (Eq. 5).
var BestForAlpha = tuning.BestForAlpha

// SampleAlphas draws slack-penalty coefficients from the log-uniform
// distribution of Eq. 6, sorted ascending.
var SampleAlphas = tuning.SampleAlphas

// ---------------------------------------------------------------------------
// Live end-to-end harness (§6.2)

// LiveOptions configures the end-to-end run on the Kubernetes substrate.
type LiveOptions = dbsim.HarnessOptions

// LiveResult aggregates a live run: transaction throughput/latency,
// scaling counts, failovers, slack and billing.
type LiveResult = dbsim.LiveResult

// LoadSchedule is a transaction workload: arrival rates plus a mix.
type LoadSchedule = workload.LoadSchedule

// Cluster is the miniature Kubernetes node pool hosting a stateful set.
type Cluster = k8s.Cluster

// SmallCluster returns the paper's small test cluster (6 × 8 CPU / 32 GiB).
var SmallCluster = k8s.SmallCluster

// LargeCluster returns the paper's large test cluster (6 × 16 CPU / 56 GiB).
var LargeCluster = k8s.LargeCluster

// DatabaseA returns the paper's Database A preset: 3 replicas, strict HA,
// 5–15 minute resizes.
func DatabaseA(initial, maxCores int) LiveOptions { return dbsim.DatabaseAOptions(initial, maxCores) }

// DatabaseB returns the paper's Database B preset: 2 read-scale replicas,
// 3–5 minute resizes.
func DatabaseB(initial, maxCores int) LiveOptions { return dbsim.DatabaseBOptions(initial, maxCores) }

// RunLive executes the full autoscaling loop (Figure 1) for the schedule.
func RunLive(sched *LoadSchedule, rec Recommender, opts LiveOptions) (*LiveResult, error) {
	return dbsim.RunLive(sched, rec, opts)
}

// ---------------------------------------------------------------------------
// Fleet controller

// TenantSpec describes one tenant of a fleet run: its demand trace, its
// recommender factory and its stateful-set shape.
type TenantSpec = fleet.TenantSpec

// FleetOptions configures a fleet run: the shared cluster, the horizon,
// the decision cadence, the worker pool and — through the embedded
// RunHooks — telemetry and fault injection.
type FleetOptions = fleet.Options

// FleetResult aggregates a fleet run: per-tenant K/C/N, cost and
// arbitration losses plus the fleet-level totals.
type FleetResult = fleet.Result

// FleetTenantResult is one tenant's outcome within a FleetResult.
type FleetTenantResult = fleet.TenantResult

// Fleet tick engines, for FleetOptions.Engine: the minute-stepped
// reference engine (also selected by "") and the discrete-event engine,
// which produces byte-identical results and event streams while scaling
// with trace inflections and decision ticks instead of simulated minutes.
const (
	FleetEngineStepped = fleet.EngineStepped
	FleetEngineEvents  = fleet.EngineEvents
)

// Fleet sharding modes, for FleetOptions.Sharding: the event engine's
// shard-parallel mode (the default, also selected by "") partitions the
// fleet into node-disjoint shard groups — tenants that can never contend
// for the same node's capacity — and runs them concurrently, merging the
// per-shard outputs back into the stepped engine's byte order afterwards.
// FleetShardingOff puts every tenant in one group of the same loop;
// results and event streams are byte-identical either way.
const (
	FleetShardingAuto = fleet.ShardingAuto
	FleetShardingOff  = fleet.ShardingOff
)

// DefaultFleetOptions returns the fleet defaults: 10-minute decisions,
// hourly billing, shortest-trace horizon.
func DefaultFleetOptions() FleetOptions { return fleet.DefaultOptions() }

// RunFleet autoscales every tenant concurrently against one shared
// cluster: a parallel observe/decide phase per tick, then a sequential
// enact phase where the capacity arbiter grants contended scale-ups in
// throttling-severity order and defers the rest. Results and the
// "fleet.*" event stream are byte-identical at every worker count.
func RunFleet(tenants []TenantSpec, opts FleetOptions) (*FleetResult, error) {
	return fleet.Run(tenants, opts)
}

// ---------------------------------------------------------------------------
// Fault injection

// RunHooks is the telemetry/fault knob set shared by SimOptions,
// LiveOptions and FleetOptions: an event sink, a metrics registry and a
// fault spec + seed, embedded in each options struct under one spelling.
type RunHooks = hooks.RunHooks

// FaultSpec is a parsed fault-injection specification (what to inject,
// with which probabilities and durations).
type FaultSpec = faults.Spec

// FaultInjector draws deterministic faults from a spec and a seed: the
// same seed reproduces the same fault pattern byte-for-byte at any
// worker count. A nil injector is inert (the fault-free fast path).
type FaultInjector = faults.Injector

// FaultCounts tallies injected faults by kind.
type FaultCounts = faults.Counts

// ParseFaultSpec parses the -faults grammar, e.g.
// "restart-fail:p=0.1,restart-stuck:p=0.05:dur=600,metrics-gap:p=0.02".
// Empty input yields an empty spec; NewFaultInjector then returns nil.
var ParseFaultSpec = faults.ParseSpec

// NewFaultInjector builds a deterministic injector (nil for empty specs).
var NewFaultInjector = faults.New

// WorkdaySchedule returns the §6.2 12-hour live workload.
var WorkdaySchedule = workload.WorkdaySchedule

// ScheduleForCores converts a CPU demand pattern into a transaction
// schedule under the given mix.
var ScheduleForCores = workload.ScheduleForCores

// TracePattern adapts a trace into a demand pattern for ScheduleForCores.
var TracePattern = workload.TracePattern

// MixedOLTP returns the blended TPC-C + YCSB transaction mix.
var MixedOLTP = workload.MixedOLTP

// Stitch recreates a customer trace from benchmark mixes (Stitcher-style).
var Stitch = workload.Stitch

// ---------------------------------------------------------------------------
// Telemetry

// Event is one structured telemetry record: simulated time, a dotted type
// name and ordered key/value fields, NDJSON-encodable bit-identically for
// every worker count.
type Event = obs.Event

// EventSink receives structured events; DiscardEvents drops them at
// near-zero cost and is what every Options zero value means.
type EventSink = obs.Sink

// NDJSONSink streams events to a writer as newline-delimited JSON.
type NDJSONSink = obs.NDJSONSink

// MemorySink buffers events in memory (tests, deterministic replay).
type MemorySink = obs.MemorySink

// MetricsRegistry is a named collection of runtime counters, gauges and
// latency histograms with a formatted Summary table.
type MetricsRegistry = obs.Registry

// DiscardEvents is the no-op event sink.
var DiscardEvents = obs.Discard

// NewNDJSONSink wraps a writer in a buffered NDJSON event sink; call
// Flush before exit.
var NewNDJSONSink = obs.NewNDJSONSink

// NewMemorySink returns an in-memory event buffer.
var NewMemorySink = obs.NewMemorySink

// NewMetricsRegistry returns an empty runtime-metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// ---------------------------------------------------------------------------
// Recommender service

// ServeOptions configures the long-running recommender service behind
// caasper-serve: shard count, ingest queue depth, decision cadence,
// snapshot path and telemetry hooks.
type ServeOptions = serve.Options

// ServeTenantConfig is a tenant's registration body for the service:
// which policy decides for it and over which min/max core range.
type ServeTenantConfig = serve.TenantConfig

// ServeDecisionRecord is one decision as streamed by the service's
// NDJSON decision endpoint.
type ServeDecisionRecord = serve.DecisionRecord

// Server is the recommender-as-a-service HTTP server: tenants POST
// metric samples, decisions stream back, and the admin surface retunes
// core ranges and hot-swaps policies without a restart. Expose via
// Handler, checkpoint via Snapshot, stop with Close.
type Server = serve.Server

// NewServer builds a Server, starts its shard workers, and restores the
// checkpoint at ServeOptions.SnapshotPath when one exists.
var NewServer = serve.New
