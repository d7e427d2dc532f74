// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact end to end and reporting its
// headline metrics), plus micro-benchmarks of the hot paths (PvP-curve
// construction, Algorithm 1 decisions, simulator stepping, forecasting).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks report custom metrics (slack reductions, cost
// ratios, throughput shares) so the paper-vs-measured comparison is
// visible straight from the bench output; EXPERIMENTS.md records one run.
package caasper_test

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"caasper"
	"caasper/internal/core"
	"caasper/internal/experiments"
	"caasper/internal/k8s"
)

// ---------------------------------------------------------------------------
// Per-figure/table benchmarks

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.VPASlackReduction*100, "vpa_slack_red_%")
		b.ReportMetric(res.CaaSPERSlackReduction*100, "caasper_slack_red_%")
		b.ReportMetric(res.OpenShiftThroughput*100, "openshift_thrpt_%")
		b.ReportMetric(res.CaaSPERThroughput*100, "caasper_thrpt_%")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TargetCores), "target_cores")
		b.ReportMetric(res.RawSF, "raw_sf")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ThrottledSlope, "throttled_slope")
		b.ReportMetric(res.HealthySlope, "healthy_slope")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure6()
		b.ReportMetric(res.Factors[len(res.Factors)-1], "sf_at_max_slope")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.WalkDownDelta), "walkdown_delta")
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9Table1(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CostRatio*100, "cost_vs_ctrl_%")
		b.ReportMetric(res.SlackReduction*100, "slack_red_%")
		b.ReportMetric(float64(res.Resizes), "resizes")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10Table1(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReactiveCostRatio*100, "reactive_cost_%")
		b.ReportMetric(res.ProactiveCostRatio*100, "proactive_cost_%")
		b.ReportMetric(res.ReactiveSlackReduction*100, "reactive_slack_red_%")
		b.ReportMetric(res.ProactiveSlackReduction*100, "proactive_slack_red_%")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11Table2(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PerfCostRatio*100, "perf_cost_%")
		b.ReportMetric(res.SavingsCostRatio*100, "savings_cost_%")
		b.ReportMetric(res.PerfThroughputRatio*100, "perf_thrpt_%")
		b.ReportMetric(res.SavingsThroughputRatio*100, "savings_thrpt_%")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(1, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Frontier)), "pareto_points")
		b.ReportMetric(res.ProactiveMeanK, "proactive_mean_K")
		b.ReportMetric(res.ReactiveMeanK, "reactive_mean_K")
	}
}

func BenchmarkFigure13(b *testing.B) {
	fig12, err := experiments.Figure12(1, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure13(fig12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Chosen[0].K-res.Chosen[len(res.Chosen)-1].K, "K_range")
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure14Table3(1, 25)
		if err != nil {
			b.Fatal(err)
		}
		var maxThrottled float64
		for _, row := range res.Rows {
			if row.ThrottledPct > maxThrottled {
				maxThrottled = row.ThrottledPct
			}
		}
		b.ReportMetric(maxThrottled*100, "max_throttled_%")
		b.ReportMetric(float64(len(res.Rows)), "traces")
	}
}

func BenchmarkSimCorrectness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SimulatorCorrectness(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TTest.P, "ttest_p")
	}
}

func BenchmarkMotivationHorizontal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MotivationHorizontal(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HorizontalThroughputGain, "horizontal_gain_x")
		b.ReportMetric(res.VerticalThroughputGain, "vertical_gain_x")
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (design-choice studies from DESIGN.md / paper §8)

func BenchmarkAblationInPlace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationInPlace(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rolling.DB.InterruptedTxns, "rolling_interrupted")
		b.ReportMetric(res.InPlace.DB.InterruptedTxns, "inplace_interrupted")
	}
}

func BenchmarkAblationHorizon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHorizon(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
		b.ReportMetric(first.SumInsufficient, "reactive_C")
		b.ReportMetric(last.SumInsufficient, "h120_C")
	}
}

func BenchmarkAblationPrefilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPrefilter(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Without.SumSlack, "nofilter_K")
		b.ReportMetric(res.With.SumSlack, "prefilter_K")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths

func BenchmarkBuildCurve(b *testing.B) {
	usage := make([]float64, 40)
	for i := range usage {
		usage[i] = float64(i%13) + 0.5
	}
	r := caasper.SKURange{MinCores: 1, MaxCores: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := caasper.BuildCurve(usage, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecide(b *testing.B) {
	cfg := caasper.DefaultConfig(32)
	usage := make([]float64, 40)
	for i := range usage {
		usage[i] = float64(i%13) + 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := caasper.Decide(cfg, 8, usage); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideScratch times the decision loop's own path: rolling
// windows streamed at a 10-sample cadence through one core.Scratch, the
// way every recommender adapter decides tick after tick (BenchmarkDecide
// times the one-shot Decide, which also builds the explanation). The
// "plateau" row is the fleet-month-plateau tenant's shape: two levels,
// the upper one capped at the 2-core limit, window 20, DefaultConfig(4);
// its levels alternate every 15 samples so every window mixes them and
// misses the memo, as the windows a sleeping fleet wakes for do. The
// "noisy" row is a noisy trace at window 40 over 32 SKUs.
func BenchmarkDecideScratch(b *testing.B) {
	plateau := make([]float64, 30)
	for i := range plateau {
		plateau[i] = 0.65
		if i >= 15 {
			plateau[i] = 2 // 2.4 cores of demand, capped at the limit
		}
	}
	rng := rand.New(rand.NewPCG(3, 4))
	noisy := make([]float64, 400)
	for i := range noisy {
		noisy[i] = 8 + 5*math.Sin(float64(i)/23) + 2*rng.NormFloat64()
	}
	cases := []struct {
		name            string
		maxCores, cores int
		window          int
		series          []float64
	}{
		{"plateau", 4, 2, 20, plateau},
		{"noisy", 32, 8, 40, noisy},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r, err := core.New(core.DefaultConfig(c.maxCores))
			if err != nil {
				b.Fatal(err)
			}
			// The series repeats; windows wrap around through a doubled copy.
			series := append(append([]float64(nil), c.series...), c.series...)
			var sc core.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := (i * 10) % len(c.series)
				if _, err := r.DecideScratch(&sc, c.cores, series[start:start+c.window]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sc.MemoHits)/float64(b.N), "memo_hits/op")
		})
	}
}

func BenchmarkSimulateWorkday(b *testing.B) {
	tr := caasper.Workloads["workday12h"](1)
	opts := caasper.DefaultSimOptions(6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := caasper.NewReactive(caasper.DefaultConfig(8), 40)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := caasper.Simulate(tr, rec, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "sim_minutes/s")
}

// BenchmarkSimulateWorkdayEvents measures the same run with a live event
// sink attached, bounding the telemetry layer's enabled-path cost; compare
// against BenchmarkSimulateWorkday for the disabled-path (no-op sink) cost.
func BenchmarkSimulateWorkdayEvents(b *testing.B) {
	tr := caasper.Workloads["workday12h"](1)
	opts := caasper.DefaultSimOptions(6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := caasper.NewReactive(caasper.DefaultConfig(8), 40)
		if err != nil {
			b.Fatal(err)
		}
		opts.Events = caasper.NewMemorySink()
		if _, err := caasper.Simulate(tr, rec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeasonalNaiveForecast(b *testing.B) {
	hist := make([]float64, 2*1440)
	for i := range hist {
		hist[i] = float64(i % 1440)
	}
	f := caasper.NewSeasonalNaive(1440)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Forecast(hist, 60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHoltWintersForecast(b *testing.B) {
	hist := make([]float64, 6*288)
	for i := range hist {
		hist[i] = 3 + float64(i%288)/100
	}
	f := caasper.NewHoltWinters(0.3, 0.1, 0.2, 288)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Forecast(hist, 60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLiveHour(b *testing.B) {
	demand := caasper.NewTrace("bench", caasper.Workloads["workday12h"](1).Interval,
		caasper.Workloads["workday12h"](1).Values[:60])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := caasper.ScheduleForCores("bench-live", caasper.MixedOLTP(),
			caasper.TracePattern(demand), demand.Duration())
		if err != nil {
			b.Fatal(err)
		}
		rec, err := caasper.NewReactive(caasper.DefaultConfig(6), 40)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := caasper.RunLive(sched, rec, caasper.DatabaseA(4, 6)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlibabaTraceSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := caasper.AlibabaTrace("c_29247", uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommenderMonthTrace drives the reactive recommender's
// observe/decide loop over a full simulated month (43 200 minutes, one
// decision every 10) with no simulator around it — the recommender-only
// cost of a fleet-month replay. With the ring-buffer window and the
// sort-free decision path this loop is allocation-free at steady state
// (see TestMonthReplaySteadyStateAllocs); allocs/op counts only the
// per-op recommender construction.
func BenchmarkRecommenderMonthTrace(b *testing.B) {
	day := caasper.Workloads["workday12h"](1)
	vals := day.Values
	const monthMinutes = 43200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := caasper.NewReactive(caasper.DefaultConfig(16), 40)
		if err != nil {
			b.Fatal(err)
		}
		cur := 6
		for m := 0; m < monthMinutes; m++ {
			rec.Observe(m, vals[m%len(vals)])
			if m%10 == 9 {
				cur = rec.Recommend(cur)
			}
		}
	}
	b.ReportMetric(float64(43200*b.N)/b.Elapsed().Seconds(), "obs_minutes/s")
}

// cpuRange spells CPU-only tenant bounds.
func cpuRange(initial, min, max int) caasper.ResourceRange {
	return caasper.ResourceRange{
		Initial: caasper.Resources{CPUCores: initial},
		Limits: caasper.ResourceLimits{
			Min: caasper.Resources{CPUCores: min},
			Max: caasper.Resources{CPUCores: max},
		},
	}
}

// benchFleetSpecs builds an n-tenant fleet over minutes-long demand traces
// (eight workday-derived variants, shared read-only across tenants) plus a
// cluster of the given node count with 2048 cores in total, enough to host
// one 1-core pod per tenant with scale-up head-room. The cluster is built
// per call: a fleet run binds pods to it.
func benchFleetSpecs(b *testing.B, n, minutes, nodeCount int) ([]caasper.TenantSpec, caasper.FleetOptions) {
	b.Helper()
	const variants = 8
	traces := make([]*caasper.Trace, variants)
	for v := range traces {
		day := caasper.Workloads["workday12h"](uint64(v + 1))
		vals := make([]float64, minutes)
		for i := range vals {
			vals[i] = day.Values[i%len(day.Values)]
		}
		traces[v] = caasper.NewTrace(fmt.Sprintf("wk-%d", v), time.Minute, vals)
	}
	specs := make([]caasper.TenantSpec, n)
	for i := range specs {
		specs[i] = caasper.TenantSpec{
			Name:  fmt.Sprintf("t%04d", i),
			Trace: traces[i%variants],
			NewRecommender: func() (caasper.Recommender, error) {
				return caasper.NewReactive(caasper.DefaultConfig(4), 40)
			},
			Resources:    cpuRange(1, 1, 4),
			Replicas:     1,
			MemGiBPerPod: 1,
		}
	}
	nodes := make([]*k8s.Node, nodeCount)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("bench-node-%02d", i), 2048/nodeCount, float64(8192/nodeCount))
	}
	cluster, err := k8s.NewCluster(nodes...)
	if err != nil {
		b.Fatal(err)
	}
	opts := caasper.DefaultFleetOptions()
	opts.Cluster = cluster
	opts.Minutes = minutes
	return specs, opts
}

// benchFleet runs the shared fleet benchmark body under the given engine
// on nodeCount nodes, reporting tenant_minutes/s.
func benchFleet(b *testing.B, tenants, minutes, nodeCount int, engine string) {
	b.Helper()
	benchFleetFaults(b, tenants, minutes, nodeCount, engine, "", false)
}

// benchFleetFaults is benchFleet under a fault spec ("" runs fault-free)
// with fault seed 1; ndjson attaches the NDJSON event stream, encoding
// into io.Discard.
func benchFleetFaults(b *testing.B, tenants, minutes, nodeCount int, engine, faultSpec string, ndjson bool) {
	b.Helper()
	spec, err := caasper.ParseFaultSpec(faultSpec)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		specs, opts := benchFleetSpecs(b, tenants, minutes, nodeCount)
		opts.Engine = engine
		opts.FaultSpec, opts.FaultSeed = spec, 1
		if ndjson {
			opts.Events = caasper.NewNDJSONSink(io.Discard)
		}
		if _, err := caasper.RunFleet(specs, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tenants*minutes*(i+1))/b.Elapsed().Seconds(), "tenant_minutes/s")
	}
}

// BenchmarkFleetTick measures the fleet controller's steady tick cost at
// 1000 tenants: one op replays a 1-hour horizon (60 000 tenant-minutes),
// exercising the segment-batched observe phase and the sequential
// arbitration phase.
func BenchmarkFleetTick(b *testing.B) {
	benchFleet(b, 1000, 60, 32, caasper.FleetEngineStepped)
}

// BenchmarkFleetTickChaos is BenchmarkFleetTick under the fleet golden's
// fault spec: every tenant-minute makes a metrics-gap draw and every
// restart completion a restart-fail draw, so the fault layer's per-draw
// cost sits on the hot path.
func BenchmarkFleetTickChaos(b *testing.B) {
	benchFleetFaults(b, 1000, 60, 32, caasper.FleetEngineStepped, fleetChaosSpec, false)
}

// BenchmarkFleetTickChaosNDJSON is BenchmarkFleetTickChaos with the
// NDJSON event stream attached, encoding into io.Discard: the enabled
// telemetry path of the fleet and fault layers (fleet.* and fault.*
// events built in reused field buffers, per-tenant fault buffers replayed
// at the end). B/op is reported even without -benchmem. The
// BenchmarkFleetTick filter of scripts/bench.sh and the
// BenchmarkFleetTickChaos filter of the scripts/check.sh smoke both
// match it.
func BenchmarkFleetTickChaosNDJSON(b *testing.B) {
	b.ReportAllocs()
	benchFleetFaults(b, 1000, 60, 32, caasper.FleetEngineStepped, fleetChaosSpec, true)
}

// fleetChaosSpec is the fleet golden's fault spec (scripts/fleet.sh).
const fleetChaosSpec = "restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4"

// BenchmarkFleetTickEvents is BenchmarkFleetTick under the discrete-event
// engine. The workday traces are noisy (minute-length constant runs), so
// this bounds the event engine's overhead on its worst-case input rather
// than showing its best case — see BenchmarkFleetMonth100k for that.
func BenchmarkFleetTickEvents(b *testing.B) {
	benchFleet(b, 1000, 60, 32, caasper.FleetEngineEvents)
}

// BenchmarkFleetWeek1k is a headline scale demonstration: 1000 tenants
// replayed over one full week (10.08 M tenant-minutes per op). heap_sys_MB
// reports the Go heap footprint after the run — with O(window) recommender
// state it stays bounded by the traces and per-tenant fixtures, not the
// replay length.
func BenchmarkFleetWeek1k(b *testing.B) {
	benchFleet(b, 1000, 7*24*60, 32, caasper.FleetEngineStepped)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Sys)/(1<<20), "heap_sys_MB")
}

// BenchmarkFleetWeek1kEvents is BenchmarkFleetWeek1k under the
// discrete-event engine (same noisy-trace caveat as
// BenchmarkFleetTickEvents).
func BenchmarkFleetWeek1kEvents(b *testing.B) {
	benchFleet(b, 1000, 7*24*60, 32, caasper.FleetEngineEvents)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Sys)/(1<<20), "heap_sys_MB")
}

// BenchmarkFleetWeek1kEventsOneGroup is BenchmarkFleetWeek1kEvents with
// every tenant on one wide node of the same total capacity: the fleet is
// a single shard group, so the events engine fans phase 1 out over the
// workers inside it instead of across groups.
func BenchmarkFleetWeek1kEventsOneGroup(b *testing.B) {
	benchFleet(b, 1000, 7*24*60, 1, caasper.FleetEngineEvents)
}

// benchMonthSpecs builds the 100 000-tenant month fleet: 24 shared
// piecewise-constant day-shaped traces (a 9-hour busy plateau over a quiet
// baseline, phase-staggered per variant, two inflections per day) and a
// cluster sized for one pod per tenant with scale-up head-room. The levels
// are chosen so each plateau has a fixed-point limit inside the
// recommender's hold band: tenants resize once per inflection, then sleep
// until the next one — the discrete-event engine's intended regime.
func benchMonthSpecs(b *testing.B, n, minutes int) ([]caasper.TenantSpec, caasper.FleetOptions) {
	b.Helper()
	const variants = 24
	traces := make([]*caasper.Trace, variants)
	for v := range traces {
		low := 0.5 + 0.05*float64(v%8)
		high := 2.2 + 0.06*float64(v%8)
		// Plateau edges land one minute after a decision tick, staggered
		// per variant: a woken tenant then sees nine new-level samples at
		// its first tick instead of one, minimising ticks spent mixed.
		start := (421 + 40*v) % 1440
		vals := make([]float64, minutes)
		for m := range vals {
			mm := m % 1440
			busy := mm-start >= 0 && mm-start < 540 ||
				mm+1440-start < 540 // plateau wraps past midnight
			if busy {
				vals[m] = high
			} else {
				vals[m] = low
			}
		}
		traces[v] = caasper.NewTrace(fmt.Sprintf("month-%02d", v), time.Minute, vals)
	}
	specs := make([]caasper.TenantSpec, n)
	for i := range specs {
		specs[i] = caasper.TenantSpec{
			Name:  fmt.Sprintf("t%05d", i),
			Trace: traces[i%variants],
			NewRecommender: func() (caasper.Recommender, error) {
				// A 20-minute window re-saturates two decision ticks after
				// each inflection, bounding the awake ticks per plateau.
				return caasper.NewReactive(caasper.DefaultConfig(4), 20)
			},
			Resources:    cpuRange(1, 1, 4),
			Replicas:     1,
			MemGiBPerPod: 1,
		}
	}
	nodes := make([]*k8s.Node, 128)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("bench-node-%03d", i), 4096, 8192)
	}
	cluster, err := k8s.NewCluster(nodes...)
	if err != nil {
		b.Fatal(err)
	}
	opts := caasper.DefaultFleetOptions()
	opts.Cluster = cluster
	opts.Minutes = minutes
	// Daily billing periods keep the per-tenant metering state at 30
	// periods over the month instead of 720.
	opts.BillingPeriod = 24 * time.Hour
	return specs, opts
}

// BenchmarkFleetMonth100k is the discrete-event engine's headline: 100 000
// tenants replayed over a full month (4.32 B tenant-minutes per op). The
// stepped engine executes every tenant every minute; the event engine wakes
// each tenant only around its two daily inflections and sleeps it through
// the plateaus, so the month completes in well under a minute on one
// machine. (The stepped engine on this configuration is ~2 orders of
// magnitude slower — run it via `caasper-fleet -engine stepped` if you want
// the direct comparison.)
func BenchmarkFleetMonth100k(b *testing.B) {
	const tenants, minutes = 100_000, 43_200
	for i := 0; i < b.N; i++ {
		specs, opts := benchMonthSpecs(b, tenants, minutes)
		opts.Engine = caasper.FleetEngineEvents
		if _, err := caasper.RunFleet(specs, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tenants)*minutes*float64(i+1)/b.Elapsed().Seconds(), "tenant_minutes/s")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Sys)/(1<<20), "heap_sys_MB")
}

// BenchmarkFleetMonth10k is the core-scaling probe: the same month
// workload at a tenth the tenants, small enough to repeat at several
// -cpu values (scripts/bench.sh runs it at -cpu 1,4,8 and keeps each
// GOMAXPROCS variant as its own row). Under the default Sharding auto
// the 128 bench nodes split the fleet into node-disjoint shard groups
// that run concurrently, so tenant_minutes/s should track cores until
// the sequential merge becomes the bottleneck (Amdahl's ceiling).
func BenchmarkFleetMonth10k(b *testing.B) {
	const tenants, minutes = 10_000, 43_200
	for i := 0; i < b.N; i++ {
		specs, opts := benchMonthSpecs(b, tenants, minutes)
		opts.Engine = caasper.FleetEngineEvents
		if _, err := caasper.RunFleet(specs, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tenants)*minutes*float64(i+1)/b.Elapsed().Seconds(), "tenant_minutes/s")
	}
}

func BenchmarkRandomSearch(b *testing.B) {
	tr := caasper.Workloads["workday12h"](1)
	opts := caasper.DefaultSimOptions(6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := caasper.RandomSearch(tr, caasper.TuningOptions{
			Samples: 10, Seed: uint64(i + 1), Sim: &opts, SeasonMinutes: 720,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeIngest drives the recommender service's HTTP ingest path
// end to end — NDJSON batch POSTs through the real handler stack into
// the shard queues, decisions firing at the default cadence — and
// reports sustained samples/minute (the serve throughput figure).
func BenchmarkServeIngest(b *testing.B) {
	srv, err := caasper.NewServer(caasper.ServeOptions{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	const tenants = 8
	const batchSamples = 60
	for i := 0; i < tenants; i++ {
		req, _ := http.NewRequest(http.MethodPut,
			fmt.Sprintf("%s/v1/tenants/t%02d", ts.URL, i),
			strings.NewReader(`{"policy":"caasper","max_cores":16,"initial_cores":2}`))
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("register: %s", resp.Status)
		}
	}
	tr := caasper.Workloads["workday12h"](1)
	var body strings.Builder
	for s := 0; s < batchSamples; s++ {
		fmt.Fprintf(&body, "{\"cpu\":%.4f}\n", tr.At(s))
	}
	batch := body.String()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("%s/v1/tenants/t%02d/samples", ts.URL, i%tenants)
		for {
			resp, err := client.Post(url, "application/x-ndjson", strings.NewReader(batch))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				b.Fatalf("post: %s", resp.Status)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batchSamples/b.Elapsed().Minutes(), "samples/min")
}
