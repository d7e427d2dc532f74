// Command caasper-fleet autoscales a fleet of tenants — each a stateful
// set, a recommender and a synthetic demand trace — concurrently against
// ONE shared Kubernetes cluster, with the capacity arbiter resolving
// simultaneous scale-ups that would oversubscribe a node. Results and the
// "fleet.*" event stream are byte-identical at every -workers value.
//
// Examples:
//
//	caasper-fleet -tenants 16 -minutes 240
//	caasper-fleet -tenants 8 -recommender caasper,vpa -cluster small
//	caasper-fleet -tenants 16 -minutes 240 -workers 8 -events fleet.ndjson
//	caasper-fleet -tenants 100000 -minutes 43200 -engine events
//	caasper-fleet -tenants 1000 -minutes 10080 -cpuprofile fleet.pprof
//
// Chaos runs inject deterministic faults into every tenant plus
// fleet-wide scheduling pressure (fault times are in minutes, the fleet's
// tick):
//
//	caasper-fleet -tenants 4 -faults "restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4" -fault-seed 7
//
// A -resources vector upgrades every tenant to multi-resource scaling —
// RAM under the dual-threshold policy, grow-only disk, and (with a
// replicas range) vertical-first horizontal overflow for stateless tiers:
//
//	caasper-fleet -tenants 8 -resources "ram=4-16,disk=5-40"
//	caasper-fleet -tenants 8 -resources "ram=4-16,replicas=1-4" -faults "mem-pressure:p=0.3:gb=3"
//
// With -target the binary becomes a load generator instead: it registers
// its tenants against a running caasper-serve instance and replays their
// traces as NDJSON sample batches, reporting ingest throughput and
// decision-latency percentiles:
//
//	caasper-fleet -target http://127.0.0.1:8080 -tenants 32 -minutes 1440
package main

import (
	"flag"
	"fmt"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"caasper"
	"caasper/internal/faults"
	"caasper/internal/obs"
)

func main() {
	var (
		tenantCount  = flag.Int("tenants", 16, "number of tenants in the fleet")
		workloads    = flag.String("workloads", "workday12h,cyclical3d,step62h,customer", "comma-separated workload names cycled across tenants")
		recNames     = flag.String("recommender", "caasper", "recommender name(s), cycled across tenants: caasper, caasper-proactive, vpa, openshift, autopilot, control")
		minutes      = flag.Int("minutes", 0, "simulated minutes (0: until the shortest trace ends)")
		clusterName  = flag.String("cluster", "large", "shared cluster: small (6×8c) or large (6×16c)")
		replicas     = flag.Int("replicas", 1, "replicas per tenant stateful set")
		memGiB       = flag.Float64("mem", 2, "memory GiB per pod (scheduling only)")
		initial      = flag.Int("initial", 2, "initial cores per tenant")
		minCores     = flag.Int("min", 2, "per-tenant core floor")
		maxCores     = flag.Int("max", 0, "per-tenant core ceiling (default: trace peak * 1.5 + 2)")
		decisionInt  = flag.Int("decision-interval", 10, "minutes between decisions")
		workers      = flag.Int("workers", 0, "worker goroutines for the observe/decide phase (default: GOMAXPROCS; results identical at any value)")
		seed         = flag.Uint64("seed", 1, "workload seed base (tenant i uses seed+i)")
		faultSpecStr = flag.String("faults", "", `fault-injection spec, e.g. "restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4" (times in minutes; empty: fault-free)`)
		faultSeed    = flag.Uint64("fault-seed", 1, "fault-injection seed (same seed, same faults, byte-identical stream)")
		engine       = flag.String("engine", "stepped", "tick engine: stepped (minute-by-minute reference) or events (discrete-event wake queue; byte-identical output)")
		sharding     = flag.String("sharding", "auto", "events-engine shard grouping: auto (run node-disjoint tenant groups concurrently) or off (all tenants in one group; byte-identical output)")
		resourceSpec = flag.String("resources", "", `resource-vector spec applied to every tenant, e.g. "ram=4-16,disk=5-40" or "ram=4-32,replicas=1-4" (a replicas range marks the tenants stateless for horizontal overflow; requires the stepped engine; CPU bounds come from -initial/-min/-max, a cpu= entry is an error)`)
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the fleet run to this file")
		target       = flag.String("target", "", "load-generator mode: replay traces against a caasper-serve URL instead of simulating")
		batchSize    = flag.Int("batch", 60, "samples per POST in -target mode")
		conns        = flag.Int("conns", 8, "concurrent posters in -target mode")
	)
	var cli obs.CLIConfig
	cli.Register(flag.CommandLine)
	flag.Parse()

	session, err := cli.Start()
	if err != nil {
		fatal(err)
	}
	defer session.Finish(os.Stdout)

	if _, err := obs.StartPprof(*pprofAddr, session.Log); err != nil {
		fatal(err)
	}

	// Graceful SIGINT/SIGTERM: an interrupted run flushes its -events
	// NDJSON sink instead of truncating the audit stream mid-event.
	session.FlushOnSignal(os.Stdout, "caasper-fleet")

	if *tenantCount < 1 {
		fatal(fmt.Errorf("-tenants must be ≥ 1"))
	}
	wnames := splitList(*workloads)
	rnames := splitList(*recNames)
	if len(wnames) == 0 || len(rnames) == 0 {
		fatal(fmt.Errorf("-workloads and -recommender must be non-empty"))
	}

	if *target != "" {
		err := runLoadgen(loadgenConfig{
			target:    *target,
			tenants:   *tenantCount,
			samples:   *minutes,
			batch:     *batchSize,
			conns:     *conns,
			policy:    rnames[0],
			workloads: wnames,
			seed:      *seed,
			maxCores:  *maxCores,
		}, session)
		if err != nil {
			fatal(err)
		}
		return
	}

	var rr caasper.ResourceRange
	if *resourceSpec != "" {
		rr, err = caasper.ParseResourceSpec(*resourceSpec)
		if err != nil {
			fatal(err)
		}
		if rr.Max.CPUCores > 0 {
			fatal(fmt.Errorf("-resources %q: set CPU bounds with -initial/-min/-max, not a cpu= entry: %w", *resourceSpec, caasper.ErrInvalidConfig))
		}
	}

	tenants := make([]caasper.TenantSpec, 0, *tenantCount)
	for i := 0; i < *tenantCount; i++ {
		wname := wnames[i%len(wnames)]
		gen, ok := caasper.Workloads[wname]
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", wname))
		}
		tr := gen(*seed + uint64(i))
		maxC := *maxCores
		if maxC == 0 {
			maxC = int(tr.Summarize().Max*1.5) + 2
		}
		rname := rnames[i%len(rnames)]
		// -initial/-min/-max set the CPU bounds; -resources adds the rest.
		trr := rr
		trr.Initial.CPUCores, trr.Min.CPUCores, trr.Max.CPUCores = *initial, *minCores, maxC
		tenants = append(tenants, caasper.TenantSpec{
			Name:  fmt.Sprintf("t%02d", i),
			Trace: tr,
			NewRecommender: func() (caasper.Recommender, error) {
				return caasper.NewRecommenderByName(rname, caasper.RecommenderSettings{MaxCores: maxC})
			},
			Replicas:     *replicas,
			MemGiBPerPod: *memGiB,
			Resources:    trr,
			Stateless:    rr.Max.Replicas > 0,
		})
	}

	opts := caasper.DefaultFleetOptions()
	opts.Minutes = *minutes
	opts.DecisionEveryMinutes = *decisionInt
	opts.Workers = *workers
	opts.Events = session.Events
	opts.Metrics = session.Metrics
	switch *clusterName {
	case "small":
		opts.Cluster = caasper.SmallCluster()
	case "large":
		opts.Cluster = caasper.LargeCluster()
	default:
		fatal(fmt.Errorf("unknown cluster %q (small or large)", *clusterName))
	}
	spec, err := caasper.ParseFaultSpec(*faultSpecStr)
	if err != nil {
		fatal(err)
	}
	opts.FaultSpec = spec
	opts.FaultSeed = *faultSeed
	opts.Engine = *engine
	opts.Sharding = *sharding

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	fmt.Printf("fleet: %d tenants on the %s cluster (workloads %s; policies %s; %s engine)\n",
		len(tenants), *clusterName, strings.Join(wnames, ","), strings.Join(rnames, ","), *engine)
	start := time.Now()
	res, err := caasper.RunFleet(tenants, opts)
	if err != nil {
		fatal(err)
	}
	session.Log.Infof("fleet run: %d minutes in %v", res.Minutes, time.Since(start).Round(time.Millisecond))

	fmt.Println()
	fmt.Print(res.Summary())
	if !spec.Empty() {
		var agg caasper.FaultCounts
		for _, t := range res.Tenants {
			agg.RestartFails += t.FaultCounts.RestartFails
			agg.RestartStucks += t.FaultCounts.RestartStucks
			agg.MetricsGaps += t.FaultCounts.MetricsGaps
			agg.MemPressureWindows += t.FaultCounts.MemPressureWindows
		}
		agg.PressureWindows = res.PressureWindows
		fmt.Println()
		fmt.Print(faults.Summarize(spec, *faultSeed, agg))
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caasper-fleet:", err)
	os.Exit(1)
}
