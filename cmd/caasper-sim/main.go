// Command caasper-sim replays a CPU demand trace through a pluggable
// vertical-autoscaling recommender using the paper's §5 trace-driven
// simulator and reports the K/C/N metrics, throttled-observation share,
// throughput proxy and pay-as-you-go cost.
//
// Examples:
//
//	caasper-sim -workload step62h -recommender caasper -initial 14 -max 14
//	caasper-sim -workload cyclical3d -recommender caasper-proactive -season 1440
//	caasper-sim -alibaba c_29247 -recommender vpa
//	caasper-sim -trace usage.csv -recommender openshift -max 16
//
// A comma-separated -recommender list replays the trace once per policy
// across a worker pool and prints the comparison table instead:
//
//	caasper-sim -workload cyclical3d -recommender caasper,vpa,autopilot -workers 4
//
// A -resources vector adds RAM (dual-threshold policy), grow-only disk
// and their bills on top of the unchanged CPU replay:
//
//	caasper-sim -workload workday12h -recommender caasper -resources ram=4-16
//	caasper-sim -workload cyclical3d -resources "ram=4-32,disk=20-100"
//
// Chaos runs inject deterministic faults into every replay (fault times
// are in simulated minutes here, the simulator's tick):
//
//	caasper-sim -workload workday12h -recommender caasper,vpa \
//	    -faults "restart-fail:p=0.2,metrics-gap:p=0.05" -fault-seed 7
//	caasper-sim -workload workday12h -resources ram=4-16 \
//	    -faults "mem-pressure:p=0.3:gb=4" -fault-seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"caasper"
	"caasper/internal/obs"
	"caasper/internal/sim"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "synthetic workload name (step62h, workday12h, cyclical3d, customer, ...)")
		alibabaID    = flag.String("alibaba", "", "alibaba-style trace id (c_1, c_4043, ...)")
		traceFile    = flag.String("trace", "", "CSV trace file (index,cpu_cores) at 1-minute resolution")
		recName      = flag.String("recommender", "caasper", "recommender (comma-separate several for a comparison matrix): caasper, caasper-proactive, vpa, openshift, autopilot, control")
		initial      = flag.Int("initial", 0, "initial core allocation (default: trace peak + 1)")
		maxCores     = flag.Int("max", 0, "SKU ladder maximum (default: trace peak * 1.5 + 2)")
		controlAt    = flag.Int("control-cores", 0, "fixed allocation for -recommender control (default: initial)")
		window       = flag.Int("window", 40, "reactive decision window in minutes")
		horizon      = flag.Int("horizon", 60, "proactive forecast horizon in minutes")
		season       = flag.Int("season", 1440, "seasonal-naive period in minutes")
		decisionInt  = flag.Int("decision-interval", 10, "minutes between decisions")
		resizeDelay  = flag.Int("resize-delay", 10, "minutes for a resize to take effect")
		seed         = flag.Uint64("seed", 1, "workload seed")
		resourceSpec = flag.String("resources", "", `resource-vector spec enabling the multi-resource simulator, e.g. "ram=4-16" or "ram=4-32,disk=20-100" (CPU bounds come from -initial/-max; a cpu= entry is an error)`)
		faultSpec    = flag.String("faults", "", `fault-injection spec, e.g. "restart-fail:p=0.2,metrics-gap:p=0.05" (times in minutes; empty: fault-free)`)
		faultSeed    = flag.Uint64("fault-seed", 1, "fault-injection seed (same seed, same faults, byte-identical stream)")
		workers      = flag.Int("workers", 0, "worker goroutines for multi-recommender runs (default: GOMAXPROCS)")
		plot         = flag.Bool("plot", true, "print an ASCII chart of limits vs usage")
		explain      = flag.Bool("explain", false, "print each resize's decision explanation (CaaSPER recommenders)")
	)
	var cli obs.CLIConfig
	cli.Register(flag.CommandLine)
	flag.Parse()

	session, err := cli.Start()
	if err != nil {
		fatal(err)
	}
	defer session.Finish(os.Stdout)
	session.FlushOnSignal(os.Stdout, "caasper-sim")

	tr, err := loadTrace(*workloadName, *alibabaID, *traceFile, *seed)
	if err != nil {
		fatal(err)
	}
	session.Log.Infof("loaded trace %s: %d minutes", tr.Name, tr.Len())
	peak := tr.Summarize().Max
	if *maxCores == 0 {
		*maxCores = int(peak*1.5) + 2
	}
	if *initial == 0 {
		*initial = int(peak) + 1
		if *initial > *maxCores {
			*initial = *maxCores
		}
	}
	if *controlAt == 0 {
		*controlAt = *initial
	}

	opts := caasper.DefaultSimOptions(*initial, *maxCores)
	opts.DecisionEveryMinutes = *decisionInt
	opts.ResizeDelayMinutes = *resizeDelay
	opts.Workers = *workers
	opts.Events = session.Events
	opts.Metrics = session.Metrics
	spec, err := caasper.ParseFaultSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	opts.FaultSpec = spec
	opts.FaultSeed = *faultSeed
	if *resourceSpec != "" {
		rr, err := vectorResources(*resourceSpec, opts.Resources)
		if err != nil {
			fatal(err)
		}
		opts.Resources = rr
	}
	vector := opts.Resources.Multi()

	recNames := splitList(*recName)
	if len(recNames) == 0 {
		fatal(fmt.Errorf("no recommender given"))
	}
	if vector && len(recNames) > 1 {
		fatal(fmt.Errorf("-resources with non-CPU dimensions needs a single -recommender (the comparison matrix is CPU-only)"))
	}
	if len(recNames) > 1 {
		// Comparison mode: one simulation per policy, fanned out across
		// the worker pool, reported as the standard matrix table.
		factories := make([]sim.RecommenderFactory, 0, len(recNames))
		for _, name := range recNames {
			name := name
			factories = append(factories, sim.RecommenderFactory{
				Name: name,
				New: func() (caasper.Recommender, error) {
					return buildRecommender(name, *maxCores, *controlAt, *window, *horizon, *season)
				},
			})
		}
		m, err := sim.RunMatrix([]*caasper.Trace{tr}, factories, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %s (%d minutes, peak %.2f cores)\n\n", tr.Name, tr.Len(), peak)
		fmt.Print(m.Summary())
		return
	}

	rec, err := buildRecommender(recNames[0], *maxCores, *controlAt, *window, *horizon, *season)
	if err != nil {
		fatal(err)
	}

	var res *caasper.SimResult
	var vres *caasper.VectorSimResult
	if vector {
		vres, err = caasper.SimulateVector(tr, rec, opts)
		if err != nil {
			fatal(err)
		}
		res = vres.Result
	} else {
		res, err = caasper.Simulate(tr, rec, opts)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("trace:        %s (%d minutes, peak %.2f cores)\n", res.TraceName, res.Minutes, peak)
	fmt.Printf("recommender:  %s\n", res.Recommender)
	fmt.Printf("sum slack K:        %.1f core-minutes (avg %.3f)\n", res.SumSlack, res.AvgSlack)
	fmt.Printf("sum insufficient C: %.1f core-minutes (avg %.4f)\n", res.SumInsufficient, res.AvgInsufficient)
	fmt.Printf("num scalings N:     %d\n", res.NumScalings)
	fmt.Printf("throttled obs:      %.2f%%\n", res.ThrottledPct*100)
	fmt.Printf("throughput proxy:   %.1f%%\n", res.ThroughputProxy()*100)
	fmt.Printf("billed core-hours:  %.0f\n", res.BilledCorePeriods)
	if vres != nil {
		if vres.FinalRAMGB > 0 {
			fmt.Printf("ram:                %d GB final, %d scalings, %d OOM-minutes (short %.1f GB-min), %.0f GB-hours billed\n",
				vres.FinalRAMGB, vres.RAMScalings, vres.OOMMinutes, vres.RAMShortGBMin, vres.BilledRAMGBPeriods)
		}
		if vres.FinalDiskGB > 0 {
			fmt.Printf("disk:               %d GB final, %d grow steps, %d disk-full minutes, %.0f GB-hours billed\n",
				vres.FinalDiskGB, vres.DiskScalings, vres.DiskFullMinutes, vres.BilledDiskGBPeriods)
		}
		fmt.Printf("vector cost:        %.2f (cpu %.2f + ram %.2f + disk %.2f at default rates)\n",
			vres.TotalCost(),
			res.BilledCorePeriods*caasper.DefaultBillingRates().CPUCorePeriod,
			vres.BilledRAMGBPeriods*caasper.DefaultBillingRates().RAMGBPeriod,
			vres.BilledDiskGBPeriods*caasper.DefaultBillingRates().DiskGBPeriod)
	}
	if !spec.Empty() {
		c := res.FaultCounts
		fmt.Printf("chaos: spec=%s seed=%d\n", spec, *faultSeed)
		fmt.Printf("  resizes aborted (restart-fail): %d\n", res.AbortedScalings)
		fmt.Printf("  restarts stuck:                 %d\n", c.RestartStucks)
		fmt.Printf("  metric samples dropped:         %d\n", c.MetricsGaps)
		fmt.Printf("  scheduling-pressure windows:    %d\n", c.PressureWindows)
		if vres != nil {
			fmt.Printf("  memory-pressure windows:        %d\n", vres.MemPressureWindows)
		}
	}
	if len(res.Decisions) > 0 {
		fmt.Printf("scalings:\n")
		for _, d := range res.Decisions {
			fmt.Printf("  t=%5dm  %2d -> %2d cores (effective t=%dm)\n", d.Minute, d.From, d.To, d.EffectiveAt)
			if *explain && d.Explanation != "" {
				fmt.Printf("           %s\n", d.Explanation)
			}
		}
	}
	if *plot {
		fmt.Println()
		fmt.Println(asciiChart(res.Demand, res.Limits, 72, 14))
	}
}

func loadTrace(workloadName, alibabaID, traceFile string, seed uint64) (*caasper.Trace, error) {
	switch {
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return caasper.ReadTraceCSV(f, traceFile, time.Minute)
	case alibabaID != "":
		return caasper.AlibabaTrace(alibabaID, seed)
	case workloadName != "":
		gen, ok := caasper.Workloads[workloadName]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (known: %s)", workloadName, knownWorkloads())
		}
		return gen(seed), nil
	default:
		return nil, fmt.Errorf("one of -workload, -alibaba or -trace is required (workloads: %s)", knownWorkloads())
	}
}

// vectorResources parses a -resources spec and completes it with the
// CPU bounds of cpu (set by -initial/-max). A cpu= entry is rejected
// rather than silently overwritten: the flags own the CPU dimension.
func vectorResources(spec string, cpu caasper.ResourceRange) (caasper.ResourceRange, error) {
	rr, err := caasper.ParseResourceSpec(spec)
	if err != nil {
		return rr, err
	}
	if rr.Max.CPUCores > 0 {
		return rr, fmt.Errorf("-resources %q: set CPU bounds with -initial/-max, not a cpu= entry: %w", spec, caasper.ErrInvalidConfig)
	}
	rr.Initial.CPUCores, rr.Min.CPUCores, rr.Max.CPUCores = cpu.Initial.CPUCores, cpu.Min.CPUCores, cpu.Max.CPUCores
	return rr, nil
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

func knownWorkloads() string {
	names := make([]string, 0, len(caasper.Workloads))
	for n := range caasper.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func buildRecommender(name string, maxCores, controlAt, window, horizon, season int) (caasper.Recommender, error) {
	return caasper.NewRecommenderByName(name, caasper.RecommenderSettings{
		MaxCores:     maxCores,
		Window:       window,
		Horizon:      horizon,
		Season:       season,
		ControlCores: controlAt,
	})
}

// asciiChart renders demand (·) and limits (#) as a downsampled chart.
func asciiChart(demand, limits []float64, width, height int) string {
	if len(demand) == 0 {
		return ""
	}
	maxV := 0.0
	for i := range demand {
		if demand[i] > maxV {
			maxV = demand[i]
		}
		if limits[i] > maxV {
			maxV = limits[i]
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	bucket := (len(demand) + width - 1) / width
	cols := (len(demand) + bucket - 1) / bucket
	dOut := make([]float64, cols)
	lOut := make([]float64, cols)
	for c := 0; c < cols; c++ {
		lo, hi := c*bucket, (c+1)*bucket
		if hi > len(demand) {
			hi = len(demand)
		}
		for i := lo; i < hi; i++ {
			if demand[i] > dOut[c] {
				dOut[c] = demand[i]
			}
			if limits[i] > lOut[c] {
				lOut[c] = limits[i]
			}
		}
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	rowFor := func(v float64) int {
		r := height - 1 - int(v/maxV*float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	for c := 0; c < cols; c++ {
		grid[rowFor(dOut[c])][c] = '.'
		grid[rowFor(lOut[c])][c] = '#'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cores (max %.1f)   '#' = limits, '.' = demand\n", maxV)
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caasper-sim:", err)
	os.Exit(1)
}
