// Extensions: the paper's §8 future-work items, implemented and runnable.
//
//  1. In-place pod resize — resizes with no restarts, no dropped
//     connections, no failovers (§2.2 fn.4, §6.2 fn.10).
//
//  2. Multi-resource scaling — the resource vector: CaaSPER scales CPU
//     while the dual-threshold memory policy right-sizes RAM in the same
//     run.
//
//  3. Forecast-confidence prefilter and ensemble forecasting for the
//     proactive mode (§4.3).
//
//     go run ./examples/extensions
package main

import (
	"fmt"
	"log"
	"time"

	"caasper"
)

func main() {
	inPlaceDemo()
	multiResourceDemo()
	ensembleDemo()
}

func inPlaceDemo() {
	fmt.Println("── 1. in-place resize vs rolling update ──────────────────────")
	demand := caasper.Workloads["workday12h"](9)
	short := caasper.NewTrace("3h", time.Minute, demand.Values[:180])
	sched, err := caasper.ScheduleForCores("inplace-demo", caasper.MixedOLTP(),
		caasper.TracePattern(short), 3*time.Hour)
	if err != nil {
		log.Fatal(err)
	}

	run := func(inPlace bool) *caasper.LiveResult {
		rec, err := caasper.NewReactive(caasper.DefaultConfig(6), 30)
		if err != nil {
			log.Fatal(err)
		}
		opts := caasper.DatabaseA(2, 6)
		opts.InPlaceResize = inPlace
		res, err := caasper.RunLive(sched, rec, opts)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	rolling := run(false)
	inPlace := run(true)
	fmt.Printf("%-16s %12s %12s %10s\n", "mode", "interrupted", "failovers", "resizes")
	fmt.Printf("%-16s %12.0f %12d %10d\n", "rolling", rolling.DB.InterruptedTxns, rolling.Failovers, rolling.NumScalings)
	fmt.Printf("%-16s %12.0f %12d %10d\n", "in-place", inPlace.DB.InterruptedTxns, inPlace.Failovers, inPlace.NumScalings)
	fmt.Println()
}

func multiResourceDemo() {
	fmt.Println("── 2. multi-resource scaling (CPU + RAM) ─────────────────────")
	// CPU is pinned at its 4-core cap while RAM idles at 12 of 48 GB.
	const minutes = 180
	cpu := make([]float64, minutes)
	ram := make([]float64, minutes)
	for i := range cpu {
		cpu[i], ram[i] = 4, 12
	}
	rec, err := caasper.NewReactive(caasper.DefaultConfig(16), 30)
	if err != nil {
		log.Fatal(err)
	}
	opts := caasper.DefaultSimOptions(4, 16)
	opts.Resources = caasper.ResourceRange{
		Initial: caasper.Resources{CPUCores: 4, RAMGB: 48},
		Limits: caasper.ResourceLimits{
			Min: caasper.Resources{CPUCores: 4, RAMGB: 8},
			Max: caasper.Resources{CPUCores: 16, RAMGB: 64},
		},
	}
	opts.RAMTrace = caasper.NewTrace("ram", time.Minute, ram)
	res, err := caasper.SimulateVector(caasper.NewTrace("cpu", time.Minute, cpu), rec, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cpu     %2d -> %2d\n", 4, int(res.Limits[len(res.Limits)-1]))
	fmt.Printf("ram_gb  %2d -> %2d (%d OOM minutes)\n", 48, res.FinalRAMGB, res.OOMMinutes)
	fmt.Println()
}

func ensembleDemo() {
	fmt.Println("── 3. ensemble forecasting + confidence intervals ────────────")
	// Two days of a daily cycle at one-minute resolution.
	hist := make([]float64, 2*1440)
	for i := range hist {
		hist[i] = 3
		if m := i % 1440; m >= 600 && m < 720 {
			hist[i] = 9 // daily two-hour surge
		}
	}
	ensemble := caasper.NewEnsemble(caasper.EnsembleMax,
		caasper.NewSeasonalNaive(1440),
		caasper.NewMovingAverage(120),
	)
	pred, err := ensemble.Forecast(hist, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s next-hour forecast: first %.1f cores, max %.1f cores\n",
		ensemble.Name(), pred[0], maxOf(pred))

	rec, err := caasper.NewProactive(caasper.DefaultConfig(12), ensemble, 40, 60, 1440)
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range hist {
		rec.Observe(i, v)
	}
	target := rec.Recommend(4)
	fmt.Printf("proactive recommendation with the ensemble at minute %d: %d -> %d cores\n",
		len(hist), 4, target)
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
