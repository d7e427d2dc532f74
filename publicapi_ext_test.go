package caasper

import (
	"testing"
	"time"
)

// Tests for the public surface of the paper-§8 extensions: interval
// forecasting, ensembles and in-place resizes.

func TestPublicIntervalForecaster(t *testing.T) {
	f := NewIntervalSeasonalNaive(60)
	hist := make([]float64, 180)
	for i := range hist {
		hist[i] = float64(i % 60)
	}
	pred, err := f.Forecast(hist, 10)
	if err != nil || len(pred) != 10 {
		t.Fatalf("forecast: %v %v", pred, err)
	}
}

func TestPublicEnsemble(t *testing.T) {
	e := NewEnsemble(EnsembleMax, NewSeasonalNaive(30), NewMovingAverage(10))
	hist := make([]float64, 90)
	for i := range hist {
		hist[i] = 2 + float64(i%30)/10
	}
	pred, err := e.Forecast(hist, 15)
	if err != nil || len(pred) != 15 {
		t.Fatalf("ensemble: %v %v", pred, err)
	}
	for _, mode := range []EnsembleMode{EnsembleMean, EnsembleMedian} {
		e := NewEnsemble(mode, NewSeasonalNaive(30))
		if _, err := e.Forecast(hist, 5); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

func TestPublicInPlaceResize(t *testing.T) {
	demand := Workloads["workday12h"](4)
	short := NewTrace("short", time.Minute, demand.Values[:120])
	sched, err := ScheduleForCores("ip", MixedOLTP(), TracePattern(short), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewReactive(DefaultConfig(6), 30)
	if err != nil {
		t.Fatal(err)
	}
	opts := DatabaseA(2, 6)
	opts.InPlaceResize = true
	res, err := RunLive(sched, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.InterruptedTxns != 0 || res.Failovers != 0 {
		t.Errorf("in-place run interrupted %v txns, %d failovers; want zero",
			res.DB.InterruptedTxns, res.Failovers)
	}
}

func TestPublicProactiveLongSoak(t *testing.T) {
	// Soak: 8 days of a daily cycle through the proactive recommender;
	// the limit series must stay stable (no runaway growth or collapse).
	if testing.Short() {
		t.Skip("soak")
	}
	tr, err := AlibabaTrace("c_1", 3)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewProactive(DefaultConfig(12), NewSeasonalNaive(1440), 40, 60, 1440)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, rec, DefaultSimOptions(9, 12))
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: limits bounded, some but not absurd scaling, low throttle.
	for _, l := range res.Limits {
		if l < 2 || l > 12 {
			t.Fatalf("limit %v escaped bounds", l)
		}
	}
	if res.NumScalings == 0 || res.NumScalings > 1200 {
		t.Errorf("scalings = %d", res.NumScalings)
	}
	if res.ThrottledPct > 0.08 {
		t.Errorf("throttled = %v", res.ThrottledPct)
	}
	// The last day's limit pattern should track the first full
	// post-warm-up day's (stable seasonal behaviour).
	day := 24 * 60
	lastDayAvg := mean(res.Limits[7*day:])
	secondDayAvg := mean(res.Limits[1*day : 2*day])
	if lastDayAvg > secondDayAvg*1.5 || lastDayAvg < secondDayAvg*0.5 {
		t.Errorf("limit drift: day2 avg %v vs day8 avg %v", secondDayAvg, lastDayAvg)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
