package caasper

import (
	"reflect"
	"testing"
	"time"
)

func TestPublicDecide(t *testing.T) {
	cfg := DefaultConfig(16)
	// A workload pinned at its 3-core cap must trigger a scale-up with
	// an explanation attached.
	usage := make([]float64, 60)
	for i := range usage {
		usage[i] = 3
	}
	d, err := Decide(cfg, 3, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Branch != BranchScaleUp || d.Delta < 1 {
		t.Errorf("decision = %+v", d)
	}
	if d.Explanation == "" {
		t.Error("missing explanation (R6)")
	}
	if _, err := Decide(Config{}, 3, usage); err == nil {
		t.Error("invalid config should error")
	}
}

func TestPublicCurve(t *testing.T) {
	c, err := BuildCurve([]float64{2, 2, 2}, SKURange{MinCores: 1, MaxCores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Performance(8) != 1 {
		t.Errorf("performance = %v", c.Performance(8))
	}
	if sf := ScalingFactor(2, 1, ScalingFactorParams{CMin: 2, SkewWeight: 1}); sf <= 0 {
		t.Errorf("SF = %v", sf)
	}
}

func TestPublicForecasters(t *testing.T) {
	hist := []float64{1, 2, 3, 4, 1, 2, 3, 4}
	for _, f := range []Forecaster{
		NewSeasonalNaive(4),
		NewHoltWinters(0.3, 0.1, 0.2, 2),
		NewAR(2),
		NewMovingAverage(4),
	} {
		if f.Name() == "" {
			t.Error("unnamed forecaster")
		}
		if _, err := f.Forecast(hist, 4); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestPublicSimulateWithBaselines(t *testing.T) {
	tr := Workloads["workday12h"](1)
	opts := DefaultSimOptions(6, 8)

	recs := []Recommender{NewControl(6)}
	if r, err := NewKubernetesVPA(8); err != nil {
		t.Fatal(err)
	} else {
		recs = append(recs, r)
	}
	if r, err := NewOpenShiftVPA(8); err != nil {
		t.Fatal(err)
	} else {
		recs = append(recs, r)
	}
	if r, err := NewAutopilot(8); err != nil {
		t.Fatal(err)
	} else {
		recs = append(recs, r)
	}
	if r, err := NewReactive(DefaultConfig(8), 40); err != nil {
		t.Fatal(err)
	} else {
		recs = append(recs, r)
	}
	if r, err := NewProactive(DefaultConfig(8), NewSeasonalNaive(360), 40, 30, 360); err != nil {
		t.Fatal(err)
	} else {
		recs = append(recs, r)
	}

	for _, rec := range recs {
		res, err := Simulate(tr.Clone(), rec, opts)
		if err != nil {
			t.Fatalf("%s: %v", rec.Name(), err)
		}
		if res.Minutes != tr.Len() {
			t.Errorf("%s: minutes = %d", rec.Name(), res.Minutes)
		}
	}
}

func TestPublicWorkloadsAndAlibaba(t *testing.T) {
	for name, gen := range Workloads {
		tr := gen(1)
		if tr.Len() == 0 {
			t.Errorf("workload %s is empty", name)
		}
	}
	if len(AlibabaIDs) != 11 {
		t.Errorf("AlibabaIDs = %d", len(AlibabaIDs))
	}
	tr, err := AlibabaTrace("c_1", 0)
	if err != nil || tr.Len() == 0 {
		t.Errorf("AlibabaTrace: %v", err)
	}
	if _, err := AlibabaTrace("nope", 0); err == nil {
		t.Error("unknown trace should error")
	}
}

func TestPublicTuning(t *testing.T) {
	tr := Workloads["workday12h"](2)
	simOpts := DefaultSimOptions(6, 8)
	evals, err := RandomSearch(tr, TuningOptions{Samples: 10, Seed: 1, Sim: &simOpts, SeasonMinutes: 720})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) == 0 {
		t.Fatal("no evaluations")
	}
	front := ParetoFrontier(evals)
	if len(front) == 0 {
		t.Error("empty frontier")
	}
	if _, err := BestForAlpha(1, evals); err != nil {
		t.Error(err)
	}
}

func TestPublicRunLive(t *testing.T) {
	demand := Workloads["workday12h"](3)
	short, err := demand.Resample(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ScheduleForCores("api-live", MixedOLTP(), TracePattern(short), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewReactive(DefaultConfig(6), 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLive(sched, rec, DatabaseA(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.CompletedTxns <= 0 {
		t.Error("no transactions completed")
	}
	// Database presets carry the paper's replica counts.
	if DatabaseA(2, 8).Replicas != 3 || DatabaseB(2, 8).Replicas != 2 {
		t.Error("preset replica counts wrong")
	}
}

// TestVectorOnlyBounds: options whose CPU bounds are set only through
// Resources run, and equal the preset runs with the same bounds.
func TestVectorOnlyBounds(t *testing.T) {
	cpu := ResourceRange{
		Initial: Resources{CPUCores: 4},
		Limits:  ResourceLimits{Min: Resources{CPUCores: 2}, Max: Resources{CPUCores: 8}},
	}
	newRec := func() Recommender {
		rec, err := NewReactive(DefaultConfig(8), 40)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	tr := Workloads["workday12h"](5)

	preset := DefaultSimOptions(4, 8)
	vec := SimOptions{
		Resources:            cpu,
		DecisionEveryMinutes: preset.DecisionEveryMinutes,
		ResizeDelayMinutes:   preset.ResizeDelayMinutes,
		BillingPeriod:        preset.BillingPeriod,
		PricePerCorePeriod:   preset.PricePerCorePeriod,
	}
	want, err := Simulate(tr, newRec(), preset)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(tr, newRec(), vec)
	if err != nil {
		t.Fatalf("Simulate with vector-only bounds: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("Simulate diverged:\n%v\nvs\n%v", want, got)
	}

	preset.Resources.Max.RAMGB, vec.Resources.Max.RAMGB = 16, 16
	wantV, err := SimulateVector(tr, newRec(), preset)
	if err != nil {
		t.Fatal(err)
	}
	gotV, err := SimulateVector(tr, newRec(), vec)
	if err != nil {
		t.Fatalf("SimulateVector with vector-only bounds: %v", err)
	}
	if !reflect.DeepEqual(wantV, gotV) {
		t.Errorf("SimulateVector diverged:\n%v\nvs\n%v", wantV, gotV)
	}

	short, err := tr.Resample(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ScheduleForCores("vector-live", MixedOLTP(), TracePattern(short), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	live := DatabaseA(4, 8)
	vecLive := LiveOptions{
		Resources:            cpu,
		Replicas:             live.Replicas,
		MemGiBPerPod:         live.MemGiBPerPod,
		RestartSecondsPerPod: live.RestartSecondsPerPod,
		DecisionEverySeconds: live.DecisionEverySeconds,
		BillingPeriod:        live.BillingPeriod,
		DB:                   live.DB,
	}
	wantL, err := RunLive(sched, newRec(), live)
	if err != nil {
		t.Fatal(err)
	}
	gotL, err := RunLive(sched, newRec(), vecLive)
	if err != nil {
		t.Fatalf("RunLive with vector-only bounds: %v", err)
	}
	if !reflect.DeepEqual(wantL, gotL) {
		t.Errorf("RunLive diverged:\n%+v\nvs\n%+v", wantL.DB, gotL.DB)
	}
}

func TestPublicStitch(t *testing.T) {
	src := Workloads["customer"](1)
	sw, err := Stitch(src, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Segments) == 0 {
		t.Error("no stitched segments")
	}
	if err := sw.Schedule().Validate(); err != nil {
		t.Error(err)
	}
}

func TestPublicNewTrace(t *testing.T) {
	tr := NewTrace("x", time.Minute, []float64{1, 2})
	if tr.Len() != 2 {
		t.Errorf("len = %d", tr.Len())
	}
}
