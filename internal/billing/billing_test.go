package billing

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func hourlyMeter(t *testing.T, price float64) *Meter {
	t.Helper()
	m, err := NewMeter(price, time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeterValidation(t *testing.T) {
	if _, err := NewMeter(-1, time.Hour, time.Minute); err == nil {
		t.Error("negative price should error")
	}
	if _, err := NewMeter(1, 0, time.Minute); err == nil {
		t.Error("zero period should error")
	}
	if _, err := NewMeter(1, time.Hour, 0); err == nil {
		t.Error("zero interval should error")
	}
	if _, err := NewMeter(1, time.Hour, 7*time.Minute); err == nil {
		t.Error("non-dividing interval should error")
	}
}

func TestMeterPeakPerPeriod(t *testing.T) {
	m := hourlyMeter(t, 2)
	// Hour 1: limits mostly 4, one spike to 6.
	for i := 0; i < 59; i++ {
		m.Record(4)
	}
	m.Record(6)
	// Hour 2: flat 3.
	for i := 0; i < 60; i++ {
		m.Record(3)
	}
	if got := m.BilledCorePeriods(); got != 9 { // 6 + 3
		t.Errorf("billed = %v, want 9", got)
	}
	if got := m.TotalCost(); got != 18 {
		t.Errorf("cost = %v, want 18", got)
	}
}

// TestMeterRunningSumsMatchPeakLoop drives meters with random limits
// through Record and RecordN and checks both totals against a reference
// that keeps every closed period's peak and sums ceil(peak) and
// ceil(peak)·price over them in period order, bit for bit. The price is
// not an integer, so the cost sum rounds, and every run ends with a
// Flush of a partial period.
func TestMeterRunningSumsMatchPeakLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		price := 0.1 + rng.Float64()*3
		perPeriod := 2 + rng.IntN(89)
		m, err := NewMeter(price, time.Duration(perPeriod)*time.Minute, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		var peaks []float64
		peak, filled := 0.0, 0
		record := func(v float64) {
			peak = math.Max(peak, v)
			if filled++; filled == perPeriod {
				peaks = append(peaks, peak)
				peak, filled = 0, 0
			}
		}
		for ops := rng.IntN(60); ops > 0; ops-- {
			v := rng.Float64() * 16
			if rng.IntN(2) == 0 {
				m.Record(v)
				record(v)
				continue
			}
			n := 1 + rng.IntN(3*perPeriod)
			m.RecordN(v, n)
			for i := 0; i < n; i++ {
				record(v)
			}
		}
		if filled == 0 {
			m.Record(0.5)
			record(0.5)
		}
		m.Flush()
		peaks = append(peaks, peak)

		var billed, cost float64
		for _, p := range peaks {
			billed += math.Ceil(p)
			cost += math.Ceil(p) * price
		}
		if got := m.BilledCorePeriods(); got != billed {
			t.Fatalf("trial %d: billed = %v, want %v", trial, got, billed)
		}
		if got := m.TotalCost(); got != cost {
			t.Fatalf("trial %d: cost = %v, want %v (price %v, %d periods)", trial, got, cost, price, len(peaks))
		}
	}
}

func TestMeterRoundsUpWholeCores(t *testing.T) {
	m := hourlyMeter(t, 1)
	for i := 0; i < 60; i++ {
		m.Record(2.1) // fractional limits bill as 3 whole cores
	}
	if got := m.BilledCorePeriods(); got != 3 {
		t.Errorf("billed = %v, want 3 (round-up)", got)
	}
}

func TestMeterFlushPartialPeriod(t *testing.T) {
	m := hourlyMeter(t, 1)
	for i := 0; i < 30; i++ {
		m.Record(5)
	}
	if got := m.BilledCorePeriods(); got != 0 {
		t.Errorf("open period should not bill yet, got %v", got)
	}
	m.Flush()
	if got := m.BilledCorePeriods(); got != 5 {
		t.Errorf("after flush = %v, want 5", got)
	}
	// Double flush is a no-op.
	m.Flush()
	if got := m.BilledCorePeriods(); got != 5 {
		t.Errorf("double flush = %v", got)
	}
}

func TestMeterReset(t *testing.T) {
	m := hourlyMeter(t, 1)
	for i := 0; i < 120; i++ {
		m.Record(4)
	}
	m.Reset()
	m.Flush()
	if got := m.BilledCorePeriods(); got != 0 {
		t.Errorf("after reset = %v", got)
	}
}

func TestCostRatio(t *testing.T) {
	a := hourlyMeter(t, 1)
	b := hourlyMeter(t, 1)
	for i := 0; i < 60; i++ {
		a.Record(3)
		b.Record(6)
	}
	a.Flush()
	b.Flush()
	if got := CostRatio(a, b); got != 0.5 {
		t.Errorf("ratio = %v, want 0.5", got)
	}
	empty := hourlyMeter(t, 1)
	if got := CostRatio(a, empty); got != 0 {
		t.Errorf("ratio vs empty baseline = %v, want 0", got)
	}
}

func TestMeterMinutelyPeriod(t *testing.T) {
	// §3.1: "this time period may be minutely or hourly".
	m, err := NewMeter(1, time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m.Record(2)
	m.Record(4)
	m.Record(3)
	if got := m.BilledCorePeriods(); got != 9 {
		t.Errorf("minutely billed = %v, want 9", got)
	}
}
