// Package billing implements the resource-based pay-as-you-go model of the
// paper's DBaaS offerings (§3.1, §6.1): users are charged for the *peak*
// CPU limits provisioned within each billing period, rounded up to whole
// cores, at a fixed price per core-period. The paper bills CPU only;
// Rates extends the price to RAM and disk for the resource vector. The
// whole-core round-up and peak-based metering are the service invariants
// (R1) that shape CaaSPER's integral scaling decisions.
package billing

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Meter accumulates billable usage under the pay-as-you-go model.
type Meter struct {
	// PricePerCorePeriod is the price of one core held for one period.
	PricePerCorePeriod float64
	// Period is the metering granularity ("minutely or hourly depending
	// on configuration" per §3.1).
	Period time.Duration
	// SampleInterval is the spacing of samples passed to Record.
	SampleInterval time.Duration

	samplesPerPeriod int
	sampleInPeriod   int
	peakThisPeriod   float64
	periods          []float64 // peak cores per completed period
}

// NewMeter builds a billing meter. SampleInterval must evenly divide
// Period.
func NewMeter(pricePerCorePeriod float64, period, sampleInterval time.Duration) (*Meter, error) {
	if pricePerCorePeriod < 0 {
		return nil, errors.New("billing: negative price")
	}
	if period <= 0 || sampleInterval <= 0 {
		return nil, errors.New("billing: non-positive period or interval")
	}
	if period%sampleInterval != 0 {
		return nil, fmt.Errorf("billing: interval %v does not divide period %v", sampleInterval, period)
	}
	return &Meter{
		PricePerCorePeriod: pricePerCorePeriod,
		Period:             period,
		SampleInterval:     sampleInterval,
		samplesPerPeriod:   int(period / sampleInterval),
	}, nil
}

// Record registers the provisioned limits (in cores, possibly fractional)
// during one sample interval. Completed periods are closed automatically.
func (m *Meter) Record(limitsCores float64) {
	if limitsCores > m.peakThisPeriod {
		m.peakThisPeriod = limitsCores
	}
	m.sampleInPeriod++
	if m.sampleInPeriod == m.samplesPerPeriod {
		m.closePeriod()
	}
}

// RecordN registers the same provisioned limits for n consecutive sample
// intervals — the bulk form the discrete-event fleet engine uses when the
// limit is provably constant across a span. The resulting meter state is
// identical to n sequential Record calls, but the cost is O(periods
// touched) instead of O(n): the peak comparison happens once per period
// and whole periods at a constant limit close immediately.
func (m *Meter) RecordN(limitsCores float64, n int) {
	for n > 0 {
		if limitsCores > m.peakThisPeriod {
			m.peakThisPeriod = limitsCores
		}
		take := m.samplesPerPeriod - m.sampleInPeriod
		if take > n {
			take = n
		}
		m.sampleInPeriod += take
		n -= take
		if m.sampleInPeriod == m.samplesPerPeriod {
			m.closePeriod()
		}
	}
}

func (m *Meter) closePeriod() {
	m.periods = append(m.periods, m.peakThisPeriod)
	m.peakThisPeriod = 0
	m.sampleInPeriod = 0
}

// Flush closes a partially filled period, if any. Call it once at the end
// of a run before reading totals.
func (m *Meter) Flush() {
	if m.sampleInPeriod > 0 {
		m.closePeriod()
	}
}

// TotalCost returns the accumulated cost over all closed periods: the
// per-period peak, rounded up to whole cores, times the price.
func (m *Meter) TotalCost() float64 {
	var total float64
	for _, peak := range m.periods {
		total += math.Ceil(peak) * m.PricePerCorePeriod
	}
	return total
}

// BilledCorePeriods returns the total billed core-periods (cost at unit
// price) — convenient for price ratios, which is how the paper reports
// every cost figure.
func (m *Meter) BilledCorePeriods() float64 {
	var total float64
	for _, peak := range m.periods {
		total += math.Ceil(peak)
	}
	return total
}

// Periods returns the per-period peaks recorded so far (closed periods
// only). The slice is a copy.
func (m *Meter) Periods() []float64 {
	return append([]float64(nil), m.periods...)
}

// Reset clears all accumulated state.
func (m *Meter) Reset() {
	m.periods = m.periods[:0]
	m.peakThisPeriod = 0
	m.sampleInPeriod = 0
}

// CostRatio is a convenience: cost of run over cost of baseline, the form
// every price figure in the paper takes (e.g. "0.74x"). It returns 0 when
// the baseline cost is 0.
func CostRatio(run, baseline *Meter) float64 {
	b := baseline.BilledCorePeriods()
	if b == 0 {
		return 0
	}
	return run.BilledCorePeriods() / b
}

// Rates prices each scalable dimension per billing period. The CPU rate
// is the paper's original price-per-core-period; RAM and disk follow the
// CaaS pattern of cheaper secondary dimensions (Zerops bills RAM at a
// fraction of a core and disk at a fraction of RAM). A zero rate means
// "free", which is how CPU-only runs keep their exact cost figures.
type Rates struct {
	// CPUCorePeriod is the price of one core held for one period.
	CPUCorePeriod float64
	// RAMGBPeriod is the price of one GB of RAM held for one period.
	RAMGBPeriod float64
	// DiskGBPeriod is the price of one GB of disk held for one period.
	DiskGBPeriod float64
}

// DefaultRates returns the reference price vector used by the simulator
// and fleet when the caller does not override it: CPU at unit price, RAM
// at a quarter of a core per GB, disk at a fiftieth.
func DefaultRates() Rates {
	return Rates{CPUCorePeriod: 1, RAMGBPeriod: 0.25, DiskGBPeriod: 0.02}
}
