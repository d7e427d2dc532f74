package fleet

// multi.go holds the multi-resource tenant loop: RAM scaled by the
// dual-threshold MemoryPolicy, disk grown off its high-water mark, and —
// for stateless tiers — horizontal overflow once the vertical CPU
// ceiling pins. Everything here engages only when TenantSpec.Resources
// manages a non-CPU dimension; CPU-only tenants never allocate a
// multiState and keep their own per-minute loop in fleet.go. Decisions
// and phase 2 are shared: decide hands the clamped CPU target to
// decideMulti, and infeasible/enact read t.mr != nil. The determinism
// contract is unchanged: phase 1 (observeMultiSegment) writes only
// tenant-local state, phase 2 runs sequentially.

import (
	"fmt"
	"time"

	"caasper/internal/billing"
	"caasper/internal/errs"
	"caasper/internal/k8s"
	"caasper/internal/recommend"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

// multiState is the per-tenant multi-resource runtime state, owned by
// exactly one tenant and touched from its phase-1 goroutine plus the
// sequential phase 2. Bounds and policies are read off t.spec.
type multiState struct {
	// ram / dsk are the per-minute per-pod demand/usage series in GB
	// (nil when the dimension is unmanaged).
	ram, dsk []float64

	// Current grants: the RAM GB per pod, the volume GB per pod and the
	// replica count.
	ramAlloc, diskAlloc, replicas int

	// seeding is the minute the newest replica finishes seeding (−1:
	// none in flight).
	seeding int

	// Decision-window accumulators, reset at each decision.
	ramPeak      float64 // peak per-pod RAM demand (GB)
	diskHigh     float64 // high-water disk usage (GB) — never reset: grow-only
	cpuPeakTotal float64 // peak total CPU demand across replicas (cores)
	ramShort     float64 // RAM shortfall GB-minutes since the last decision

	// Meters for the non-CPU dimensions, value-held like tenant.meter.
	ramMeter, diskMeter billing.Meter
}

// initMulti builds the tenant's multi-resource state from its resolved
// spec: demand traces (derived deterministically from the CPU trace when
// absent), initial grants, and per-dimension meters over the run's
// billing period.
func (t *tenant) initMulti(replicas, minutes int, period time.Duration, opts Options) error {
	rr := t.spec.Resources
	m := &multiState{replicas: replicas, seeding: -1}
	rates := billing.DefaultRates()
	var err error
	if rr.Max.RAMGB > 0 {
		tr := t.spec.RAMTrace
		if tr == nil {
			tr = workload.DeriveRAM(t.spec.Trace, 1, 0.5)
		}
		if m.ram, m.ramMeter, err = dimension("RAM", tr, minutes, opts.RAMPricePerGBPeriod, rates.RAMGBPeriod, period); err != nil {
			return err
		}
		m.ramAlloc = rr.Initial.RAMGB
	}
	if rr.Max.DiskGB > 0 {
		tr := t.spec.DiskTrace
		if tr == nil {
			tr = workload.DeriveDisk(t.spec.Trace, float64(rr.Initial.DiskGB)*0.5, 0.5)
		}
		if m.dsk, m.diskMeter, err = dimension("disk", tr, minutes, opts.DiskPricePerGBPeriod, rates.DiskGBPeriod, period); err != nil {
			return err
		}
		m.diskAlloc = rr.Initial.DiskGB
	}
	t.mr = m
	return nil
}

// dimension checks one non-CPU dimension's per-minute trace against the
// horizon and builds its meter at price (defPrice when zero).
func dimension(name string, tr *trace.Trace, minutes int, price, defPrice float64, period time.Duration) ([]float64, billing.Meter, error) {
	if tr.Interval != time.Minute {
		return nil, billing.Meter{}, fmt.Errorf("%s trace interval %s is not 1m (resample first): %w", name, tr.Interval, errs.ErrInvalidConfig)
	}
	if len(tr.Values) < minutes {
		return nil, billing.Meter{}, fmt.Errorf("%s trace covers %d of %d minutes: %w", name, len(tr.Values), minutes, errs.ErrInvalidConfig)
	}
	if price == 0 {
		price = defPrice
	}
	mm, err := billing.NewMeter(price, period, time.Minute)
	if err != nil {
		return nil, billing.Meter{}, err
	}
	return tr.Values, *mm, nil
}

// observeMultiSegment is the multi-resource phase-1 body: the per-minute
// observe/account/meter walk over one decision-cadence segment, followed
// by the vector decision when the segment ends on a decision tick. The
// CPU trace is interpreted as TOTAL tenant demand spread across the
// serving replicas (so horizontal overflow actually relieves pressure);
// RAM and disk traces are per pod.
func (t *tenant) observeMultiSegment(segStart, segEnd, decision int) {
	m := t.mr
	limit := t.set.CPULimit() // constant within the segment
	limf := float64(limit)
	t.hasProp = false
	for now := segStart; now < segEnd; now++ {
		// Flip a freshly-seeded replica into service (tenant-local: only
		// this goroutine touches this set's pods in phase 1).
		if m.seeding >= 0 && now >= m.seeding {
			for _, p := range t.set.Pods {
				if p.Phase == k8s.PhaseRestarting {
					p.Phase = k8s.PhaseRunning
				}
			}
			m.seeding = -1
		}
		serving := 0
		for _, p := range t.set.Pods {
			if p.Running() {
				serving++
			}
		}
		if serving < 1 {
			serving = 1 // the primary always serves in this model
		}
		capf := limf * float64(serving)

		demand := t.spec.Trace.Values[now]
		if demand > m.cpuPeakTotal {
			m.cpuPeakTotal = demand
		}
		usage := demand
		if usage > capf {
			usage = capf
		}

		// The recommender sees the per-replica average — the same
		// per-pod signal a scrape of any one serving pod would show.
		perPod := usage / float64(serving)
		observed := perPod
		if t.inj.DropSample(t.pod, int64(now)) {
			observed = t.prevUsage
		}
		t.prevUsage = perPod
		t.rec.Observe(now, observed)

		// Ground-truth accounting in total core-minutes.
		if slack := capf - usage; slack > 0 {
			t.res.SumSlack += slack
		}
		if short := demand - capf; short > 0 {
			t.res.SumInsufficient += short
			t.severity += short
			t.res.ThrottledMinutes++
		}
		// Billing covers every pod, seeding replicas included — capacity
		// is reserved (and paid for) from the moment it is scheduled.
		pods := float64(len(t.set.Pods))
		t.meter.Record(limf * pods)

		if m.ram != nil {
			rdemand := m.ram[now] + t.inj.MemPressureGB(t.pod, int64(now))
			if rdemand > m.ramPeak {
				m.ramPeak = rdemand
			}
			if short := rdemand - float64(m.ramAlloc); short > 0 {
				m.ramShort += short
				t.res.RAMShortGBMin += short
				t.res.OOMMinutes++
			}
			m.ramMeter.Record(float64(m.ramAlloc) * pods)
		}
		if m.dsk != nil {
			used := m.dsk[now]
			if used > float64(m.diskAlloc) {
				t.res.DiskFullMinutes++
				used = float64(m.diskAlloc) // writes beyond the volume fail
			}
			if used > m.diskHigh {
				m.diskHigh = used
			}
			m.diskMeter.Record(float64(m.diskAlloc) * pods)
		}
	}
	if decision >= 0 {
		t.decide(limit)
	}
}

// decideMulti finishes decide for a multi-resource tenant: given the
// clamped CPU target, it evaluates every other managed dimension and
// files one vector proposal when any of them wants to move. Replicas
// follow the shared vertical-first rule (recommend.OverflowReplicas) on
// the segment's peak total CPU demand.
func (t *tenant) decideMulti(limit, target int) {
	m, rr := t.mr, t.spec.Resources
	ram := m.ramAlloc
	if m.ram != nil {
		ram = t.spec.Mem.Target(m.ramAlloc, m.ramPeak, rr.Min.RAMGB, rr.Max.RAMGB)
	}
	disk := m.diskAlloc
	if m.dsk != nil {
		disk = t.spec.Disk.Target(m.diskAlloc, m.diskHigh, rr.Max.DiskGB)
	}
	reps := m.replicas
	if t.spec.Stateless {
		reps = recommend.OverflowReplicas(reps, rr.Min.Replicas, rr.Max.Replicas, target, rr.Max.CPUCores, m.cpuPeakTotal)
	}

	if target != limit || ram != m.ramAlloc || disk != m.diskAlloc || reps != m.replicas {
		// RAM shortfall joins CPU insufficiency as the arbiter's priority
		// signal: an OOM-ing tenant outranks a merely-throttled one.
		t.prop = proposal{
			target:   target,
			severity: t.severity + m.ramShort,
			ram:      ram,
			disk:     disk,
			reps:     reps,
		}
		t.hasProp = true
	}
	t.severity, m.ramShort, m.ramPeak, m.cpuPeakTotal = 0, 0, 0, 0
}

// finishMulti closes the tenant's multi-resource books in the epilogue.
func (t *tenant) finishMulti() {
	m := t.mr
	t.res.FinalReplicas = m.replicas
	if m.ram != nil {
		m.ramMeter.Flush()
		t.res.FinalRAMGB = m.ramAlloc
		t.res.BilledRAMGBPeriods = m.ramMeter.BilledCorePeriods()
	}
	if m.dsk != nil {
		m.diskMeter.Flush()
		t.res.FinalDiskGB = m.diskAlloc
		t.res.BilledDiskGBPeriods = m.diskMeter.BilledCorePeriods()
	}
}
