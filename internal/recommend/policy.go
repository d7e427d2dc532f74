package recommend

import "math"

// MemoryPolicy sizes the RAM dimension with Zerops' dual-threshold rule:
// scale up when free memory falls below the HIGHER of an absolute
// min-free floor (GB) and a percent-free floor (fraction of the granted
// allocation). The absolute floor protects small allocations where a
// percentage is meaningless; the percentage protects large ones where a
// fixed floor is too tight. Scale-down uses the same threshold with a
// hysteresis multiplier so allocations don't flap around the boundary.
type MemoryPolicy struct {
	// MinFreeGB is the absolute free-memory floor (default 0.5 GB).
	MinFreeGB float64
	// MinFreePct is the fractional free-memory floor, 0–1 exclusive
	// (default 0.2, i.e. keep 20% of the grant free).
	MinFreePct float64
	// MaxStepUpGB caps a single upward step (default 4 GB).
	MaxStepUpGB int
	// MaxStepDownGB caps a single downward step (default 2 GB).
	MaxStepDownGB int
	// DownFactor scales the threshold for shrinking: only shrink when
	// free exceeds DownFactor × threshold (default 2 — hysteresis).
	DownFactor float64
}

// DefaultMemoryPolicy returns the production-shaped defaults.
func DefaultMemoryPolicy() MemoryPolicy {
	return MemoryPolicy{MinFreeGB: 0.5, MinFreePct: 0.2, MaxStepUpGB: 4, MaxStepDownGB: 2, DownFactor: 2}
}

func (p MemoryPolicy) withDefaults() MemoryPolicy {
	d := DefaultMemoryPolicy()
	if p.MinFreeGB <= 0 {
		p.MinFreeGB = d.MinFreeGB
	}
	if p.MinFreePct <= 0 || p.MinFreePct >= 1 {
		p.MinFreePct = d.MinFreePct
	}
	if p.MaxStepUpGB < 1 {
		p.MaxStepUpGB = d.MaxStepUpGB
	}
	if p.MaxStepDownGB < 1 {
		p.MaxStepDownGB = d.MaxStepDownGB
	}
	if p.DownFactor < 1 {
		p.DownFactor = d.DownFactor
	}
	return p
}

// Threshold is the dual-threshold free-memory floor for an allocation:
// max(MinFreeGB, MinFreePct × allocGB). Higher wins.
func (p MemoryPolicy) Threshold(allocGB float64) float64 {
	p = p.withDefaults()
	if pct := p.MinFreePct * allocGB; pct > p.MinFreeGB {
		return pct
	}
	return p.MinFreeGB
}

// Target recommends an integer RAM allocation in [minGB, maxGB] given
// the current allocation and the peak resident usage (GB) observed over
// the decision window. Deterministic: pure integer/float arithmetic.
func (p MemoryPolicy) Target(allocGB int, peakUsedGB float64, minGB, maxGB int) int {
	p = p.withDefaults()
	if allocGB < minGB {
		allocGB = minGB
	}
	thr := p.Threshold(float64(allocGB))
	free := float64(allocGB) - peakUsedGB

	// The allocation both thresholds would be satisfied at.
	needed := int(math.Ceil(peakUsedGB + p.MinFreeGB))
	if n := int(math.Ceil(peakUsedGB / (1 - p.MinFreePct))); n > needed {
		needed = n
	}
	if needed < minGB {
		needed = minGB
	}
	if needed > maxGB {
		needed = maxGB
	}

	switch {
	case free < thr: // under-provisioned: grow toward needed, capped step
		target := needed
		if target > allocGB+p.MaxStepUpGB {
			target = allocGB + p.MaxStepUpGB
		}
		if target <= allocGB {
			target = allocGB + 1
		}
		if target > maxGB {
			target = maxGB
		}
		return target
	case free > p.DownFactor*thr: // comfortably over: shrink, capped step
		target := allocGB - p.MaxStepDownGB
		if target < needed {
			target = needed
		}
		if target < minGB {
			target = minGB
		}
		if target > allocGB {
			target = allocGB
		}
		return target
	default:
		return allocGB
	}
}

// DiskPolicy sizes persistent volumes. Disk is grow-only (shrinking a
// volume in place is destructive on every major CaaS), so the target is
// monotone in the high-water usage mark.
type DiskPolicy struct {
	// HeadroomPct keeps this fraction of the volume free (default 0.2).
	HeadroomPct float64
	// StepGB rounds growth up to a multiple of this (default 5 GB).
	StepGB int
}

// DefaultDiskPolicy returns the grow-only defaults.
func DefaultDiskPolicy() DiskPolicy { return DiskPolicy{HeadroomPct: 0.2, StepGB: 5} }

func (p DiskPolicy) withDefaults() DiskPolicy {
	d := DefaultDiskPolicy()
	if p.HeadroomPct <= 0 || p.HeadroomPct >= 1 {
		p.HeadroomPct = d.HeadroomPct
	}
	if p.StepGB < 1 {
		p.StepGB = d.StepGB
	}
	return p
}

// Target recommends an integer volume size ≥ allocGB (grow-only) that
// keeps HeadroomPct free above the high-water usage mark, rounded up to
// a StepGB multiple and clamped to maxGB.
func (p DiskPolicy) Target(allocGB int, usedGB float64, maxGB int) int {
	p = p.withDefaults()
	need := int(math.Ceil(usedGB / (1 - p.HeadroomPct)))
	if rem := need % p.StepGB; rem != 0 {
		need += p.StepGB - rem
	}
	if need <= allocGB {
		return allocGB // grow-only: never shrink
	}
	if maxGB > 0 && need > maxGB {
		need = maxGB
	}
	if need < allocGB {
		return allocGB
	}
	return need
}

// horizontalHeadroom is the fraction of a replica set's total vertical
// CPU ceiling kept free: overflow adds a replica once the peak runs
// hotter than the rest, and a smaller set must absorb the peak under the
// same margin before a replica is removed.
const horizontalHeadroom = 0.25

// OverflowReplicas is the vertical-first horizontal overflow rule for
// stateless tiers, shared by the fleet controller and the recommender
// service. A replica is added only when the clamped CPU target is pinned
// at the per-pod ceiling maxCores AND the peak total CPU demand across
// the set exceeds its ceiling with headroom, capped at maxReps (0 =
// unbounded). A replica is removed only when the target is off the
// ceiling and reps−1 pods would still absorb the peak with the same
// headroom, never below minReps (at least 1).
func OverflowReplicas(reps, minReps, maxReps, target, maxCores int, peakTotal float64) int {
	if minReps < 1 {
		minReps = 1
	}
	ceiling := float64(maxCores*reps) * (1 - horizontalHeadroom)
	smaller := float64(maxCores*(reps-1)) * (1 - horizontalHeadroom)
	switch {
	case target >= maxCores && peakTotal > ceiling && (maxReps == 0 || reps < maxReps):
		return reps + 1
	case reps > minReps && target < maxCores && peakTotal <= smaller:
		return reps - 1
	}
	return reps
}
