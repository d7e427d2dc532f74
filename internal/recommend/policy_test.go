package recommend

import "testing"

func TestMemoryPolicyDualThreshold(t *testing.T) {
	p := DefaultMemoryPolicy()
	// Small allocation: the absolute floor (0.5 GB) dominates.
	if thr := p.Threshold(2); thr != 0.5 {
		t.Fatalf("Threshold(2) = %v, want 0.5 (absolute floor wins)", thr)
	}
	// Large allocation: the percent floor (20%) dominates — higher wins.
	if thr := p.Threshold(10); thr != 2.0 {
		t.Fatalf("Threshold(10) = %v, want 2.0 (percent floor wins)", thr)
	}

	// 4 GB granted, 3.8 GB peak used → free 0.2 < thr 0.8 → grow.
	if got := p.Target(4, 3.8, 1, 16); got <= 4 {
		t.Fatalf("Target(4, 3.8) = %d, want > 4", got)
	}
	// Growth is step-capped.
	if got := p.Target(4, 15.5, 1, 32); got != 4+p.MaxStepUpGB {
		t.Fatalf("Target(4, 15.5) = %d, want step-capped %d", got, 4+p.MaxStepUpGB)
	}
	// 16 GB granted, 2 GB used → free 14 > 2×3.2 → shrink, step-capped.
	if got := p.Target(16, 2, 1, 16); got != 16-p.MaxStepDownGB {
		t.Fatalf("Target(16, 2) = %d, want %d", got, 16-p.MaxStepDownGB)
	}
	// Hysteresis: free just above threshold holds.
	if got := p.Target(8, 6, 1, 16); got != 8 {
		t.Fatalf("Target(8, 6) = %d, want hold at 8", got)
	}
	// Never exceeds max.
	if got := p.Target(16, 15.9, 1, 16); got != 16 {
		t.Fatalf("Target at ceiling = %d, want 16", got)
	}
}

func TestDiskPolicyGrowOnly(t *testing.T) {
	p := DefaultDiskPolicy()
	// 20 GB allocated, 18 used → need ceil(18/0.8)=23 → round to 25.
	if got := p.Target(20, 18, 100); got != 25 {
		t.Fatalf("Target(20, 18) = %d, want 25", got)
	}
	// Usage fell: never shrink.
	if got := p.Target(50, 5, 100); got != 50 {
		t.Fatalf("grow-only violated: Target(50, 5) = %d, want 50", got)
	}
	// Clamped to max.
	if got := p.Target(90, 99, 100); got != 100 {
		t.Fatalf("Target(90, 99) = %d, want 100", got)
	}
}

func TestReplicaOverflowVerticalFirst(t *testing.T) {
	// maxCores 4 per pod: one pod's ceiling with 25% headroom is 3 cores,
	// two pods' is 6.
	cases := []struct {
		name                           string
		reps, minReps, maxReps, target int
		peakTotal                      float64
		want                           int
	}{
		{"pinned and hot adds", 1, 1, 3, 4, 3.95, 2},
		{"pinned and cool holds", 1, 1, 3, 4, 2.5, 1},
		{"pinned and hot at max holds", 3, 1, 3, 4, 11.9, 3},
		{"unbounded max keeps adding", 7, 1, 0, 4, 27.5, 8},
		{"hot but off the ceiling holds", 1, 1, 3, 3, 3.95, 1},
		{"scale in when reps-1 absorbs the peak", 2, 1, 3, 2, 3.0, 1},
		{"hold when reps-1 cannot absorb the peak", 2, 1, 3, 2, 3.2, 2},
		{"pinned never scales in", 2, 1, 3, 4, 0.5, 2},
		{"never below min", 2, 2, 3, 1, 0.5, 2},
		{"zero min floors at one", 1, 0, 3, 1, 0, 1},
	}
	for _, c := range cases {
		if got := OverflowReplicas(c.reps, c.minReps, c.maxReps, c.target, 4, c.peakTotal); got != c.want {
			t.Errorf("%s: OverflowReplicas(reps %d, min %d, max %d, target %d, peak %.2f) = %d, want %d",
				c.name, c.reps, c.minReps, c.maxReps, c.target, c.peakTotal, got, c.want)
		}
	}
}
