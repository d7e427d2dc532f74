package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"caasper/internal/core"
	"caasper/internal/k8s"
	"caasper/internal/recommend"
	"caasper/internal/trace"
)

// The per-tenant allocation budget of Run on a plateau month: what one
// tenant of a fleet costs in bytes and heap objects, construction and
// run together, with fleet-wide costs spread over the tenants. The
// figures measured when the budget was set were about 2381 B and 14.0
// objects per tenant on linux/amd64 with go1.24.
const (
	tenantBytesBudget  = 2400 // bytes allocated per tenant
	tenantAllocsBudget = 16   // heap objects per tenant
	// sizeClassStep is the gap between neighbouring small allocation
	// size classes: the most a per-tenant figure may grow from a 1-day
	// to a 30-day horizon.
	sizeClassStep = 16
)

// plateauFleet builds a fleet of n tenants shaped like the in-module
// month benchmark (BenchmarkFleetMonth10k): 24 shared day-periodic
// plateau traces, a 20-minute CaaSPER window, 1–4 cores, 78 tenants per
// node, daily billing, on the events engine at one worker.
func plateauFleet(t *testing.T, n, minutes int) ([]TenantSpec, Options) {
	t.Helper()
	const variants = 24
	traces := make([]*trace.Trace, variants)
	for v := range traces {
		low := 0.5 + 0.05*float64(v%8)
		high := 2.2 + 0.06*float64(v%8)
		start := (421 + 40*v) % 1440
		vals := make([]float64, minutes)
		for m := range vals {
			mm := m % 1440
			if mm-start >= 0 && mm-start < 540 || mm+1440-start < 540 {
				vals[m] = high
			} else {
				vals[m] = low
			}
		}
		traces[v] = trace.New(fmt.Sprintf("month-%02d", v), time.Minute, vals)
	}
	specs := make([]TenantSpec, n)
	for i := range specs {
		specs[i] = TenantSpec{
			Name:  fmt.Sprintf("t%05d", i),
			Trace: traces[i%variants],
			NewRecommender: func() (recommend.Recommender, error) {
				return recommend.NewCaaSPERReactive(core.DefaultConfig(4), 20)
			},
			Resources:    core.CPURange(1, 1, 4),
			Replicas:     1,
			MemGiBPerPod: 1,
		}
	}
	nodes := make([]*k8s.Node, (n+77)/78)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("node-%03d", i), 4096, 8192)
	}
	opts := DefaultOptions()
	opts.Cluster = mustCluster(t, nodes...)
	opts.Minutes = minutes
	opts.BillingPeriod = 24 * time.Hour
	opts.Engine = EngineEvents
	opts.Workers = 1
	return specs, opts
}

// runAllocsPerTenant runs a plateau fleet of n tenants over minutes and
// returns Run's allocated bytes and heap objects per tenant (MemStats
// deltas around Run alone).
func runAllocsPerTenant(t *testing.T, n, minutes int) (bytes, objects float64) {
	t.Helper()
	specs, opts := plateauFleet(t, n, minutes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(specs, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestTenantAllocBudget pins what a tenant costs Run: within the
// declared budget on a 30-day plateau fleet, and no more over 30 days
// than over one — per-tenant state must not grow with the horizon.
func TestTenantAllocBudget(t *testing.T) {
	const tenants = 2000
	b1, o1 := runAllocsPerTenant(t, tenants, 1440)
	b30, o30 := runAllocsPerTenant(t, tenants, 30*1440)
	t.Logf("per tenant: 1 day %.0f B, %.2f objects; 30 days %.0f B, %.2f objects", b1, o1, b30, o30)
	if b30 > tenantBytesBudget || o30 > tenantAllocsBudget {
		t.Errorf("30-day fleet allocates %.0f B and %.2f objects per tenant, budget %d B and %d objects",
			b30, o30, tenantBytesBudget, tenantAllocsBudget)
	}
	if d := b30 - b1; d > sizeClassStep || d < -sizeClassStep {
		t.Errorf("per-tenant bytes moved by %.0f B from 1 day to 30 days, more than one size class (%d B)", d, sizeClassStep)
	}
	// Fleet-wide objects (shard bookkeeping, the deferral bitmap) are
	// the only ones a horizon may add, and they come to far less than
	// half an object per tenant.
	if d := o30 - o1; d > 0.5 || d < -0.5 {
		t.Errorf("per-tenant objects moved by %.2f from 1 day to 30 days", d)
	}
}
