package k8s

import (
	"strings"
	"testing"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPUCores: 4, MemoryGiB: 16}
	b := Resources{CPUCores: 1, MemoryGiB: 4}
	if got := a.Add(b); got.CPUCores != 5 || got.MemoryGiB != 20 {
		t.Errorf("Add = %+v", got)
	}
	if got := a.Sub(b); got.CPUCores != 3 || got.MemoryGiB != 12 {
		t.Errorf("Sub = %+v", got)
	}
	if !b.Fits(a) || a.Fits(b) {
		t.Error("Fits misbehaves")
	}
}

func TestContainerSpec(t *testing.T) {
	s := NewGuaranteedSpec(4, 16)
	if !s.Guaranteed() {
		t.Error("guaranteed spec should have limits == requests")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ContainerSpec{
		Requests: Resources{CPUCores: 4},
		Limits:   Resources{CPUCores: 2},
	}
	if err := bad.Validate(); err == nil {
		t.Error("limits < requests should fail")
	}
	if err := (ContainerSpec{}).Validate(); err == nil {
		t.Error("zero CPU should fail")
	}
	neg := NewGuaranteedSpec(2, 8)
	neg.Requests.MemoryGiB = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative memory should fail")
	}
}

func TestPodConsumeCPU(t *testing.T) {
	p := &Pod{Name: "db-0", Phase: PhaseRunning, Spec: NewGuaranteedSpec(4, 16)}
	// Demand under the limit: all used, nothing throttled.
	if used := p.ConsumeCPU(3, 1); used != 3 {
		t.Errorf("used = %v", used)
	}
	if p.ThrottledCPUSeconds != 0 {
		t.Errorf("throttled = %v", p.ThrottledCPUSeconds)
	}
	// Demand above the limit: capped, remainder throttled.
	if used := p.ConsumeCPU(7, 2); used != 4 {
		t.Errorf("capped used = %v", used)
	}
	if p.ThrottledCPUSeconds != 6 { // (7-4)*2s
		t.Errorf("throttled = %v, want 6", p.ThrottledCPUSeconds)
	}
	if p.UsedCPUSeconds != 11 { // 3*1 + 4*2
		t.Errorf("used total = %v, want 11", p.UsedCPUSeconds)
	}
	// Restarting pods consume nothing.
	p.Phase = PhaseRestarting
	if used := p.ConsumeCPU(5, 1); used != 0 {
		t.Errorf("restarting pod used = %v", used)
	}
	// Negative/zero demand consumes nothing.
	p.Phase = PhaseRunning
	if used := p.ConsumeCPU(-1, 1); used != 0 {
		t.Errorf("negative demand used = %v", used)
	}
	if !strings.Contains(p.String(), "db-0") {
		t.Errorf("String = %q", p.String())
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(); err == nil {
		t.Error("empty cluster should fail")
	}
	n := NewNode("a", 8, 32)
	if _, err := NewCluster(n, NewNode("a", 8, 32)); err == nil {
		t.Error("duplicate node names should fail")
	}
}

func TestSchedulerSpreadsAndRespectsCapacity(t *testing.T) {
	c, err := NewCluster(NewNode("n1", 8, 32), NewNode("n2", 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, cores int) *Pod {
		return &Pod{Name: name, Phase: PhasePending, Spec: NewGuaranteedSpec(cores, 8)}
	}
	p1, p2 := mk("a", 4), mk("b", 4)
	if err := c.Schedule(p1); err != nil {
		t.Fatal(err)
	}
	if err := c.Schedule(p2); err != nil {
		t.Fatal(err)
	}
	// Least-allocated spread: the two pods land on different nodes.
	if p1.Node == p2.Node {
		t.Errorf("pods co-located on %s; expected spread", p1.Node.Name)
	}
	// Fill up and overflow.
	p3, p4 := mk("c", 4), mk("d", 4)
	if err := c.Schedule(p3); err != nil {
		t.Fatal(err)
	}
	if err := c.Schedule(p4); err != nil {
		t.Fatal(err)
	}
	p5 := mk("e", 6)
	if err := c.Schedule(p5); err == nil {
		t.Error("over-capacity pod should not schedule")
	}
	// Evicting both pods of one node frees enough for the 6-core pod.
	evicted := p1.Node
	if got := evicted.PodCount(); got != 2 {
		t.Errorf("%s holds %d pods, want 2", evicted.Name, got)
	}
	c.Evict(p1)
	if p1.Node != nil {
		t.Error("evict should clear binding")
	}
	c.Evict(p1) // a second evict of the same pod must not count it again
	for _, p := range []*Pod{p2, p3, p4} {
		if p.Node == evicted {
			c.Evict(p)
		}
	}
	if got := evicted.PodCount(); got != 0 {
		t.Errorf("%s holds %d pods after its evictions, want 0", evicted.Name, got)
	}
	if err := c.Schedule(p5); err != nil {
		t.Errorf("after evictions, 6-core pod should fit: %v", err)
	}
	if got := p5.Node.PodCount(); got != 1 {
		t.Errorf("%s holds %d pods, want 1", p5.Node.Name, got)
	}
	// Rescheduling a running pod is rejected.
	p5.Phase = PhaseRunning
	if err := c.Schedule(p5); err == nil {
		t.Error("scheduling a running pod should fail")
	}
	// Evicting an unbound pod is a no-op.
	c.Evict(&Pod{Name: "ghost"})
}

func TestClusterTotals(t *testing.T) {
	c := SmallCluster()
	total := c.TotalAllocatable()
	if total.CPUCores != 48 || total.MemoryGiB != 192 {
		t.Errorf("small cluster totals = %+v", total)
	}
	lg := LargeCluster()
	if lt := lg.TotalAllocatable(); lt.CPUCores != 96 || lt.MemoryGiB != 336 {
		t.Errorf("large cluster totals = %+v", lt)
	}
	if got := c.TotalAllocated(); got.CPUCores != 0 {
		t.Errorf("fresh cluster allocated = %+v", got)
	}
	if len(c.Nodes()) != 6 {
		t.Errorf("nodes = %d", len(c.Nodes()))
	}
}

func TestNewStatefulSet(t *testing.T) {
	c := SmallCluster()
	set, err := NewStatefulSet("db", 3, 4, 16, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Pods) != 3 {
		t.Fatalf("pods = %d", len(set.Pods))
	}
	if set.Primary() == nil || set.Primary().Ordinal != 0 {
		t.Error("ordinal 0 should start as primary")
	}
	if got := len(set.RunningSecondaries()); got != 2 {
		t.Errorf("secondaries = %d", got)
	}
	if set.CPULimit() != 4 {
		t.Errorf("CPULimit = %d", set.CPULimit())
	}
	if got := c.TotalAllocated().CPUCores; got != 12 {
		t.Errorf("allocated = %v", got)
	}
	// HA spread: three replicas on three distinct nodes.
	nodes := map[*Node]bool{}
	for _, p := range set.Pods {
		nodes[p.Node] = true
	}
	if len(nodes) != 3 {
		t.Errorf("replicas on %d nodes, want 3", len(nodes))
	}
	// Validation.
	if _, err := NewStatefulSet("x", 0, 4, 16, c); err == nil {
		t.Error("0 replicas should fail")
	}
	if _, err := NewStatefulSet("x", 1, 0, 16, c); err == nil {
		t.Error("0 cores should fail")
	}
	// Unschedulable set fails cleanly.
	tiny, _ := NewCluster(NewNode("t", 2, 8))
	if _, err := NewStatefulSet("big", 2, 4, 4, tiny); err == nil {
		t.Error("unschedulable set should fail")
	}
}

func TestOperatorValidation(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 3, 4, 16, c)
	if _, err := NewOperator(nil, c, 10); err == nil {
		t.Error("nil set should fail")
	}
	if _, err := NewOperator(set, nil, 10); err == nil {
		t.Error("nil cluster should fail")
	}
	if _, err := NewOperator(set, c, 0); err == nil {
		t.Error("zero restart time should fail")
	}
}

func TestRollingUpdateOrderAndTiming(t *testing.T) {
	c := SmallCluster()
	set, err := NewStatefulSet("db", 3, 4, 16, c)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(set, c, 100)
	if err != nil {
		t.Fatal(err)
	}

	var downs, ups []string
	var failovers int
	op.OnPodDown = func(p *Pod) { downs = append(downs, p.Name) }
	op.OnPodUp = func(p *Pod) { ups = append(ups, p.Name) }
	op.OnFailover = func(oldP, newP *Pod) { failovers++ }

	if err := op.RequestResize(6, 0); err != nil {
		t.Fatal(err)
	}
	if !op.Updating() || op.TargetCores() != 6 {
		t.Error("update should be in flight")
	}
	// Concurrent resize rejected.
	if err := op.RequestResize(8, 0); err == nil {
		t.Error("concurrent resize should fail")
	}

	// Drive to completion.
	var now int64
	for op.Updating() && now < 10000 {
		op.Tick(now)
		now++
	}
	if op.Updating() {
		t.Fatal("update did not complete")
	}
	// Restart order: secondaries (db-1, db-2) first, initial primary
	// (db-0) last.
	want := []string{"db-db-1", "db-db-2", "db-db-0"}
	_ = want
	if len(downs) != 3 {
		t.Fatalf("downs = %v", downs)
	}
	if downs[0] != "db-1" || downs[1] != "db-2" || downs[2] != "db-0" {
		t.Errorf("restart order = %v, want secondaries first, primary last", downs)
	}
	if len(ups) != 3 {
		t.Errorf("ups = %v", ups)
	}
	// Exactly one failover, and the new primary is an updated secondary.
	if failovers != 1 || op.FailoverCount != 1 {
		t.Errorf("failovers = %d", failovers)
	}
	if p := set.Primary(); p == nil || p.Ordinal == 0 {
		t.Errorf("primary should have moved off ordinal 0, got %v", set.Primary())
	}
	// Every pod now runs with the new spec.
	for _, p := range set.Pods {
		if !p.Running() || p.CPULimit() != 6 {
			t.Errorf("pod %s: phase=%s limit=%v", p.Name, p.Phase, p.CPULimit())
		}
		if p.Restarts != 1 {
			t.Errorf("pod %s restarts = %d", p.Name, p.Restarts)
		}
	}
	if set.CPULimit() != 6 {
		t.Errorf("set limit = %d", set.CPULimit())
	}
	// Total duration ≈ 3 × 100 s (the paper's multi-minute window).
	if op.EffectiveAt < 300 || op.EffectiveAt > 310 {
		t.Errorf("EffectiveAt = %d, want ≈300", op.EffectiveAt)
	}
	if op.ResizeCount != 1 {
		t.Errorf("ResizeCount = %d", op.ResizeCount)
	}

	// A second resize works and keeps the (new) primary last.
	downs = nil
	if err := op.RequestResize(4, now); err != nil {
		t.Fatal(err)
	}
	cur := set.Primary().Name
	for op.Updating() && now < 20000 {
		op.Tick(now)
		now++
	}
	if downs[len(downs)-1] != cur {
		t.Errorf("second update restarted %v last, want the then-primary %s", downs, cur)
	}
}

func TestRequestResizeValidation(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 2, 4, 16, c)
	op, _ := NewOperator(set, c, 10)
	if err := op.RequestResize(4, 0); err == nil {
		t.Error("same-size resize should fail")
	}
	if err := op.RequestResize(0, 0); err == nil {
		t.Error("zero target should fail")
	}
}

func TestRollingUpdateSingleReplica(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("solo", 1, 2, 8, c)
	op, _ := NewOperator(set, c, 50)
	if err := op.RequestResize(4, 0); err != nil {
		t.Fatal(err)
	}
	var now int64
	for op.Updating() && now < 1000 {
		op.Tick(now)
		now++
	}
	// Single replica: no failover possible, pod keeps primary role.
	if op.FailoverCount != 0 {
		t.Errorf("failovers = %d", op.FailoverCount)
	}
	if p := set.Primary(); p == nil || p.CPULimit() != 4 {
		t.Errorf("primary after solo update: %v", set.Primary())
	}
}

func TestPodDownDuringRestartServesNothing(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 2, 4, 16, c)
	op, _ := NewOperator(set, c, 100)
	if err := op.RequestResize(6, 0); err != nil {
		t.Fatal(err)
	}
	op.Tick(0) // first secondary goes down
	var restarting *Pod
	for _, p := range set.Pods {
		if p.Phase == PhaseRestarting {
			restarting = p
		}
	}
	if restarting == nil {
		t.Fatal("no pod restarting after first tick")
	}
	if got := restarting.ConsumeCPU(4, 1); got != 0 {
		t.Errorf("restarting pod consumed %v", got)
	}
	if got := len(set.RunningPods()); got != 1 {
		t.Errorf("running pods = %d, want 1", got)
	}
}
