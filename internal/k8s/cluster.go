package k8s

import (
	"fmt"

	"caasper/internal/errs"
)

// Node is a cluster node (VM) with allocatable capacity.
type Node struct {
	// Name identifies the node.
	Name string
	// Allocatable is the node's schedulable capacity.
	Allocatable Resources
	// allocated is the sum of requests of pods bound to the node.
	allocated Resources
	// pods counts the pods bound to the node; a pod's Node field is
	// what records the binding.
	pods int
}

// NewNode builds a node.
func NewNode(name string, cpuCores int, memGiB float64) *Node {
	return &Node{
		Name:        name,
		Allocatable: Resources{CPUCores: float64(cpuCores), MemoryGiB: memGiB},
	}
}

// Free returns the unallocated capacity.
func (n *Node) Free() Resources { return n.Allocatable.Sub(n.allocated) }

// PodCount returns the number of pods bound to the node.
func (n *Node) PodCount() int { return n.pods }

// Cluster is a set of nodes plus the scheduler.
type Cluster struct {
	nodes []*Node
	// pressure is transient per-node capacity (cores) invisible to the
	// scheduler's accounting but unavailable for placement — opaque
	// co-tenant churn injected by the fault layer (faults.SchedPressure).
	// It only affects Schedule: pods already bound keep their nodes, as
	// on a real cluster where pressure blocks new placements but does
	// not evict.
	pressure float64
}

// SetPressure sets the transient per-node capacity pressure in cores
// (0 clears it). The operator refreshes it each tick from its fault
// injector; with no faults it stays 0 and scheduling is unchanged.
func (c *Cluster) SetPressure(cores float64) { c.pressure = cores }

// Pressure returns the current transient per-node pressure in cores.
func (c *Cluster) Pressure() float64 { return c.pressure }

// NewCluster builds a cluster from nodes. The paper's "small cluster" is
// 6 VMs × 8 CPUs/32 GiB; the "large cluster" 6 VMs × 16 CPUs/56 GiB.
func NewCluster(nodes ...*Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("k8s: cluster needs at least one node: %w", errs.ErrInvalidConfig)
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if seen[n.Name] {
			return nil, fmt.Errorf("k8s: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
	}
	return &Cluster{nodes: nodes}, nil
}

// SmallCluster returns the paper's small test cluster: 6 VMs, each with
// 8 CPUs and 32 GiB.
func SmallCluster() *Cluster {
	var nodes []*Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, NewNode(fmt.Sprintf("node-%d", i), 8, 32))
	}
	c, err := NewCluster(nodes...)
	if err != nil {
		panic(err) // static configuration cannot fail
	}
	return c
}

// LargeCluster returns the paper's large test cluster: 6 VMs, each with
// 16 CPUs and 56 GiB.
func LargeCluster() *Cluster {
	var nodes []*Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, NewNode(fmt.Sprintf("node-%d", i), 16, 56))
	}
	c, err := NewCluster(nodes...)
	if err != nil {
		panic(err)
	}
	return c
}

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Schedule binds the pod to a node with enough free capacity for its
// requests, using a least-allocated (spread) policy: among fitting nodes,
// the one with the most free CPU wins, which is how replicas end up
// spread for HA. It returns an error when no node fits.
func (c *Cluster) Schedule(p *Pod) error {
	if p.Phase == PhaseRunning {
		return fmt.Errorf("k8s: pod %s already running", p.Name)
	}
	// Single allocation-free scan for the winning candidate. Candidacy is
	// judged on pressure-reduced free CPU; the spread ranking (most raw
	// free CPU, ties broken by name) is a total order over distinct node
	// names, so the scan picks the same node the old sort-and-take-first
	// did without building a candidate slice per placement.
	var best *Node
	var bestFree float64
	for _, n := range c.nodes {
		free := n.Free()
		rawCPU := free.CPUCores
		free.CPUCores -= c.pressure // transient fault-injected pressure
		if !p.Spec.Requests.Fits(free) {
			continue
		}
		if best == nil || rawCPU > bestFree || (rawCPU == bestFree && n.Name < best.Name) {
			best, bestFree = n, rawCPU
		}
	}
	if best == nil {
		return fmt.Errorf("k8s: no node fits pod %s (requests %.0fc/%.0fGiB, pressure %.0fc)",
			p.Name, p.Spec.Requests.CPUCores, p.Spec.Requests.MemoryGiB, c.pressure)
	}
	n := best
	n.pods++
	n.allocated = n.allocated.Add(p.Spec.Requests)
	p.Node = n
	return nil
}

// Evict unbinds the pod from its node (the deallocation step of a rolling
// update with restart). It is a no-op for unbound pods.
func (c *Cluster) Evict(p *Pod) {
	n := p.Node
	if n == nil {
		return
	}
	n.pods--
	n.allocated = n.allocated.Sub(p.Spec.Requests)
	p.Node = nil
}

// AddCoTenants schedules `count` opaque co-tenant pods of the given size
// onto the cluster. The paper's §6.2 customer-trace experiment ran on "the
// small K8s cluster which had other customer-required services running,
// bounding the limits to a max of 6 cores" — co-tenants are how that bound
// arises naturally from capacity instead of from a configured clamp.
func AddCoTenants(c *Cluster, count, cpuCores int, memGiB float64) error {
	for i := 0; i < count; i++ {
		p := &Pod{
			Name:  fmt.Sprintf("cotenant-%d", i),
			Phase: PhasePending,
			Spec:  NewGuaranteedSpec(cpuCores, memGiB),
		}
		if err := c.Schedule(p); err != nil {
			return fmt.Errorf("k8s: placing co-tenant %d: %w", i, err)
		}
		p.Phase = PhaseRunning
	}
	return nil
}

// ResizeInPlace updates a bound pod's resource spec without rescheduling
// it — the K8s in-place pod resize feature. A spec increase must fit in
// the node's free capacity; otherwise the resize is rejected, which is
// exactly the real feature's "Infeasible" outcome.
func (c *Cluster) ResizeInPlace(p *Pod, spec ContainerSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	n := p.Node
	if n == nil {
		p.Spec = spec
		return nil
	}
	delta := spec.Requests.Sub(p.Spec.Requests)
	if delta.CPUCores > 0 || delta.MemoryGiB > 0 {
		if !delta.Fits(n.Free()) {
			return fmt.Errorf("k8s: in-place resize of %s infeasible on %s (need %+.0fc, free %.0fc)",
				p.Name, n.Name, delta.CPUCores, n.Free().CPUCores)
		}
	}
	n.allocated = n.allocated.Add(delta)
	p.Spec = spec
	return nil
}

// TotalAllocatable sums node capacity.
func (c *Cluster) TotalAllocatable() Resources {
	var total Resources
	for _, n := range c.nodes {
		total = total.Add(n.Allocatable)
	}
	return total
}

// TotalAllocated sums bound requests.
func (c *Cluster) TotalAllocated() Resources {
	var total Resources
	for _, n := range c.nodes {
		total = total.Add(n.allocated)
	}
	return total
}
