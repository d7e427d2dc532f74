// Package k8s is a miniature, discrete-time Kubernetes-like substrate:
// just enough of the real system's resource model, scheduling, stateful
// sets, rolling updates and metrics plumbing to run the paper's vertical
// autoscaling loop (Figure 1) end to end.
//
// It models, faithfully to the paper's evaluation environment:
//
//   - requests/limits at the container level, with the DBaaS invariant
//     limits == requests (§3.1 "Predictability");
//   - cgroup-style CPU capping: a pod's usable CPU each tick is
//     min(demand, limits), with the clipped remainder accounted as
//     throttled time (§2.1);
//   - nodes with allocatable capacity and a bin-packing scheduler that
//     places pods by requests (§2.1);
//   - stateful sets with one writable primary and n−1 readable
//     secondaries (§3.1, Figure 2);
//   - rolling updates with restart: resizes restart pods one at a time,
//     secondaries first and the primary last, each restart taking a
//     configurable duration and dropping the pod's connections (§2.2,
//     §3.1) — the source of the 5–15 minute resize windows;
//   - a metrics server recording per-pod usage for the recommender, and a
//     scaler that polls the recommender, applies safety checks, and
//     enacts decisions through the operator (Figure 1, steps 2–6).
//
// Time is integer seconds from simulation start; there are no goroutines
// and no wall-clock reads, so runs are deterministic and fast.
package k8s

import (
	"errors"
	"fmt"
)

// Role is a replica's role within a stateful set.
type Role string

// Replica roles.
const (
	// RolePrimary is the single writable instance.
	RolePrimary Role = "primary"
	// RoleSecondary is a readable replica.
	RoleSecondary Role = "secondary"
)

// Phase is a pod lifecycle phase.
type Phase string

// Pod phases. The substrate only needs the running/restarting/pending
// distinction; the full K8s phase machine is out of scope.
const (
	// PhasePending means the pod awaits scheduling.
	PhasePending Phase = "Pending"
	// PhaseRunning means the pod is serving.
	PhaseRunning Phase = "Running"
	// PhaseRestarting means the pod was deallocated for a rolling
	// update and is being rescheduled/restarted.
	PhaseRestarting Phase = "Restarting"
)

// Resources is a CPU/memory resource vector. CPU is in cores (the
// substrate schedules whole-core requests per the billing model but the
// type allows fractions); memory is in GiB.
type Resources struct {
	// CPUCores is CPU in cores.
	CPUCores float64
	// MemoryGiB is memory in GiB.
	MemoryGiB float64
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPUCores: r.CPUCores + o.CPUCores, MemoryGiB: r.MemoryGiB + o.MemoryGiB}
}

// Sub returns r − o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{CPUCores: r.CPUCores - o.CPUCores, MemoryGiB: r.MemoryGiB - o.MemoryGiB}
}

// Fits reports whether r fits within capacity c.
func (r Resources) Fits(c Resources) bool {
	return r.CPUCores <= c.CPUCores+1e-9 && r.MemoryGiB <= c.MemoryGiB+1e-9
}

// ContainerSpec is a container's declarative resource specification.
// Per the service invariant (R1), NewGuaranteedSpec sets limits equal to
// requests.
type ContainerSpec struct {
	// Requests is the guaranteed minimum used for scheduling.
	Requests Resources
	// Limits is the cgroup-enforced maximum.
	Limits Resources
}

// NewGuaranteedSpec builds a spec with limits == requests (the
// "Guaranteed" QoS class the paper's databases run in).
func NewGuaranteedSpec(cpuCores int, memGiB float64) ContainerSpec {
	r := Resources{CPUCores: float64(cpuCores), MemoryGiB: memGiB}
	return ContainerSpec{Requests: r, Limits: r}
}

// Guaranteed reports whether limits == requests.
func (c ContainerSpec) Guaranteed() bool {
	return c.Requests == c.Limits
}

// Validate checks spec invariants.
func (c ContainerSpec) Validate() error {
	if c.Requests.CPUCores <= 0 {
		return errors.New("k8s: non-positive CPU request")
	}
	if c.Limits.CPUCores < c.Requests.CPUCores {
		return errors.New("k8s: limits below requests")
	}
	if c.Requests.MemoryGiB < 0 || c.Limits.MemoryGiB < c.Requests.MemoryGiB {
		return errors.New("k8s: invalid memory spec")
	}
	return nil
}

// Pod is a scheduled instance of a stateful set replica.
type Pod struct {
	// Name is "<set>-<ordinal>", K8s stateful-set style.
	Name string
	// Ordinal is the replica index within the set.
	Ordinal int
	// Role is the replica's current role.
	Role Role
	// Phase is the lifecycle phase.
	Phase Phase
	// Spec is the container resource specification.
	Spec ContainerSpec
	// Node is the node the pod is bound to (nil while pending). Schedule
	// sets it and Evict clears it.
	Node *Node
	// RestartingUntil is the tick (seconds) at which an in-flight
	// restart completes; meaningful only in PhaseRestarting.
	RestartingUntil int64
	// Restarts counts completed restarts (observability).
	Restarts int

	// ThrottledCPUSeconds accumulates demand clipped by the limit —
	// the cgroup cpu.stat "throttled_time" equivalent.
	ThrottledCPUSeconds float64
	// UsedCPUSeconds accumulates CPU actually consumed.
	UsedCPUSeconds float64
}

// Running reports whether the pod can serve traffic.
func (p *Pod) Running() bool { return p.Phase == PhaseRunning }

// CPULimit returns the pod's CPU limit in cores.
func (p *Pod) CPULimit() float64 { return p.Spec.Limits.CPUCores }

// ConsumeCPU applies cgroup capping for a dt-second interval: given the
// pod's CPU demand in cores, it returns the CPU actually usable and
// accounts the clipped remainder as throttled time. Restarting and
// pending pods consume nothing.
func (p *Pod) ConsumeCPU(demandCores, dtSeconds float64) (usedCores float64) {
	if !p.Running() || demandCores <= 0 {
		return 0
	}
	limit := p.CPULimit()
	used := demandCores
	if used > limit {
		used = limit
		p.ThrottledCPUSeconds += (demandCores - limit) * dtSeconds
	}
	p.UsedCPUSeconds += used * dtSeconds
	return used
}

// String renders the pod for debugging.
func (p *Pod) String() string {
	node := ""
	if p.Node != nil {
		node = p.Node.Name
	}
	return fmt.Sprintf("Pod{%s %s %s %gc on %q}", p.Name, p.Role, p.Phase, p.CPULimit(), node)
}
