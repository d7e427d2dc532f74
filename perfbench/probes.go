package main

import (
	"fmt"

	"caasper"
	"caasper/internal/k8s"
)

// Probe call counts: enough calls for a stable per-call mean, few
// enough to keep the probes under a second together.
const (
	decideCalls = 20000
	curveCalls  = 20000
	resizeCalls = 200000
	dropCalls   = 20000
)

// probe times n calls of fn as one span and returns the mean ns per call.
func probe(tr *tracer, parent int32, name string, n int, fn func(i int)) float64 {
	t0 := tr.now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	t1 := tr.now()
	tr.add(name, parent, t0, t1)
	return float64(t1-t0) / float64(n)
}

// probeKernels times the public decision kernels on windows cut from the
// workload's own traces.
func (out *outcome) probeKernels(tr *tracer, parent int32, ws []probeWindow) error {
	cfgs := make([]caasper.Config, len(ws))
	for i, w := range ws {
		cfgs[i] = caasper.DefaultConfig(w.maxCores)
		if _, err := caasper.Decide(cfgs[i], w.cores, w.usage); err != nil {
			return fmt.Errorf("probe window %d: %w", i, err)
		}
	}
	out.set("core.decide_ns", probe(tr, parent, "probe.caasper.Decide", decideCalls, func(i int) {
		w := ws[i%len(ws)]
		caasper.Decide(cfgs[i%len(ws)], w.cores, w.usage)
	}))
	out.set("pvp.build_curve_ns", probe(tr, parent, "probe.caasper.BuildCurve", curveCalls, func(i int) {
		w := ws[i%len(ws)]
		caasper.BuildCurve(w.usage, caasper.SKURange{MinCores: 1, MaxCores: w.maxCores})
	}))
	return nil
}

// runProbes times the kernels of a fleet workload on its own inputs:
// decision windows from its traces, in-place resizes on its cluster with
// its tenants placed in onboarding order, and sample-drop draws under its
// fault spec and seed.
func (out *outcome) runProbes(tr *tracer, r *fleetRun, seed uint64) error {
	root := tr.reserve()
	t0 := tr.now()
	defer func() { tr.addID(root, "probes", 0, t0, tr.now()) }()
	if err := out.probeKernels(tr, root, r.windows); err != nil {
		return err
	}

	cluster := r.opts.Cluster
	pods := make([]*k8s.Pod, len(r.specs))
	names := make([]string, len(r.specs))
	for i, s := range r.specs {
		set, err := k8s.NewStatefulSet(s.Name, 1, s.Resources.Initial.CPUCores, s.MemGiBPerPod, cluster)
		if err != nil {
			return fmt.Errorf("placing %s: %w", s.Name, err)
		}
		pods[i], names[i] = set.Pods[0], set.Pods[0].Name
	}
	specs := func(p *k8s.Pod, up bool) k8s.ContainerSpec {
		c := int(p.Spec.Limits.CPUCores)
		if up {
			c++
		} else {
			c--
		}
		return k8s.NewGuaranteedSpec(c, p.Spec.Limits.MemoryGiB)
	}
	infeasible := 0
	out.set("k8s.resize_ns", probe(tr, root, "probe.k8s.ResizeInPlace", resizeCalls, func(i int) {
		p := pods[i%len(pods)]
		// Each pass over the pods grows every pod by a core; the next
		// pass shrinks it back.
		if err := cluster.ResizeInPlace(p, specs(p, (i/len(pods))%2 == 0)); err != nil {
			infeasible++
		}
	}))
	out.notef("k8s.ResizeInPlace probe: %d calls over %d pods on %d nodes, %d infeasible",
		resizeCalls, len(pods), len(cluster.Nodes()), infeasible)

	spec, err := caasper.ParseFaultSpec(r.shape.faults)
	if err != nil {
		return err
	}
	if inj := caasper.NewFaultInjector(spec, seed); inj != nil {
		minutes := r.shape.minutes
		out.set("faults.drop_sample_ns", probe(tr, root, "probe.faults.DropSample", dropCalls, func(i int) {
			inj.DropSample(names[i%len(names)], int64((i/len(names))%minutes))
		}))
	}
	return nil
}
