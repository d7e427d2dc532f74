// The discrete-event engine's one event loop, run per shard group.
//
// The event engine's only cross-tenant coupling is phase 2: the capacity
// arbiter compares a proposal's resize deltas against the free capacity
// of the nodes hosting the proposer's pods. Tenants whose pods touch
// disjoint node sets therefore cannot affect each other's grants — one
// tenant's enactment changes only its own nodes' allocations, which the
// other's feasibility check never reads. Partitioning the fleet into the
// connected components of the tenant–node placement graph (union-find
// over pod placements) yields shard groups that are provably independent
// for the *whole* run: placements are fixed at onboarding, so the
// partition never changes mid-run.
//
// Each shard is a self-contained event loop — its own wake heap, awake
// list, virtual clock, arbitration scratch and fault-injector clone
// (draws are (seed, kind, pod, time)-keyed, so a clone replays the exact
// values the shared injector would have produced) — fanned out on
// internal/parallel, one fan-out for the whole run. Options.Sharding off
// puts every tenant in one group of this same loop. Phase 1 follows the
// partition: with several groups the run is already fanned out across
// them, so each shard walks its awake tenants sequentially; with exactly
// one group, that group fans its awake tenants out over Options.Workers
// at every tick (wakeParallel).
//
// Determinism and byte-identity. All cross-shard effects are reproduced
// after the join, sequentially, from per-shard records:
//
//   - Results: tenants only ever write their own TenantResult slots, and
//     the run epilogue (fleet.go) reduces them in tenant order, so the
//     aggregate sums add in the same order as the stepped run.
//   - Pressure edges: shard clones poll silently; the merge advances the
//     one authoritative injector across the union of content ticks. A
//     window's activation edge appears in the stepped stream after
//     all phase-2 events of ticks before the window's start and before
//     all phase-2 events of ticks at or after it — a position
//     independent of the empty ticks in between — so advancing only at
//     content ticks emits every edge at the identical byte offset.
//   - Phase-2 events: within one tick the stepped engine emits
//     scale-down enactments in ascending tenant order, then arbitrated
//     scale-ups in (severity desc, tenant index asc) order. Both orders
//     are total and each shard's buffered run is already sorted by them,
//     so a k-way merge on the tagged keys reproduces the global
//     permutation exactly; the per-tick "fleet.arbitration" summary is
//     re-synthesized from the summed per-shard tallies.
//
// Arbitration semantics are untouched: a shard's grants see the
// already-reserved capacity of its earlier grants (same as the global
// order restricted to the shard), and grants in other shards are
// irrelevant by node-disjointness.
package fleet

import (
	"context"
	"math/bits"
	"sync/atomic"

	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/parallel"
)

// shardPartition groups tenant indices into node-disjoint shard groups:
// the connected components of the bipartite tenant–node placement graph,
// computed with a union-find whose roots stay the smallest member index.
// It returns the group members concatenated (idxs) plus the group
// boundary offsets (group g spans idxs[offsets[g]:offsets[g+1]]).
// Members are ascending within a group and groups are ordered by their
// smallest member, so walking idxs visits every tenant exactly once.
func shardPartition(ts []*tenant) (idxs, offsets []int32) {
	parent := make([]int32, len(ts))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byNode := make(map[*k8s.Node]int32)
	for i, t := range ts {
		for _, p := range t.set.Pods {
			if p.Node == nil {
				continue
			}
			j, ok := byNode[p.Node]
			if !ok {
				byNode[p.Node] = int32(i)
				continue
			}
			ra, rb := find(int32(i)), find(j)
			if ra == rb {
				continue
			}
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	root := make([]int32, len(ts))
	ng := int32(0)
	gid := make([]int32, len(ts)) // root index → group id
	for i := range ts {
		r := find(int32(i))
		root[i] = r
		if r == int32(i) {
			gid[i] = ng
			ng++
		}
	}
	offsets = make([]int32, ng+1)
	for i := range ts {
		offsets[gid[root[i]]+1]++
	}
	for g := int32(0); g < ng; g++ {
		offsets[g+1] += offsets[g]
	}
	idxs = make([]int32, len(ts))
	pos := make([]int32, ng)
	copy(pos, offsets[:ng])
	for i := range ts { // ascending i keeps members sorted within groups
		g := gid[root[i]]
		idxs[pos[g]] = int32(i)
		pos[g]++
	}
	return idxs, offsets
}

// evKey orders one shard's buffered phase-2 events for the cross-shard
// merge: scale-down enactments (stage 0, ascending tenant index) precede
// arbitrated scale-ups (stage 1, severity descending then index
// ascending) — the exact total order the stepped engine emits in.
type evKey struct {
	stage int8
	idx   int32
	sev   float64
}

// keyLess is the stepped engine's within-tick emission order.
func keyLess(a, b evKey) bool {
	if a.stage != b.stage {
		return a.stage < b.stage
	}
	if a.stage == 0 {
		return a.idx < b.idx
	}
	if a.sev != b.sev {
		return a.sev > b.sev
	}
	return a.idx < b.idx
}

// shardSink buffers one shard's phase-2 events alongside their merge
// keys (enactPhase tags the pending key before each emission). Emitters
// build fresh Fields slices, so retaining them until the merge is safe.
type shardSink struct {
	evs  []obs.Event
	keys []evKey
	key  evKey
}

func (k *shardSink) Enabled() bool { return true }
func (k *shardSink) Flush() error  { return nil }
func (k *shardSink) Emit(e obs.Event) {
	k.evs = append(k.evs, e)
	k.keys = append(k.keys, k.key)
}

// tickStat records one shard's phase-2 outcome at one content tick — a
// tick where the shard emitted events or deferred a tenant — everything
// the merge needs to re-synthesize the global arbitration summary.
type tickStat struct {
	tick           int32
	contenders     int32
	granted        int32
	deferred       int32
	evStart, evEnd int32 // the tick's event range in the shard's buffer
}

// shardRun is one shard's private event loop: a copy of the parent
// runState with the shared mutable machinery swapped for shard-local
// equivalents (injector clone, arbitration scratch, event buffer, dummy
// Result) plus the shard's wake heap and bookkeeping.
type shardRun struct {
	runState
	idxs   []int32 // global tenant indices, ascending
	heap   wakeHeap
	awake  []int
	fanout bool // the only group: phase 1 fans out over Options.Workers

	ticks   []tickStat // events-enabled: per content tick
	defBits []uint64   // events-disabled: shared minute bitmap of deferral ticks
	sink    shardSink  // events-enabled: h.Events and ssink point here
	dres    Result     // res redirect: shards must not touch the shared Result
}

// run executes the shard's event loop over the shard's tenants, with the
// cross-shard effects (pressure edges/counts, cluster pressure,
// arbitration bookkeeping) recorded for the merge instead of applied. See
// the file comment and events.go.
func (sr *shardRun) run() {
	ts := sr.ts
	if d0 := sr.nextDecisionAt(0); d0 >= 0 {
		for _, i := range sr.idxs {
			sr.heap = append(sr.heap, wakeEntry{at: int32(d0), idx: i})
		}
	}
	heap := sr.heap
	clock := 0
	pressure := 0.0
	awake := sr.awake

	for len(heap) > 0 {
		d := int(heap[0].at)
		awake = awake[:0]
		for len(heap) > 0 && int(heap[0].at) == d {
			awake = append(awake, int(heap.pop().idx))
		}

		for {
			// The clone polls the same (window-keyed) pressure values the
			// shared injector would, silently; the shard's clock differs
			// from the global one, but the returned value only depends on
			// the tick's window. No cluster.SetPressure here — the cluster
			// is shared and nothing reads its pressure mid-run.
			if sr.finj != nil {
				pressure = sr.finj.AdvancePressure(int64(clock), int64(d+1))
			}
			clock = d + 1

			// Severity is the insufficiency since the previous decision
			// tick — even for tenants that slept through it — so catch-up
			// accumulates it only from sevFrom on.
			sevFrom := d - sr.d + 1
			if d == sr.warmup {
				sevFrom = 0 // first decision: severity covers the warm-up
			}

			// Phase 1 — catch-up + decide over the awake tenants only;
			// sleeping tenants are, by the sleep contract, unchanged. A
			// one-group run fans the awake tenants out over
			// Options.Workers; otherwise the shards are already fanned out
			// and each walks its awake tenants sequentially.
			if sr.fanout {
				sr.wakeParallel(awake, d, sevFrom)
			} else {
				for _, i := range awake {
					ts[i].wake(&sr.runState, d, sevFrom)
				}
			}

			// Phase 2 over the awake subset (ascending index, courtesy of
			// the heap's secondary key): tenants asleep at d hold no
			// proposal, so the stepped engine's full walk degenerates to
			// exactly this subset.
			evStart := len(sr.sink.evs)
			contenders, granted, deferred := sr.enactPhase(awake, pressure, d)
			if sr.events {
				if end := len(sr.sink.evs); end > evStart || deferred > 0 {
					sr.ticks = append(sr.ticks, tickStat{
						tick:       int32(d),
						contenders: int32(contenders),
						granted:    int32(granted),
						deferred:   int32(deferred),
						evStart:    int32(evStart),
						evEnd:      int32(end),
					})
				}
			} else if deferred > 0 {
				// Shards share one minute bitmap: an atomic OR is
				// commutative, so the union is schedule-independent, and
				// deferrals are rare enough that contention is immaterial.
				w, mask := &sr.defBits[uint(d)>>6], uint64(1)<<(uint(d)&63)
				for {
					old := atomic.LoadUint64(w)
					if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
						break
					}
				}
			}

			// Only proposers can have been resized by enactPhase
			// (granted, deferred or fault-aborted — re-read either way).
			for _, i := range awake {
				if t := ts[i]; t.hasProp {
					t.lim = t.set.CPULimit()
				}
			}

			if len(heap) == 0 {
				if w := uniformWake(ts, awake); w >= 0 {
					d = w // lockstep: rerun the tick loop on the same list
					continue
				}
			}
			for _, i := range awake {
				if w := ts[i].wakeAt; w >= 0 {
					heap.push(wakeEntry{at: int32(w), idx: int32(i)})
				}
			}
			break
		}
	}

	// Account the shard's tenants to the horizon. Severity after the
	// final decision is never read, so catch-up skips it (sevFrom =
	// minutes).
	if sr.fanout {
		sr.finishParallel()
	} else {
		for _, i := range sr.idxs {
			ts[i].advanceTo(sr.minutes, sr.minutes)
		}
	}
}

// wakeParallel is phase 1 of a one-group run: the awake tenants catch up
// and decide on Options.Workers goroutines. Each task touches one
// tenant's state. The fan-out lives in its own method so that its
// closure's captures stay out of run's frame: inline, they escape to the
// heap on every run, the many-group path included.
func (sr *shardRun) wakeParallel(awake []int, d, sevFrom int) {
	ts := sr.ts
	_ = parallel.ForEach(context.Background(), len(awake), sr.workers, func(k int) error {
		ts[awake[k]].wake(&sr.runState, d, sevFrom)
		return nil
	})
}

// finishParallel is the horizon catch-up of a one-group run, fanned out
// like wakeParallel.
func (sr *shardRun) finishParallel() {
	ts, end := sr.ts, sr.minutes
	_ = parallel.ForEach(context.Background(), len(sr.idxs), sr.workers, func(k int) error {
		ts[sr.idxs[k]].advanceTo(end, end)
		return nil
	})
}

// runShards fans the shard groups out on internal/parallel, then merges
// the per-shard records back into the authoritative injector, cluster
// pressure, Result and event stream — sequentially, so the output is
// byte-identical to the stepped engine at any worker count.
func (s *runState) runShards(idxs, offsets []int32) error {
	n := len(offsets) - 1
	shards := make([]shardRun, n)
	arbs := make([]arbScratch, n)
	// Pre-size every shard's arbitration scratch from shared blocks: the
	// feasibility tally and rollback list each hold at most one tenant's
	// pods per check, so maxPods capacity means no shard ever grows its
	// scratch — three allocations replace ~3 per shard. (needMem stays
	// nil: the event engine rejects multi-resource tenants.)
	maxPods := 0
	for _, t := range s.ts {
		if np := len(t.set.Pods); np > maxPods {
			maxPods = np
		}
	}
	nodesBack := make([]*k8s.Node, n*maxPods)
	needBack := make([]float64, n*maxPods)
	doneBack := make([]*k8s.Pod, n*maxPods)
	// One backing block per working array, carved into per-shard
	// three-index slices: a tenant holds at most one pending wake, so a
	// shard's heap/awake/ups never outgrow its tenant count.
	heapBack := make([]wakeEntry, len(s.ts))
	awakeBack := make([]int, len(s.ts))
	upsBack := make([]int, len(s.ts))
	var defBits []uint64
	if !s.events {
		defBits = make([]uint64, (s.minutes+63)/64)
	}
	for k := 0; k < n; k++ {
		lo, hi := offsets[k], offsets[k+1]
		sr := &shards[k]
		sr.runState = *s
		sr.idxs = idxs[lo:hi]
		sr.heap = heapBack[lo:lo:hi]
		sr.awake = awakeBack[lo:lo:hi]
		sr.ups = upsBack[lo:lo:hi]
		arbs[k] = arbScratch{
			nodes: nodesBack[k*maxPods : k*maxPods : (k+1)*maxPods],
			need:  needBack[k*maxPods : k*maxPods : (k+1)*maxPods],
			done:  doneBack[k*maxPods : k*maxPods : (k+1)*maxPods],
		}
		sr.arb = &arbs[k]
		sr.res = &sr.dres
		sr.fanout = n == 1
		sr.finj = s.finj.Clone()
		sr.defBits = defBits
		if s.events {
			sr.h.Events = &sr.sink
			sr.ssink = &sr.sink
		}
	}

	err := parallel.ForEach(context.Background(), n, s.workers, func(k int) error {
		shards[k].run()
		return nil
	})
	if err != nil {
		return err
	}
	s.mergeShards(shards)
	return nil
}

// mergeShards replays the cross-shard effects in global order. With
// events disabled only the counters matter: the pressure-window coverage
// is batching-independent (draws and edge dedupe are window-keyed), so
// one sweep advances the authoritative injector, and the arbitration
// tick count is the number of distinct ticks any shard deferred on. With
// events enabled the merge walks the union of content ticks in order,
// interleaving pressure edges and the k-way-merged phase-2 events.
func (s *runState) mergeShards(shards []shardRun) {
	if !s.events {
		if s.finj != nil {
			s.cluster.SetPressure(s.finj.AdvancePressure(0, int64(s.minutes)))
		}
		for _, w := range shards[0].defBits {
			s.res.ArbitrationTicks += bits.OnesCount64(w)
		}
		return
	}

	heads := make([]int, len(shards)) // per-shard cursor into ticks
	clock := 0
	pressure := 0.0
	for {
		// Next content tick: the minimum un-merged tick across shards.
		d := -1
		for k := range shards {
			if heads[k] < len(shards[k].ticks) {
				if t := int(shards[k].ticks[heads[k]].tick); d < 0 || t < d {
					d = t
				}
			}
		}
		if d < 0 {
			break
		}
		// Pressure edges up to and including tick d's window come first,
		// exactly where the stepped engine puts them (see the file
		// comment for why empty ticks cannot shift the byte position).
		if s.finj != nil {
			pressure = s.finj.AdvancePressure(int64(clock), int64(d+1))
			s.cluster.SetPressure(pressure)
		}
		clock = d + 1

		// K-way merge of the participating shards' event runs under the
		// stepped engine's emission order, then the re-synthesized
		// arbitration summary.
		contenders, granted, deferred := 0, 0, 0
		for {
			best, bestPos := -1, int32(0)
			for k := range shards {
				sr := &shards[k]
				if heads[k] >= len(sr.ticks) {
					continue
				}
				st := &sr.ticks[heads[k]]
				if int(st.tick) != d {
					continue
				}
				pos := st.evStart
				if pos >= st.evEnd {
					continue
				}
				if best < 0 || keyLess(sr.sink.keys[pos], shards[best].sink.keys[bestPos]) {
					best, bestPos = k, pos
				}
			}
			if best < 0 {
				break
			}
			s.h.Events.Emit(shards[best].sink.evs[bestPos])
			shards[best].ticks[heads[best]].evStart++
		}
		for k := range shards {
			sr := &shards[k]
			if heads[k] < len(sr.ticks) && int(sr.ticks[heads[k]].tick) == d {
				st := &sr.ticks[heads[k]]
				contenders += int(st.contenders)
				granted += int(st.granted)
				deferred += int(st.deferred)
				heads[k]++
			}
		}
		if deferred > 0 {
			s.res.ArbitrationTicks++
			s.h.Events.Emit(obs.Event{T: int64(d), Type: "fleet.arbitration", Fields: []obs.Field{
				obs.I("contenders", int64(contenders)),
				obs.I("granted", int64(granted)),
				obs.I("deferred", int64(deferred)),
				obs.F("pressure", pressure),
			}})
		}
	}
	if s.finj != nil && clock < s.minutes {
		s.cluster.SetPressure(s.finj.AdvancePressure(int64(clock), int64(s.minutes)))
	}
}
