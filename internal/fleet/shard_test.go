package fleet

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/k8s"
)

// TestShardPartition pins the partition law directly: connected
// components of the tenant–node placement graph, groups ordered by
// smallest member, members ascending within a group.
func TestShardPartition(t *testing.T) {
	// placedTenant builds a bare tenant whose pods sit on the named nodes
	// ("" leaves a pod unplaced) — enough structure for shardPartition,
	// which reads only set.Pods.
	nodes := map[string]*k8s.Node{}
	placedTenant := func(names ...string) *tenant {
		set := &k8s.StatefulSet{}
		for _, name := range names {
			n := nodes[name]
			if n == nil && name != "" {
				n = k8s.NewNode(name, 1, 1)
				nodes[name] = n
			}
			set.Pods = append(set.Pods, &k8s.Pod{Node: n})
		}
		return &tenant{set: set}
	}
	cases := []struct {
		name        string
		ts          []*tenant
		wantIdxs    []int32
		wantOffsets []int32
	}{
		{
			name: "disjoint singletons",
			ts: []*tenant{
				placedTenant("n1"), placedTenant("n2"), placedTenant("n3"),
			},
			wantIdxs:    []int32{0, 1, 2},
			wantOffsets: []int32{0, 1, 2, 3},
		},
		{
			name: "transitive chain via shared nodes",
			// t0–n1–t2 and t2–n3–t3 connect {0,2,3}; t1 stays alone.
			ts: []*tenant{
				placedTenant("n1"),
				placedTenant("n2"),
				placedTenant("n1", "n3"),
				placedTenant("n3"),
				placedTenant("n4"),
			},
			wantIdxs:    []int32{0, 2, 3, 1, 4},
			wantOffsets: []int32{0, 3, 4, 5},
		},
		{
			name: "one clique",
			ts: []*tenant{
				placedTenant("n1"), placedTenant("n1"), placedTenant("n1"),
			},
			wantIdxs:    []int32{0, 1, 2},
			wantOffsets: []int32{0, 3},
		},
		{
			name: "unplaced pods are singletons",
			// A nil Node (pod not yet scheduled) must not weld
			// every such tenant into one false mega-shard.
			ts: []*tenant{
				placedTenant(""), placedTenant(""), placedTenant("n1"),
			},
			wantIdxs:    []int32{0, 1, 2},
			wantOffsets: []int32{0, 1, 2, 3},
		},
		{
			name: "multi-replica spread joins groups",
			// t1's replicas land on both n1 and n2, merging t0 and t2.
			ts: []*tenant{
				placedTenant("n1"),
				placedTenant("n1", "n2"),
				placedTenant("n2"),
			},
			wantIdxs:    []int32{0, 1, 2},
			wantOffsets: []int32{0, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idxs, offsets := shardPartition(tc.ts)
			if !reflect.DeepEqual(idxs, tc.wantIdxs) || !reflect.DeepEqual(offsets, tc.wantOffsets) {
				t.Errorf("shardPartition = %v %v, want %v %v", idxs, offsets, tc.wantIdxs, tc.wantOffsets)
			}
		})
	}
}

// TestShardingValidation: the two sharding modes (plus the empty
// default) validate; anything else is a config error.
func TestShardingValidation(t *testing.T) {
	for _, good := range []string{"", ShardingAuto, ShardingOff} {
		opts := DefaultOptions()
		opts.Sharding = good
		if err := opts.Validate(); err != nil {
			t.Errorf("Sharding=%q rejected: %v", good, err)
		}
	}
	opts := DefaultOptions()
	opts.Sharding = "sideways"
	err := opts.Validate()
	if err == nil {
		t.Fatal("sharding \"sideways\" accepted")
	}
	if !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("got %v, want ErrInvalidConfig", err)
	}
}

// TestEventsEngineMultiResourceRejection pins the guidance error for the
// one capability gap: multi-resource tenants need the stepped engine,
// and the rejection must say so (naming the engine and the workaround)
// while still unwrapping to ErrInvalidConfig. The same fleet on the
// stepped engine runs fine — proof the rejection is about the engine,
// not the config.
func TestEventsEngineMultiResourceRejection(t *testing.T) {
	mkSpecs := func() []TenantSpec {
		specs := mixedFleet(t, 4)
		specs[2].Resources = core.ResourceRange{
			Initial: core.Resources{CPUCores: 2, RAMGB: 4},
			Limits: core.Limits{
				Min: core.Resources{CPUCores: 1, RAMGB: 4},
				Max: core.Resources{CPUCores: 8, RAMGB: 16},
			},
		}
		return specs
	}
	opts := func(engine string) Options {
		o := DefaultOptions()
		o.Minutes = 60
		o.Engine = engine
		return withSmallCluster(o)
	}

	if _, err := Run(mkSpecs(), opts(EngineStepped)); err != nil {
		t.Fatalf("stepped engine rejected the multi-resource fleet: %v", err)
	}

	_, err := Run(mkSpecs(), opts(EngineEvents))
	if err == nil {
		t.Fatal("events engine accepted a multi-resource fleet")
	}
	if !errors.Is(err, errs.ErrInvalidConfig) {
		t.Errorf("error does not unwrap to ErrInvalidConfig: %v", err)
	}
	for _, want := range []string{`"events"`, "-engine stepped", "t02"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
