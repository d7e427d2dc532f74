package fleet

import (
	"fmt"
	"testing"

	"caasper/internal/obs"
)

// TestRetainingSinksCopyFields is the obs.Sink contract check for every
// sink in the module that keeps events past Emit: emitters (runState.emit,
// the fault injector) build every event in one reused Fields buffer, so a
// retaining sink that kept the caller's slice instead of a copy would see
// each retained event rewritten by the next. Each sink receives more
// events than a first arena chunk holds, through one buffer overwritten
// after every call, and must hand back exactly what was emitted.
func TestRetainingSinksCopyFields(t *testing.T) {
	mem := obs.NewMemorySink()
	shard := &shardSink{}
	sinks := []struct {
		name     string
		sink     obs.Sink
		retained func() []obs.Event
	}{
		{"obs.MemorySink", mem, mem.Events},
		{"fleet.shardSink", shard, func() []obs.Event { return shard.evs }},
	}
	const n = 700 // MemorySink's first arena chunk holds 512 fields
	event := func(i int, buf []obs.Field) obs.Event {
		buf = append(buf[:0], obs.S("tenant", fmt.Sprintf("t%04d", i)), obs.I("i", int64(i)))
		for k := 0; k < i%5; k++ {
			buf = append(buf, obs.F(fmt.Sprintf("f%d", k), float64(i)/7))
		}
		return obs.Event{T: int64(i), Type: "fleet.test", Fields: buf}
	}
	for _, c := range sinks {
		t.Run(c.name, func(t *testing.T) {
			var buf []obs.Field
			for i := 0; i < n; i++ {
				e := event(i, buf)
				c.sink.Emit(e)
				buf = e.Fields[:cap(e.Fields)]
				for k := range buf {
					buf[k] = obs.S("overwritten", "after Emit returned")
				}
			}
			got := c.retained()
			if len(got) != n {
				t.Fatalf("retained %d events, want %d", len(got), n)
			}
			for i, e := range got {
				want := string(event(i, nil).AppendNDJSON(nil))
				if line := string(e.AppendNDJSON(nil)); line != want {
					t.Fatalf("retained event %d = %s, want %s", i, line, want)
				}
			}
		})
	}
}
