package fleet

import (
	"io"
	"testing"

	"caasper/internal/k8s"
	"caasper/internal/obs"
)

// enabledAllocSlack bounds how many more allocations the NDJSON stream
// may add to a 4-hour chaos fleet run than to a 1-hour one. The longer
// run emits hundreds more events; the slack covers buffers that double a
// few more times (the encoder's line buffer, fault buffers that outgrow
// their estimate) and nothing per event.
const enabledAllocSlack = 16

// TestEnabledStreamAllocs pins the enabled telemetry path: fleet events
// are built in reused field buffers (runState.emit, the fault
// injector's emit) and retained only by sinks that copy them into an
// arena, so a longer horizon costs more events but not more
// allocations. It runs the fleet golden's chaos configuration on the
// stepped engine at one worker, at a 1-hour and a 4-hour horizon, with
// the NDJSON stream into io.Discard and without a sink. The run itself
// allocates per decision segment and per billing period whatever the
// telemetry does, so the pin is on what the stream adds: its growth from
// one horizon to the other must stay within enabledAllocSlack.
func TestEnabledStreamAllocs(t *testing.T) {
	specs := mixedFleet(t, 16)
	run := func(minutes int, stream bool) (allocs float64, events int64) {
		opts := chaosOpts(t, minutes, k8s.SmallCluster)
		allocs = testing.AllocsPerRun(3, func() {
			o := opts()
			o.Workers = 1
			var sink *obs.NDJSONSink
			if stream {
				sink = obs.NewNDJSONSink(io.Discard)
				o.Events = sink
			}
			if _, err := Run(specs, o); err != nil {
				t.Fatal(err)
			}
			if stream {
				events = sink.Count()
			}
		})
		return allocs, events
	}
	on1, e1 := run(60, true)
	off1, _ := run(60, false)
	on4, e4 := run(240, true)
	off4, _ := run(240, false)
	t.Logf("1 h: %.0f allocs with the stream (%d events), %.0f without; 4 h: %.0f with (%d events), %.0f without",
		on1, e1, off1, on4, e4, off4)
	if e4-e1 < 10*enabledAllocSlack {
		t.Fatalf("4-hour run emitted only %d more events than the 1-hour run; too few to tell per-event allocations from slack", e4-e1)
	}
	if d := (on4 - off4) - (on1 - off1); d > enabledAllocSlack {
		t.Fatalf("the stream added %.0f more allocations at 4 h than at 1 h (%.2f per extra event), slack %d",
			d, d/float64(e4-e1), enabledAllocSlack)
	}
}
