package fleet

import (
	"io"
	"math"
	"runtime"
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

// chaosRunAllocs runs the fleet golden's chaos configuration over 16
// mixed tenants on the stepped engine at one worker, optionally with
// the NDJSON stream into io.Discard, and returns the heap allocations
// of a run and the events the stream carried. Allocations are counted
// around the sink and Run alone (building the options' cluster formats
// node names through fmt, whose printer pool the race detector empties
// at random), and the fewest of three runs after a warm-up is kept, so
// a one-time initialisation in the process does not count.
func chaosRunAllocs(t *testing.T, minutes int, stream bool) (allocs float64, events int64) {
	t.Helper()
	specs := mixedFleet(t, 16)
	opts := chaosOpts(t, minutes, k8s.SmallCluster)
	allocs = math.Inf(1)
	for i := 0; i <= 3; i++ {
		o := opts()
		o.Workers = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var sink *obs.NDJSONSink
		if stream {
			sink = obs.NewNDJSONSink(io.Discard)
			o.Events = sink
		}
		if _, err := Run(specs, o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := float64(after.Mallocs - before.Mallocs); i > 0 && n < allocs {
			allocs = n
		}
		if stream {
			events = sink.Count()
		}
	}
	return allocs, events
}

// TestEnabledStreamAllocs pins the enabled telemetry path: fleet events
// are built in reused field buffers (runState.emit, the fault
// injector's emit) and retained only by sinks that copy them into an
// arena, so a longer horizon costs more events but not more
// allocations. It runs the chaos fleet at a 1-hour and a 4-hour
// horizon, with the stream and without a sink, and pins what the
// stream adds: its growth from one horizon to the other must stay
// within enabledAllocSlack.
func TestEnabledStreamAllocs(t *testing.T) {
	on1, e1 := chaosRunAllocs(t, 60, true)
	off1, _ := chaosRunAllocs(t, 60, false)
	on4, e4 := chaosRunAllocs(t, 240, true)
	off4, _ := chaosRunAllocs(t, 240, false)
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

// TestSteppedRunAllocsFlat pins the stepped engine with telemetry off:
// decision segments and billing periods allocate nothing, so the chaos
// fleet allocates exactly as much over 4 hours (24 segments, 4 billing
// periods per tenant) as over 1 hour (6 segments, 1 period).
func TestSteppedRunAllocsFlat(t *testing.T) {
	off1, _ := chaosRunAllocs(t, 60, false)
	off4, _ := chaosRunAllocs(t, 240, false)
	if off4 != off1 {
		t.Fatalf("the stepped run allocated %.0f times over 4 h but %.0f over 1 h", off4, off1)
	}
}
