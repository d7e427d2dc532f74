package faults

import (
	"strings"
	"testing"

	"caasper/internal/obs"
)

func TestParseSpecGrammar(t *testing.T) {
	spec, err := ParseSpec("restart-fail:p=0.1,restart-stuck:p=0.05:dur=600,metrics-gap:p=0.02,sched-pressure:cores=4")
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := spec.Get(RestartFail); !ok || f.P != 0.1 {
		t.Errorf("restart-fail = %+v, %v", f, ok)
	}
	if f, ok := spec.Get(RestartStuck); !ok || f.P != 0.05 || f.Dur != 600 {
		t.Errorf("restart-stuck = %+v, %v", f, ok)
	}
	if f, ok := spec.Get(MetricsGap); !ok || f.P != 0.02 {
		t.Errorf("metrics-gap = %+v, %v", f, ok)
	}
	// Unset parameters take kind defaults.
	if f, ok := spec.Get(SchedPressure); !ok || f.Cores != 4 || f.P != 1 || f.Dur != 300 {
		t.Errorf("sched-pressure = %+v, %v", f, ok)
	}
}

func TestParseSpecEmptyAndErrors(t *testing.T) {
	if spec, err := ParseSpec(""); err != nil || !spec.Empty() {
		t.Errorf("empty spec: %v, %v", spec, err)
	}
	if spec, err := ParseSpec("   "); err != nil || !spec.Empty() {
		t.Errorf("blank spec: %v, %v", spec, err)
	}
	for _, bad := range []string{
		"pod-explode:p=1",           // unknown kind
		"restart-fail:p=2",          // probability out of range
		"restart-fail:p=x",          // non-numeric
		"restart-stuck:dur=0",       // non-positive duration
		"sched-pressure:cores=-1",   // non-positive cores
		"restart-fail:frobnicate=1", // unknown parameter
		"restart-fail:p",            // not key=value
		"restart-fail,restart-fail", // duplicate kind
		",",                         // nothing but separators
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

// TestParseSpecRejectsNonFinite pins that the float parameters refuse
// the NaN and infinity spellings strconv.ParseFloat accepts: p=NaN would
// inject on every draw (no draw is >= NaN), and a non-finite cores or gb
// would poison capacity arithmetic.
func TestParseSpecRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"metrics-gap:p=NaN", "not a probability"},
		{"metrics-gap:p=nan", "not a probability"},
		{"restart-fail:p=Inf", "not a probability"},
		{"restart-fail:p=-Inf", "not a probability"},
		{"sched-pressure:cores=NaN", "not a positive core count"},
		{"sched-pressure:cores=Inf", "not a positive core count"},
		{"sched-pressure:cores=+Inf", "not a positive core count"},
		{"sched-pressure:cores=-Inf", "not a positive core count"},
		{"mem-pressure:gb=NaN", "not a positive GB count"},
		{"mem-pressure:gb=Infinity", "not a positive GB count"},
		{"mem-pressure:gb=-inf", "not a positive GB count"},
	} {
		_, err := ParseSpec(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%q) = %v, want an error containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	spec, err := ParseSpec("sched-pressure:cores=4,restart-fail:p=0.25")
	if err != nil {
		t.Fatal(err)
	}
	s := spec.String()
	// Canonical form: kinds sorted, parameters explicit.
	if s != "restart-fail:p=0.25,sched-pressure:p=1:dur=300:cores=4" {
		t.Errorf("String() = %q", s)
	}
	again, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != s {
		t.Errorf("round trip drifted: %q vs %q", again.String(), s)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.RestartFails("db-0", 100) || in.RestartStuck("db-0", 100) != 0 ||
		in.DropSample("db-0", 100) || in.PressureCores(100) != 0 {
		t.Error("nil injector must inject nothing")
	}
	if in.Counts().Any() || in.Summary() != "" || in.Seed() != 0 || in.Spec() != nil {
		t.Error("nil injector accessors must be zero")
	}
	spec, _ := ParseSpec("")
	if New(spec, 1) != nil {
		t.Error("empty spec must build a nil injector")
	}
}

func TestExtremeProbabilities(t *testing.T) {
	always, _ := ParseSpec("restart-fail:p=1,metrics-gap:p=1")
	in := New(always, 7)
	for now := int64(0); now < 50; now++ {
		if !in.RestartFails("db-0", now) {
			t.Fatalf("p=1 restart-fail must always fire (t=%d)", now)
		}
		if !in.DropSample("db-1", now) {
			t.Fatalf("p=1 metrics-gap must always fire (t=%d)", now)
		}
	}
	never, _ := ParseSpec("restart-fail:p=0,metrics-gap:p=0")
	in = New(never, 7)
	for now := int64(0); now < 50; now++ {
		if in.RestartFails("db-0", now) || in.DropSample("db-0", now) {
			t.Fatalf("p=0 faults must never fire (t=%d)", now)
		}
	}
}

func TestDrawRateTracksProbability(t *testing.T) {
	spec, _ := ParseSpec("metrics-gap:p=0.2")
	in := New(spec, 42)
	fired := 0
	const n = 20000
	for now := int64(0); now < n; now++ {
		if in.DropSample("db-0", now) {
			fired++
		}
	}
	rate := float64(fired) / n
	if rate < 0.17 || rate > 0.23 {
		t.Errorf("empirical rate %.3f, want ≈0.2", rate)
	}
}

// TestDrawsAreOrderIndependent pins the determinism mechanism: a draw
// depends only on (seed, kind, pod, time), never on the interleaving of
// other draws — the property that keeps fault streams byte-identical at
// any worker count.
func TestDrawsAreOrderIndependent(t *testing.T) {
	spec, _ := ParseSpec("restart-fail:p=0.5,metrics-gap:p=0.5")
	type key struct {
		pod string
		t   int64
	}
	keys := []key{{"db-0", 10}, {"db-1", 10}, {"db-0", 11}, {"db-2", 500}, {"db-1", 11}}

	forward := map[key]bool{}
	in := New(spec, 99)
	for _, k := range keys {
		forward[k] = in.RestartFails(k.pod, k.t)
		in.DropSample(k.pod, k.t) // interleave a different kind
	}
	in = New(spec, 99)
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if got := in.RestartFails(k.pod, k.t); got != forward[k] {
			t.Errorf("draw for %v depends on query order: %v vs %v", k, got, forward[k])
		}
	}
}

func TestSeedChangesOutcomes(t *testing.T) {
	spec, _ := ParseSpec("metrics-gap:p=0.5")
	a, b := New(spec, 1), New(spec, 2)
	same := true
	for now := int64(0); now < 64; now++ {
		if a.DropSample("db-0", now) != b.DropSample("db-0", now) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different fault patterns")
	}
}

func TestPressureWindowsAndEvents(t *testing.T) {
	spec, _ := ParseSpec("sched-pressure:p=1:cores=3:dur=100")
	in := New(spec, 5)
	mem := obs.NewMemorySink()
	reg := obs.NewRegistry()
	in.Events, in.Stats = mem, reg

	for now := int64(0); now < 250; now++ {
		if got := in.PressureCores(now); got != 3 {
			t.Fatalf("pressure at t=%d = %v, want 3", now, got)
		}
	}
	// Three windows (0, 100, 200) touched, each emitting exactly one
	// activation event stamped at its boundary.
	if c := in.Counts(); c.PressureWindows != 3 {
		t.Errorf("PressureWindows = %d, want 3", c.PressureWindows)
	}
	if got := reg.Counter("fault.sched_pressure_windows").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	events := mem.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	for i, want := range []int64{0, 100, 200} {
		if events[i].T != want || events[i].Type != "fault.sched-pressure" {
			t.Errorf("event %d = %v@%d", i, events[i].Type, events[i].T)
		}
	}
}

func TestInjectedFaultEventsAndCounts(t *testing.T) {
	spec, _ := ParseSpec("restart-fail:p=1,restart-stuck:p=1:dur=42,metrics-gap:p=1")
	in := New(spec, 3)
	mem := obs.NewMemorySink()
	in.Events = mem

	if !in.RestartFails("db-1", 10) {
		t.Fatal("restart-fail must fire")
	}
	if d := in.RestartStuck("db-1", 20); d != 42 {
		t.Fatalf("stuck dur = %d, want 42", d)
	}
	if !in.DropSample("db-2", 30) {
		t.Fatal("metrics-gap must fire")
	}
	c := in.Counts()
	if c.RestartFails != 1 || c.RestartStucks != 1 || c.MetricsGaps != 1 || !c.Any() {
		t.Errorf("counts = %+v", c)
	}
	var lines []string
	var buf []byte
	for _, e := range mem.Events() {
		buf = e.AppendNDJSON(buf[:0])
		lines = append(lines, string(buf))
	}
	wants := []string{
		`{"t":10,"type":"fault.restart-fail","pod":"db-1"}`,
		`{"t":20,"type":"fault.restart-stuck","pod":"db-1","dur":42}`,
		`{"t":30,"type":"fault.metrics-gap","pod":"db-2"}`,
	}
	if len(lines) != len(wants) {
		t.Fatalf("lines = %v", lines)
	}
	for i := range wants {
		if lines[i] != wants[i] {
			t.Errorf("event %d:\n got  %s\n want %s", i, lines[i], wants[i])
		}
	}
	sum := in.Summary()
	for _, want := range []string{"chaos:", "seed=3", "restart attempts failed:   1"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
