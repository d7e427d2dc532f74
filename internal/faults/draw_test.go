package faults

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"
)

// TestDrawMatchesMathRand pins the closed-form draw to the stdlib value
// it replaces: the first Float64 of a fresh math/rand source, for the
// seed-reduction edge cases and a spread of pseudo-random keys.
func TestDrawMatchesMathRand(t *testing.T) {
	check := func(seed int64) {
		t.Helper()
		want := rand.New(rand.NewSource(seed)).Float64()
		if got := firstFloat64(seed); got != want {
			t.Fatalf("firstFloat64(%d) = %v, want %v", seed, got, want)
		}
	}
	const m = lehmerMod
	for _, s := range []int64{
		0, 1, -1, m, -m, m - 1, -(m - 1), m + 1, -(m + 1),
		2 * m, -2 * m, 1000 * m, -1000 * m, (math.MaxInt64 / m) * m, (math.MinInt64 / m) * m,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		zeroSeed, -zeroSeed, zeroSeed + m,
	} {
		check(s)
	}
	pcg := randv2.New(randv2.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		check(int64(pcg.Uint64()))
	}
	// Small reduced seeds exercise the low end of the LCG range.
	for s := int64(-500); s <= 500; s++ {
		check(s)
	}
}

// TestHooksDoNotAllocate pins the per-query cost of a live injector
// without sinks: no draw builds a PRNG, and a firing hook builds no
// event. DropSample and PressureCores fire on every query here (p=1,
// one-second pressure windows), so a single allocation per fire shows
// up as 1 alloc per run; NextGap scans 600 minutes at p=0.05.
func TestHooksDoNotAllocate(t *testing.T) {
	firing, err := ParseSpec("metrics-gap:p=1,sched-pressure:p=1:dur=1:cores=4")
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := ParseSpec("metrics-gap:p=0.05")
	if err != nil {
		t.Fatal(err)
	}
	in, probe := New(firing, 7), New(sparse, 7)
	now := int64(0)
	for name, f := range map[string]func(){
		"DropSample":    func() { in.DropSample("db-0", now); now++ },
		"NextGap":       func() { probe.NextGap("db-0", now, now+600); now++ },
		"PressureCores": func() { in.PressureCores(now); now++ },
	} {
		if a := testing.AllocsPerRun(1000, f); a != 0 {
			t.Errorf("%s: %v allocs per query, want 0", name, a)
		}
	}
	if c := in.Counts(); c.MetricsGaps == 0 || c.PressureWindows == 0 {
		t.Fatalf("hooks never fired: %+v", c)
	}
}

// benchDropped and benchGap keep the benchmarked results live.
var (
	benchDropped bool
	benchGap     int64
)

// BenchmarkDropSample measures one metrics-gap query on a live injector
// (no sinks), the per-tenant-minute cost the stepped fleet engine pays.
func BenchmarkDropSample(b *testing.B) {
	spec, err := ParseSpec("metrics-gap:p=0.05")
	if err != nil {
		b.Fatal(err)
	}
	in := New(spec, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchDropped = in.DropSample("tenant-0042-0", int64(i))
	}
}

// BenchmarkNextGap measures the events engine's gap probe over one
// 10-minute decision interval at p=0.05 (most spans scan all ten).
func BenchmarkNextGap(b *testing.B) {
	spec, err := ParseSpec("metrics-gap:p=0.05")
	if err != nil {
		b.Fatal(err)
	}
	in := New(spec, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		from := int64(i) * 10
		benchGap = in.NextGap("tenant-0042-0", from, from+10)
	}
}

// TestKeyCacheMatchesFreshInjector checks the draw-key cache: one
// injector answering a long random mix of kinds and pods (the cache
// refolding on every change of either) must answer every query exactly
// as a fresh injector, whose cache is empty, answers it alone.
func TestKeyCacheMatchesFreshInjector(t *testing.T) {
	spec, err := ParseSpec("restart-fail:p=0.5,restart-stuck:p=0.5:dur=30,metrics-gap:p=0.5," +
		"sched-pressure:p=0.5:dur=7:cores=2,mem-pressure:p=0.5:dur=5:gb=1")
	if err != nil {
		t.Fatal(err)
	}
	pods := []string{"db-0", "db-1", "", "db-0-replica", "d"}
	query := func(in *Injector, q int, pod string, now int64) float64 {
		switch q {
		case 0:
			if in.RestartFails(pod, now) {
				return 1
			}
			return 0
		case 1:
			return float64(in.RestartStuck(pod, now))
		case 2:
			if in.DropSample(pod, now) {
				return 1
			}
			return 0
		case 3:
			return float64(in.NextGap(pod, now, now+20))
		case 4:
			return in.PressureCores(now)
		default:
			return in.MemPressureGB(pod, now)
		}
	}
	rng := randv2.New(randv2.NewPCG(3, 4))
	in := New(spec, 11)
	for i := 0; i < 5000; i++ {
		q, pod, now := rng.IntN(6), pods[rng.IntN(len(pods))], rng.Int64N(1000)
		if got, want := query(in, q, pod, now), query(New(spec, 11), q, pod, now); got != want {
			t.Fatalf("query %d (hook %d, pod %q, t=%d) = %v after a cached key, %v fresh", i, q, pod, now, got, want)
		}
	}
}
