package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"caasper"
	"caasper/internal/recommend"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && !supports(c.n, c.want) {
			t.Errorf("supports(%d, %g) = false", c.n, c.want)
		}
	}
	if supports(999, 99) {
		t.Error("999 samples cannot support a p99: only 9.99 lie beyond it")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestOpenLoopCountsStalls stalls one request of an open-loop lane and
// checks that the requests scheduled during the stall are charged the
// wait from their due times, while their own service stays short and the
// generator is not counted late for them.
func TestOpenLoopCountsStalls(t *testing.T) {
	const stalled, stall = 5, 60 * time.Millisecond
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stalled {
			time.Sleep(stall)
		}
		w.Write([]byte("ok\n"))
	}))
	defer ts.Close()
	rc, err := dialRaw(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const count, gap = 150, int64(time.Millisecond)
	reqs := make([]schedReq, count)
	lane := make([]int32, count)
	for i := range reqs {
		reqs[i] = schedReq{due: int64(i) * gap, kind: kindGet}
		lane[i] = int32(i)
	}
	res := make([]reqResult, count)
	openLoop(time.Now(), [][]int32{lane}, reqs, res, int64(10*time.Second), func(int, int32) (int, error) {
		status, _, err := rc.do(http.MethodGet, "/", "", nil)
		return status, err
	})

	for i, r := range res {
		if !r.ok() {
			t.Fatalf("request %d failed: %+v", i, r)
		}
	}
	if lat := res[stalled].latency(reqs[stalled]); lat < int64(stall) {
		t.Errorf("stalled request latency %v, want ≥ %v", time.Duration(lat), stall)
	}
	// Request stalled+1 was due 1 ms after the stalled one and waited
	// for it: its latency from due time must carry nearly the whole stall.
	next := stalled + 1
	if lat := res[next].latency(reqs[next]); lat < int64(stall)-2*gap {
		t.Errorf("request queued behind the stall: latency %v from due, want ≥ %v", time.Duration(lat), stall-2*time.Millisecond)
	}
	if svc := res[next].done - res[next].sent; svc > int64(stall)/2 {
		t.Errorf("request queued behind the stall: service %v, want it short", time.Duration(svc))
	}
	if late := res[next].late; late > int64(stall)/2 {
		t.Errorf("queueing behind the stall counted as generator lateness: %v", time.Duration(late))
	}
	// Well after the stall has drained, latency is back to service time.
	if lat := res[count-1].latency(reqs[count-1]); lat > int64(stall)/2 {
		t.Errorf("last request latency %v: the lane never caught up", time.Duration(lat))
	}
}

// fakeRec implements only the base Recommender interface.
type fakeRec struct{ runs int }

func (*fakeRec) Name() string          { return "fake" }
func (*fakeRec) Observe(int, float64)  {}
func (*fakeRec) Recommend(c int) int   { return c }
func (*fakeRec) Reset()                {}
func (f *fakeRec) observeRun(n int)    { f.runs += n }
func (*fakeRec) steadyObserving() bool { return true }

type fakeRun struct{ *fakeRec }

func (f fakeRun) ObserveRun(_ int, _ float64, n int) { f.observeRun(n) }

type fakeSteady struct{ *fakeRec }

func (f fakeSteady) SteadyObserving(float64) bool { return f.steadyObserving() }

type fakeBoth struct{ *fakeRec }

func (f fakeBoth) ObserveRun(_ int, _ float64, n int) { f.observeRun(n) }
func (f fakeBoth) SteadyObserving(float64) bool       { return f.steadyObserving() }

func TestWrapperForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	reactive, err := caasper.NewReactive(caasper.DefaultConfig(8), 40)
	if err != nil {
		t.Fatal(err)
	}
	proactive, err := caasper.NewProactive(caasper.DefaultConfig(8), caasper.NewSeasonalNaive(60), 40, 30, 60)
	if err != nil {
		t.Fatal(err)
	}
	vpa, err := caasper.NewKubernetesVPA(8)
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string]recommend.Recommender{
		"base": &fakeRec{}, "run": fakeRun{&fakeRec{}}, "steady": fakeSteady{&fakeRec{}}, "both": fakeBoth{&fakeRec{}},
		"reactive": reactive, "proactive": proactive, "vpa": vpa,
	}
	tr := newTracer()
	for name, rec := range recs {
		wrapped, w := wrapRecommender(rec, tr, 0)
		_, innerRun := rec.(recommend.RunObserver)
		_, innerSteady := rec.(recommend.SteadyObserver)
		run, gotRun := wrapped.(recommend.RunObserver)
		steady, gotSteady := wrapped.(recommend.SteadyObserver)
		if gotRun != innerRun || gotSteady != innerSteady {
			t.Errorf("%s: wrapper has RunObserver=%v SteadyObserver=%v, wrapped has %v/%v",
				name, gotRun, gotSteady, innerRun, innerSteady)
		}
		if gotRun {
			run.ObserveRun(0, 1, 7)
			if w.st.observeRunCalls != 1 || w.st.observeRunMinutes != 7 {
				t.Errorf("%s: ObserveRun not counted: %+v", name, w.st)
			}
		}
		if gotSteady {
			inner := rec.(recommend.SteadyObserver).SteadyObserving(1)
			if steady.SteadyObserving(1) != inner {
				t.Errorf("%s: SteadyObserving not forwarded", name)
			}
		}
		wrapped.Observe(0, 1)
		wrapped.Recommend(2)
		if w.st.observeCalls != 1 || w.st.recommendCalls != 1 {
			t.Errorf("%s: calls not counted: %+v", name, w.st)
		}
	}
	if recs["both"].(fakeBoth).runs != 7 {
		t.Error("ObserveRun did not reach the wrapped recommender")
	}
}

// TestTracedReplayMatchesUntraced replays a cut-down plateau fleet with
// and without the tracing wrappers: the results must be bit-identical.
func TestTracedReplayMatchesUntraced(t *testing.T) {
	for _, k := range []fleetKind{plateau, chaos} {
		digests := make([]string, 2)
		for i, traced := range []bool{false, true} {
			var wrap wrapFunc
			reg := &recRegistry{tr: newTracer()}
			if traced {
				wrap = reg.wrap
			}
			r, err := k.setup(7, wrap)
			if err != nil {
				t.Fatal(err)
			}
			r.specs = r.specs[:64]
			r.opts.Minutes = 2 * 1440
			if traced && r.opts.Events != nil {
				r.opts.Events = &tracedSink{inner: r.opts.Events}
			}
			o, err := runFleetOnce(r)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = o.digest + "/" + o.stream
			if traced && reg.total().recommendCalls == 0 {
				t.Errorf("%s: the traced replay counted no Recommend calls", k.name)
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: traced replay digest %s, untraced %s", k.name, digests[1], digests[0])
		}
	}
}

func TestRawClientReadsChunkedReplies(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("a", 3000)))
		w.(http.Flusher).Flush()
		w.Write([]byte("tail"))
	}))
	defer ts.Close()
	rc, err := dialRaw(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 2; i++ { // the connection is reused
		status, body, err := rc.do(http.MethodGet, "/", "", nil)
		if err != nil || status != 200 || string(body) != strings.Repeat("a", 3000)+"tail" {
			t.Fatalf("status %d err %v body %d bytes", status, err, len(body))
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported names, units and
// directions in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
		Work     []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Work), len(workloads))
	}
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}
