package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"caasper"
	"caasper/internal/recommend"
)

// span is one timed call across a layer boundary, in nanoseconds since
// the tracer's origin. Parent is the id of the span that caused it (0 for
// a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; spans past it are counted,
// not kept.
const maxSpans = 1 << 18

// tracer keeps spans in memory for the length of a traced run and writes
// them out when the run ends. It is safe for concurrent use.
type tracer struct {
	origin  time.Time
	nextID  atomic.Int32
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now returns nanoseconds since the tracer's origin (monotonic clock).
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// reserve returns a fresh span id, for a span whose children are
// recorded before it ends.
func (t *tracer) reserve() int32 { return t.nextID.Add(1) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	id := t.reserve()
	t.addID(id, name, parent, start, end)
	return id
}

// addID records a finished span under a reserved id.
func (t *tracer) addID(id int32, name string, parent int32, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recSpansPerTenant bounds the recommender spans each wrapper keeps; the
// totals below count every call.
const recSpansPerTenant = 2

// recStats are one wrapped recommender's counts and busy times. A
// wrapper belongs to one tenant, which the fleet engines drive from one
// goroutine at a time, so the fields need no synchronisation.
type recStats struct {
	observeCalls      int64
	observeRunCalls   int64
	observeRunMinutes int64
	observeRunNs      int64
	recommendCalls    int64
	recommendNs       int64
}

func (s *recStats) add(o recStats) {
	s.observeCalls += o.observeCalls
	s.observeRunCalls += o.observeRunCalls
	s.observeRunMinutes += o.observeRunMinutes
	s.observeRunNs += o.observeRunNs
	s.recommendCalls += o.recommendCalls
	s.recommendNs += o.recommendNs
}

// tracedRec wraps a recommender with counts and timings. Per-minute
// Observe calls are counted, not timed, so tracing does not swamp them.
// It implements only the base interface; wrapRecommender adds exactly the
// optional interfaces the wrapped recommender has.
type tracedRec struct {
	inner  recommend.Recommender
	tr     *tracer
	parent int32
	kept   int
	st     recStats
}

func (r *tracedRec) Name() string { return r.inner.Name() }
func (r *tracedRec) Reset()       { r.inner.Reset() }

func (r *tracedRec) Observe(minute int, usage float64) {
	r.st.observeCalls++
	r.inner.Observe(minute, usage)
}

func (r *tracedRec) Recommend(current int) int {
	t0 := r.tr.now()
	out := r.inner.Recommend(current)
	t1 := r.tr.now()
	r.st.recommendCalls++
	r.st.recommendNs += t1 - t0
	r.keep("recommend.Recommend", t0, t1)
	return out
}

func (r *tracedRec) keep(name string, t0, t1 int64) {
	if r.kept < recSpansPerTenant {
		r.kept++
		r.tr.add(name, r.parent, t0, t1)
	}
}

func (r *tracedRec) observeRun(run recommend.RunObserver, minute int, usage float64, n int) {
	t0 := r.tr.now()
	run.ObserveRun(minute, usage, n)
	t1 := r.tr.now()
	r.st.observeRunCalls++
	r.st.observeRunMinutes += int64(n)
	r.st.observeRunNs += t1 - t0
	r.keep("recommend.ObserveRun", t0, t1)
}

type tracedRun struct {
	*tracedRec
	run recommend.RunObserver
}

func (r tracedRun) ObserveRun(minute int, usage float64, n int) {
	r.observeRun(r.run, minute, usage, n)
}

type tracedSteady struct {
	*tracedRec
	steady recommend.SteadyObserver
}

func (r tracedSteady) SteadyObserving(usage float64) bool { return r.steady.SteadyObserving(usage) }

type tracedRunSteady struct {
	*tracedRec
	run    recommend.RunObserver
	steady recommend.SteadyObserver
}

func (r tracedRunSteady) ObserveRun(minute int, usage float64, n int) {
	r.observeRun(r.run, minute, usage, n)
}

func (r tracedRunSteady) SteadyObserving(usage float64) bool { return r.steady.SteadyObserving(usage) }

// wrapRecommender wraps rec and forwards exactly the optional engine
// interfaces (recommend.RunObserver, recommend.SteadyObserver) rec
// implements. Forwarding fewer would silently send the event engine down
// its per-minute replay path; forwarding more would claim capabilities
// rec lacks. Either way the trace would measure another program.
func wrapRecommender(rec recommend.Recommender, tr *tracer, parent int32) (recommend.Recommender, *tracedRec) {
	w := &tracedRec{inner: rec, tr: tr, parent: parent}
	run, isRun := rec.(recommend.RunObserver)
	steady, isSteady := rec.(recommend.SteadyObserver)
	switch {
	case isRun && isSteady:
		return tracedRunSteady{w, run, steady}, w
	case isRun:
		return tracedRun{w, run}, w
	case isSteady:
		return tracedSteady{w, steady}, w
	}
	return w, w
}

// recRegistry collects the wrappers a fleet's recommender factories
// create, so their counts can be summed after the run.
type recRegistry struct {
	tr     *tracer
	parent int32
	mu     sync.Mutex
	recs   []*tracedRec
}

func (g *recRegistry) wrap(rec caasper.Recommender) caasper.Recommender {
	out, w := wrapRecommender(rec, g.tr, g.parent)
	g.mu.Lock()
	g.recs = append(g.recs, w)
	g.mu.Unlock()
	return out
}

func (g *recRegistry) total() recStats {
	var s recStats
	for _, w := range g.recs {
		s.add(w.st)
	}
	return s
}

// tracedSink wraps an event sink with an Emit count and busy time.
type tracedSink struct {
	inner caasper.EventSink
	calls atomic.Int64
	ns    atomic.Int64
}

func (s *tracedSink) Enabled() bool { return s.inner.Enabled() }
func (s *tracedSink) Flush() error  { return s.inner.Flush() }

func (s *tracedSink) Emit(e caasper.Event) {
	t0 := time.Now()
	s.inner.Emit(e)
	s.ns.Add(int64(time.Since(t0)))
	s.calls.Add(1)
}

// digestWriter hashes and counts everything written to it and keeps
// nothing: the event stream's correctness digest without its storage.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (w *digestWriter) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

func (w *digestWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

// reqIDHeader carries the load generator's request index to the traced
// handler, which stores the handler time in that request's slot.
const reqIDHeader = "X-Perfbench-Req"

// handlerSpanEvery samples one handler span in this many requests.
const handlerSpanEvery = 32

// tracedHandler times every ServeHTTP call into a per-request slot and
// keeps a sample of them as spans.
type tracedHandler struct {
	inner  http.Handler
	tr     *tracer
	parent int32
	slots  []atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := h.tr.now()
	h.inner.ServeHTTP(w, r)
	t1 := h.tr.now()
	id, err := strconv.Atoi(r.Header.Get(reqIDHeader))
	if err != nil || id < 0 || id >= len(h.slots) {
		return
	}
	h.slots[id].Store(t1 - t0)
	if id%handlerSpanEvery == 0 {
		h.tr.add("serve.ServeHTTP", h.parent, t0, t1)
	}
}
