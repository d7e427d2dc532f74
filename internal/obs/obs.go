// Package obs is the repository's structured telemetry layer: a
// stdlib-only event stream, metrics registry and timing toolkit shared by
// the decision core, the trace-driven simulator, the Kubernetes substrate,
// the parallel evaluation engine, the tuning harness and every CLI.
//
// Two kinds of telemetry flow through it, with different contracts:
//
//   - Events (this file) are the decision audit trail: structured records
//     keyed on *simulated* time, encoded as NDJSON with a stable field
//     order. Given the same inputs a run emits a bit-identical stream for
//     every worker count — the golden event-stream tests pin this.
//
//   - Metrics (metrics.go) are runtime counters, gauges and latency
//     histograms measured on the wall clock. They describe how fast the
//     engine ran, not what it decided, and are deliberately excluded from
//     the determinism contract.
//
// The hot paths guard every emission behind a nil/Enabled check, so with
// telemetry disabled (the default) the layer costs one predictable branch
// per potential event and allocates nothing.
package obs

import (
	"bufio"
	"io"
	"slices"
	"strconv"
	"sync"
)

// Event is one structured telemetry record. T is simulated time in the
// emitting layer's native unit (minutes in the simulator, seconds on the
// Kubernetes substrate, sample indices in the tuning harness); Type is a
// dotted lower-case name ("core.decision", "k8s.resize-completed");
// Fields preserve emission order, which is what makes the NDJSON encoding
// deterministic.
type Event struct {
	T      int64
	Type   string
	Fields []Field
}

// Field is one key/value pair of an event. Values are restricted to the
// four kinds the telemetry schema uses (string, float, int, bool) so that
// encoding never reflects and never varies across runs.
type Field struct {
	Key  string
	kind fieldKind
	s    string
	f    float64
	i    int64
}

type fieldKind uint8

const (
	kindString fieldKind = iota
	kindFloat
	kindInt
	kindBool
)

// S builds a string field.
func S(key, v string) Field { return Field{Key: key, kind: kindString, s: v} }

// F builds a float field.
func F(key string, v float64) Field { return Field{Key: key, kind: kindFloat, f: v} }

// I builds an integer field.
func I(key string, v int64) Field { return Field{Key: key, kind: kindInt, i: v} }

// B builds a boolean field.
func B(key string, v bool) Field {
	var i int64
	if v {
		i = 1
	}
	return Field{Key: key, kind: kindBool, i: i}
}

// AppendNDJSON appends the event's single-line JSON encoding (no trailing
// newline) to dst and returns it. The encoding is byte-deterministic:
// fields appear in emission order, floats use the shortest round-trippable
// form, and NaN/Inf (never produced by healthy emitters) encode as null.
func (e Event) AppendNDJSON(dst []byte) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, e.T, 10)
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, e.Type)
	for _, f := range e.Fields {
		dst = append(dst, ',')
		dst = appendJSONString(dst, f.Key)
		dst = append(dst, ':')
		switch f.kind {
		case kindString:
			dst = appendJSONString(dst, f.s)
		case kindFloat:
			dst = appendJSONFloat(dst, f.f)
		case kindInt:
			dst = strconv.AppendInt(dst, f.i, 10)
		case kindBool:
			if f.i != 0 {
				dst = append(dst, `true`...)
			} else {
				dst = append(dst, `false`...)
			}
		}
	}
	return append(dst, '}')
}

// appendJSONString appends a JSON-escaped quoted string. Printable
// characters (including multi-byte UTF-8, which the decision explanations
// use) pass through untouched; quotes, backslashes and control characters
// are escaped per RFC 8259. Event keys, types and most values need no
// escaping, so the bytes before the first one that does are appended in
// one copy.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	i := 0
	for i < len(s) && !needsEscape(s[i]) {
		i++
	}
	dst = append(dst, s[:i]...)
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// needsEscape reports whether appendJSONString must escape byte c.
func needsEscape(c byte) bool { return c < 0x20 || c == '"' || c == '\\' }

// appendJSONFloat appends a float in shortest round-trippable form;
// non-finite values become null (JSON has no representation for them).
func appendJSONFloat(dst []byte, v float64) []byte {
	if v != v || v > maxFinite || v < -maxFinite {
		return append(dst, `null`...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

const maxFinite = 1.7976931348623157e308

// Sink consumes structured events. Implementations must be safe for
// concurrent Emit calls; the determinism contract is the *emitters'*
// responsibility (a single simulation run emits sequentially; multi-run
// drivers buffer per run and replay in run order — see sim.RunMatrix).
type Sink interface {
	// Enabled reports whether emissions are consumed. Emitters check it
	// (or Enabled(sink)) before building an event, so a disabled sink
	// costs one branch and zero allocations per call site.
	Enabled() bool
	// Emit consumes one event. Implementations that retain the event past
	// the call (buffers, replayers) must copy its Fields, because callers
	// are allowed to reuse the Fields backing array for the next event —
	// that reuse is what keeps hot emit sites allocation-free. Encoding
	// sinks that serialize before returning need no copy.
	Emit(e Event)
	// Flush forces buffered output down to the underlying writer.
	Flush() error
}

// Enabled reports whether s is a non-nil, enabled sink — the standard
// emission guard.
func Enabled(s Sink) bool { return s != nil && s.Enabled() }

// Discard is the no-op sink: disabled, so guarded emitters skip event
// construction entirely and the telemetry layer compiles down to a
// predictable branch per call site.
var Discard Sink = nopSink{}

type nopSink struct{}

func (nopSink) Enabled() bool { return false }
func (nopSink) Emit(Event)    {}
func (nopSink) Flush() error  { return nil }

// NDJSONSink encodes events as newline-delimited JSON onto a writer. It
// is safe for concurrent use; lines are written atomically under a mutex,
// and the encoding buffer is reused across events.
type NDJSONSink struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	buf   []byte
	count int64
	err   error
}

// NewNDJSONSink wraps w (buffered internally; call Flush before reading
// the output).
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{bw: bufio.NewWriter(w)}
}

// Enabled implements Sink.
func (s *NDJSONSink) Enabled() bool { return true }

// Emit implements Sink. Write errors are sticky: the first one is kept
// (see Err) and later emissions become no-ops, so a dying disk does not
// take the run down with it.
func (s *NDJSONSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.buf = e.AppendNDJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	if _, err := s.bw.Write(s.buf); err != nil {
		s.err = err
		return
	}
	s.count++
}

// Flush implements Sink.
func (s *NDJSONSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Count returns the number of events successfully encoded.
func (s *NDJSONSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Err returns the sticky write error, if any.
func (s *NDJSONSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// FieldArena is chunked storage for the Fields of retained events. The
// Sink contract lets emitters reuse their Fields backing array as soon as
// Emit returns, so every sink that keeps events past the call (MemorySink,
// the fleet's shard buffers) copies the fields in here first. Growth opens
// a fresh chunk instead of reallocating: fields already copied stay where
// they are (immutable, alive until the events holding them are), and a
// long capture never re-copies what it already copied. The zero value is
// ready to use; it is not safe for concurrent use.
type FieldArena struct {
	buf []Field
}

// firstChunk is the first chunk of an arena nobody sized with Reserve.
const firstChunk = 512

// Copy appends fs to the arena and returns the copy, capped so that a
// later append to it cannot write into the arena.
func (a *FieldArena) Copy(fs []Field) []Field {
	n := len(fs)
	if n == 0 {
		return fs[:0:0]
	}
	if cap(a.buf)-len(a.buf) < n {
		size := 2 * cap(a.buf)
		if size == 0 {
			size = firstChunk
		}
		a.Reserve(max(size, n))
	}
	start := len(a.buf)
	a.buf = append(a.buf, fs...)
	return a.buf[start:len(a.buf):len(a.buf)]
}

// Reserve makes room for n more fields without opening another chunk.
func (a *FieldArena) Reserve(n int) {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]Field, 0, n)
	}
}

// Reset recycles the arena's current chunk for new fields. Fields copied
// before the Reset must no longer be read.
func (a *FieldArena) Reset() { a.buf = a.buf[:0] }

// MemorySink collects events in memory — the buffering half of the
// multi-run determinism story (per-run capture, ordered replay) and the
// assertion surface of the golden event-stream tests.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
	// arena backs the collected events' Fields, so a long capture costs
	// one growing arena instead of one slice per event — and a Reset sink
	// reuses it for the next run.
	arena FieldArena
}

// NewMemorySink returns an empty collecting sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Enabled implements Sink.
func (m *MemorySink) Enabled() bool { return true }

// Emit implements Sink. The event's Fields are copied into the sink's
// arena, so callers may reuse their backing array immediately.
func (m *MemorySink) Emit(e Event) {
	m.mu.Lock()
	e.Fields = m.arena.Copy(e.Fields)
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Reserve makes room for events more events carrying fields fields in
// total, so a sink whose load can be estimated up front collects it
// without growing. Sinks left unsized start at a 512-field chunk.
func (m *MemorySink) Reserve(events, fields int) {
	m.mu.Lock()
	m.events = slices.Grow(m.events, events)
	m.arena.Reserve(fields)
	m.mu.Unlock()
}

// Flush implements Sink.
func (m *MemorySink) Flush() error { return nil }

// Events returns the collected events in emission order. The events'
// Fields alias the sink's internal arena: they are immutable, but only
// valid until the next Reset (which recycles the arena for new events) —
// consume or deep-copy them before resetting.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Len returns the number of collected events.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// Reset discards the collected events but keeps the backing storage, so
// a sink can be pooled across runs instead of reallocated.
func (m *MemorySink) Reset() {
	m.mu.Lock()
	m.events = m.events[:0]
	m.arena.Reset()
	m.mu.Unlock()
}

// ReplayTo re-emits every event collected so far into dst in order,
// reading the sink's buffer in place rather than through a copy. Events
// emitted into m during the replay are not replayed, so replaying a sink
// into itself appends exactly one copy of each of its events. m must not
// be Reset while the replay runs.
func (m *MemorySink) ReplayTo(dst Sink) {
	if !Enabled(dst) {
		return
	}
	// Collected events are never modified in place (Emit only appends,
	// and arena fields are immutable), so the snapshot's elements stay
	// valid without the lock — which must not be held, since dst may be m.
	m.mu.Lock()
	evs := m.events
	m.mu.Unlock()
	for _, e := range evs {
		dst.Emit(e)
	}
}

// Span is a simulated-time interval under construction: begin it at the
// start of an operation, End it when the operation completes, and one
// event typed after the span is emitted carrying t = start and the
// simulated duration. A zero Span (disabled sink) is inert.
type Span struct {
	sink  Sink
	typ   string
	start int64
}

// StartSpan opens a span at simulated time start. No event is emitted
// until End.
func StartSpan(sink Sink, typ string, start int64) Span {
	if !Enabled(sink) {
		return Span{}
	}
	return Span{sink: sink, typ: typ, start: start}
}

// End closes the span at simulated time end, emitting the span event with
// a "dur" field followed by any extra fields.
func (sp Span) End(end int64, extra ...Field) {
	if sp.sink == nil {
		return
	}
	fields := make([]Field, 0, 1+len(extra))
	fields = append(fields, I("dur", end-sp.start))
	fields = append(fields, extra...)
	sp.sink.Emit(Event{T: sp.start, Type: sp.typ, Fields: fields})
}
