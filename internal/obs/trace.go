package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceCapacity is the span ring-buffer size NewTracer/NewHub use:
// large enough to hold several epochs of bucket/prefetch/write-back spans,
// small enough (a few MB) that an always-on tracer is cheap.
const DefaultTraceCapacity = 1 << 16

// SpanEvent is one completed span as stored in the tracer's ring buffer.
type SpanEvent struct {
	// Name describes the operation ("bucket (3,4)", "load t0 p3", …).
	Name string
	// Track groups spans into one timeline row per subsystem ("train",
	// "storage", "dist"); the Chrome trace export maps each track to a tid.
	Track string
	// Start and Dur delimit the span in wall time.
	Start time.Time
	Dur   time.Duration
	// ID identifies this span; Parent is the enclosing span's ID (0 for
	// roots), so exported traces preserve the nesting the code expressed
	// via Span.Child.
	ID, Parent int64
}

// Tracer records completed spans into a bounded ring buffer: when the
// buffer is full the oldest spans are overwritten, so a long run keeps the
// most recent window instead of growing without bound. All methods are
// safe for concurrent use, and all methods on a nil *Tracer are no-ops —
// instrumented code never branches on whether tracing is enabled.
type Tracer struct {
	ids atomic.Int64

	mu   sync.Mutex
	buf  []SpanEvent
	head int   // next write position
	n    int64 // total events ever recorded
}

// NewTracer returns a tracer whose ring holds capacity completed spans
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]SpanEvent, capacity)}
}

// Span is one in-flight span; End completes it into the tracer's ring.
// A nil *Span (from a nil tracer) is inert: Child returns nil, End is a
// no-op.
type Span struct {
	t      *Tracer
	name   string
	track  string
	id     int64
	parent int64
	start  time.Time
}

// Start opens a root span on the given track. Returns nil when t is nil.
func (t *Tracer) Start(track, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, track: track, name: name, id: t.ids.Add(1), start: time.Now()}
}

// StartUnder opens a span whose parent is identified by ID alone — a span
// that lives on the other side of a connection, named by the span ID its
// request carried. parent 0 is Start. Returns nil when t is nil.
func (t *Tracer) StartUnder(parent int64, track, name string) *Span {
	sp := t.Start(track, name)
	if sp != nil {
		sp.parent = parent
	}
	return sp
}

// ID identifies the span to Tracer.StartUnder; 0 for a nil span.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child opens a span nested under s, on s's track.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, track: s.track, name: name, id: s.t.ids.Add(1), parent: s.id, start: time.Now()}
}

// End completes the span and records it. Recording happens at End, so
// spans land in the ring in completion order; Events re-sorts by start
// time for consumers that need timeline order.
func (s *Span) End() {
	if s == nil {
		return
	}
	ev := SpanEvent{
		Name: s.name, Track: s.track,
		Start: s.start, Dur: time.Since(s.start),
		ID: s.id, Parent: s.parent,
	}
	t := s.t
	t.mu.Lock()
	t.buf[t.head] = ev
	t.head = (t.head + 1) % len(t.buf)
	t.n++
	t.mu.Unlock()
}

// Len reports how many spans the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(min64(t.n, int64(len(t.buf))))
}

// Dropped reports how many spans were overwritten by newer ones.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= int64(len(t.buf)) {
		return 0
	}
	return t.n - int64(len(t.buf))
}

// Events returns a copy of the buffered spans sorted by start time.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []SpanEvent
	if t.n >= int64(len(t.buf)) {
		out = append(out, t.buf[t.head:]...)
		out = append(out, t.buf[:t.head]...)
	} else {
		out = append(out, t.buf[:t.head]...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// chromeEvent is one entry of the Chrome trace_event format ("X" complete
// events plus "M" metadata naming the tracks), the JSON that
// chrome://tracing and Perfetto open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the buffered spans as Chrome trace_event JSON.
// Tracks become named threads; span parent IDs ride in args so the nesting
// the code expressed survives even when Perfetto re-derives slice stacks
// from timing alone.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	var base time.Time
	if len(events) > 0 {
		base = events[0].Start
	}
	tids := map[string]int{}
	var out []chromeEvent
	for _, ev := range events {
		tid, ok := tids[ev.Track]
		if !ok {
			tid = len(tids) + 1
			tids[ev.Track] = tid
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": ev.Track},
			})
		}
		out = append(out, chromeEvent{
			Name: ev.Name, Cat: ev.Track, Ph: "X",
			Ts:  float64(ev.Start.Sub(base).Nanoseconds()) / 1e3,
			Dur: float64(ev.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": ev.ID, "parent": ev.Parent},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
