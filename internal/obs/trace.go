package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects a forest of spans. One tracer typically covers one
// CLI invocation or one daemon request; it is safe for concurrent use
// by the worker pool (children of one span may start and end on many
// goroutines).
//
// A tracer can be pooled: Reset returns every recorded span to an
// internal freelist so the flight recorder's steady state allocates
// nothing, and Acquire/Release let detached work (the server's
// cache-miss analyses) pin a tracer against recycling while it still
// writes spans into it.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	roots []*Span

	// sampler decides per root span whether to record it (nil = always).
	// Descendants of an unsampled root are suppressed with it.
	sampler func(root string) bool
	limit   atomic.Int64 // max recorded spans (0 = unlimited)

	spans   atomic.Int64
	dropped atomic.Int64

	// idctr is the splitmix64 state for trace/span ID generation,
	// seeded once from crypto/rand.
	idctr atomic.Uint64

	// busy counts holders that may still start spans (Acquire/Release);
	// a pooled tracer is only recycled when it reaches zero.
	busy atomic.Int64

	freeMu sync.Mutex
	free   []*Span
}

// NewTracer returns an always-on tracer with no span limit.
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now()}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		t.idctr.Store(binary.BigEndian.Uint64(seed[:]))
	} else {
		t.idctr.Store(uint64(time.Now().UnixNano()))
	}
	return t
}

// Epoch returns the tracer's time origin (creation or last Reset);
// exported Chrome trace timestamps are relative to it.
func (t *Tracer) Epoch() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// SetSampler installs a per-root sampling decision. The sampler sees
// the root span name; returning false suppresses that root and every
// descendant. Child spans always follow their root's decision, so a
// sampled trace is never missing interior nodes.
func (t *Tracer) SetSampler(f func(root string) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sampler = f
}

// SetLimit bounds the number of recorded spans (0 = unlimited). Spans
// started beyond the limit are counted as dropped and not recorded;
// their descendants attach to the nearest recorded ancestor.
func (t *Tracer) SetLimit(n int) {
	t.limit.Store(int64(n))
}

// NthSampler returns a deterministic sampler admitting every n-th root
// span (n <= 1 admits all).
func NthSampler(n int) func(string) bool {
	if n <= 1 {
		return func(string) bool { return true }
	}
	var c atomic.Int64
	return func(string) bool { return (c.Add(1)-1)%int64(n) == 0 }
}

// SpanCount reports the number of recorded spans.
func (t *Tracer) SpanCount() int { return int(t.spans.Load()) }

// Dropped reports the number of spans suppressed by the span limit
// (sampled-out roots are not counted; sampling is policy, not loss).
func (t *Tracer) Dropped() int { return int(t.dropped.Load()) }

// Roots returns the recorded root spans in start order.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// peekRoot returns the first recorded root and the root count without
// copying — the flight recorder's allocation-free capture path.
func (t *Tracer) peekRoot() (*Span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.roots) == 0 {
		return nil, 0
	}
	return t.roots[0], len(t.roots)
}

// Acquire pins the tracer against recycling: Reset callers (the
// flight-recorder pool) must not recycle a tracer while InUse reports
// true. Nil-safe.
func (t *Tracer) Acquire() {
	if t != nil {
		t.busy.Add(1)
	}
}

// Release undoes one Acquire. Nil-safe.
func (t *Tracer) Release() {
	if t != nil {
		t.busy.Add(-1)
	}
}

// InUse reports whether any Acquire is outstanding.
func (t *Tracer) InUse() bool { return t.busy.Load() > 0 }

// Reset detaches every recorded span into the tracer's freelist and
// rewinds the epoch, counters, and ID state for reuse, so a pooled
// tracer serves its next request without heap allocation. The caller
// must guarantee no goroutine still starts or reads spans (InUse
// false and all exports finished).
func (t *Tracer) Reset() {
	t.mu.Lock()
	// The exclusive-access contract lets us walk the forest in place:
	// no copies, so a pooled tracer's reset is allocation-free.
	for _, r := range t.roots {
		t.releaseTree(r)
	}
	for i := range t.roots {
		t.roots[i] = nil
	}
	t.roots = t.roots[:0]
	t.epoch = time.Now()
	t.mu.Unlock()
	t.spans.Store(0)
	t.dropped.Store(0)
}

// releaseTree recycles a span and its descendants into the freelist.
// Caller guarantees exclusive access (Reset's contract).
func (t *Tracer) releaseTree(s *Span) {
	for _, c := range s.children {
		t.releaseTree(c)
	}
	s.recycle()
	t.freeMu.Lock()
	t.free = append(t.free, s)
	t.freeMu.Unlock()
}

// allocSpan takes a span from the freelist or allocates a fresh one.
func (t *Tracer) allocSpan() *Span {
	t.freeMu.Lock()
	if n := len(t.free); n > 0 {
		sp := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		t.freeMu.Unlock()
		return sp
	}
	t.freeMu.Unlock()
	return &Span{tracer: t}
}

// splitmix64 is the SplitMix64 output finalizer; with a golden-ratio
// counter it yields a full-period, well-mixed 64-bit sequence.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (t *Tracer) nextID() uint64 {
	return splitmix64(t.idctr.Add(0x9E3779B97F4A7C15))
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.nextID())
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.nextID())
	binary.BigEndian.PutUint64(id[8:], t.nextID())
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

// Span is one timed region of the pipeline. Spans nest: a span started
// under a context carrying another span becomes its child. All methods
// are safe on a nil receiver, so instrumented code never checks
// whether tracing is enabled.
type Span struct {
	tracer *Tracer
	name   string
	start  time.Time

	traceID  TraceID
	spanID   SpanID
	parentID SpanID

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	dur      time.Duration
	ended    bool
}

// suppressed marks a context whose root span was sampled out: Start
// under it records nothing, and deeper descendants stay suppressed.
var suppressed = &Span{}

// Start begins a span named name under ctx. The returned context
// carries the new span, so nested Start calls build a tree; the
// returned span may be nil (no tracer installed, sampled out, or over
// the span limit) and is safe to use anyway.
//
// A root span adopts the remote trace context carried by ctx
// (WithRemoteParent), if any, so cross-process traces share one trace
// ID; otherwise it mints a fresh trace ID.
//
// The caller must End the span; spans not ended by export time are
// rendered with zero duration and an "unfinished" marker.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if parent, ok := ctx.Value(spanKey).(*Span); ok {
		if parent == suppressed {
			return ctx, nil
		}
		sp := parent.newChild(name, attrs)
		if sp == nil {
			return ctx, nil // over limit: descendants attach to parent
		}
		return context.WithValue(ctx, spanKey, sp), sp
	}
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	remote, _ := ctx.Value(remoteParentKey).(TraceContext)
	sp := t.newRoot(name, attrs, remote)
	if sp == nil {
		return context.WithValue(ctx, spanKey, suppressed), nil
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	if sp == suppressed {
		return nil
	}
	return sp
}

func (t *Tracer) newRoot(name string, attrs []Attr, remote TraceContext) *Span {
	t.mu.Lock()
	sampler := t.sampler
	t.mu.Unlock()
	if sampler != nil && !sampler(name) {
		return nil
	}
	if limit := t.limit.Load(); limit > 0 && t.spans.Load() >= limit {
		t.dropped.Add(1)
		return nil
	}
	sp := t.allocSpan()
	sp.name = name
	sp.start = time.Now()
	sp.attrs = append(sp.attrs, attrs...)
	if remote.Valid() {
		sp.traceID = remote.TraceID
		sp.parentID = remote.SpanID
	} else {
		sp.traceID = t.newTraceID()
	}
	sp.spanID = t.newSpanID()
	t.spans.Add(1)
	t.mu.Lock()
	t.roots = append(t.roots, sp)
	t.mu.Unlock()
	return sp
}

func (s *Span) newChild(name string, attrs []Attr) *Span {
	t := s.tracer
	if limit := t.limit.Load(); limit > 0 && t.spans.Load() >= limit {
		t.dropped.Add(1)
		return nil
	}
	child := t.allocSpan()
	child.name = name
	child.start = time.Now()
	child.attrs = append(child.attrs, attrs...)
	child.traceID = s.traceID
	child.parentID = s.spanID
	child.spanID = t.newSpanID()
	t.spans.Add(1)
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// End stops the span's clock. End is idempotent and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetAttr appends attributes to the span. Nil-safe.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// TraceID returns the span's trace identity (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// SpanID returns the span's identity (zero on nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// ParentSpanID returns the parent span's identity — local parent, or
// the remote caller for a root continuing a propagated trace (zero on
// nil or for a locally originated root).
func (s *Span) ParentSpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.parentID
}

// TraceContext returns the span's identity as a propagable trace
// context (sampled flag set); zero and invalid on nil.
func (s *Span) TraceContext() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.traceID, SpanID: s.spanID, Flags: 0x01}
}

// Duration returns the span duration (zero until End, and on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Children returns a snapshot of the child spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// recycle clears per-use state (keeping slice capacity) so the span
// can re-enter the freelist.
func (s *Span) recycle() {
	s.mu.Lock()
	s.name = ""
	s.start = time.Time{}
	s.traceID = TraceID{}
	s.spanID = SpanID{}
	s.parentID = SpanID{}
	for i := range s.attrs {
		s.attrs[i] = Attr{}
	}
	s.attrs = s.attrs[:0]
	for i := range s.children {
		s.children[i] = nil
	}
	s.children = s.children[:0]
	s.dur = 0
	s.ended = false
	s.mu.Unlock()
}

// snapshot copies the mutable state under the span lock.
func (s *Span) snapshot() (attrs []Attr, children []*Span, dur time.Duration, ended bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...), append([]*Span(nil), s.children...), s.dur, s.ended
}

// Tree renders the recorded spans as a human-readable indented tree
// with durations and attributes.
func (t *Tracer) Tree() string {
	var b strings.Builder
	for _, r := range t.Roots() {
		writeTree(&b, r, 0)
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(+%d spans dropped by limit)\n", d)
	}
	return b.String()
}

func writeTree(b *strings.Builder, s *Span, depth int) {
	attrs, children, dur, ended := s.snapshot()
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.name)
	if ended {
		fmt.Fprintf(b, " %s", dur.Round(time.Microsecond))
	} else {
		b.WriteString(" (unfinished)")
	}
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%v", a.Key, a.Value())
	}
	b.WriteByte('\n')
	sortByStart(children)
	for _, c := range children {
		writeTree(b, c, depth+1)
	}
}

func sortByStart(spans []*Span) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
}

// StageTotals aggregates the recorded spans by name: total duration
// and count per span name, for coarse stage attribution of a whole
// run. Unfinished spans contribute their count but no duration.
func (t *Tracer) StageTotals() map[string]StageTotal {
	out := make(map[string]StageTotal)
	var walk func(*Span)
	walk = func(s *Span) {
		_, children, dur, ended := s.snapshot()
		st := out[s.name]
		st.Count++
		if ended {
			st.Total += dur
		}
		out[s.name] = st
		for _, c := range children {
			walk(c)
		}
	}
	for _, r := range t.Roots() {
		walk(r)
	}
	return out
}

// StageTotal is one row of StageTotals.
type StageTotal struct {
	// Count is the number of spans with this name.
	Count int
	// Total is the summed duration of the ended ones.
	Total time.Duration
}
