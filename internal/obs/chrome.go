package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Chrome trace_event export: the recorded span forest becomes a JSON
// document loadable by chrome://tracing and Perfetto. Every span is a
// complete ("X") event; concurrent siblings are spread across thread
// lanes so each lane holds only properly nested or disjoint events.

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`            // microseconds since trace epoch
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the exported document shape. OtherData carries the
// absolute trace epoch (`epoch_unix_ns`, a string — Unix nanoseconds
// exceed exact float64 integers) so `obscheck stitch` can align
// documents from different processes onto one clock.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// epochKey is the otherData field holding the absolute trace epoch.
const epochKey = "epoch_unix_ns"

// processNameEvent builds the metadata event naming a trace process.
func processNameEvent(pid int, name string) chromeEvent {
	return chromeEvent{
		Name: "process_name", Ph: "M", PID: pid, TID: 0,
		Args: map[string]any{"name": name},
	}
}

// writeChromeDoc sorts events by timestamp and encodes the document,
// stamping the absolute epoch into otherData.
func writeChromeDoc(w io.Writer, events []chromeEvent, epoch time.Time) error {
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{epochKey: strconv.FormatInt(epoch.UnixNano(), 10)},
	})
}

// WriteChromeTrace exports the recorded spans as Chrome trace_event
// JSON. Spans not yet ended are exported with zero duration and an
// "unfinished" arg rather than being dropped.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	epoch := t.Epoch()
	events := []chromeEvent{processNameEvent(1, "cnnperf")}
	lanes := &laneAllocator{}
	roots := t.Roots()
	sortByStart(roots)
	for _, lane := range assignLanes(roots, lanes, -1, time.Time{}) {
		events = appendSpanEvents(events, lane.span, 1, lane.tid, lanes, epoch)
	}
	return writeChromeDoc(w, events, epoch)
}

// laneAllocator hands out process-wide thread-lane ids.
type laneAllocator struct{ next int }

func (a *laneAllocator) alloc() int {
	id := a.next
	a.next++
	return id
}

type placedSpan struct {
	span *Span
	tid  int
}

// assignLanes partitions sibling spans into lanes so events in one
// lane never partially overlap: the first non-overlapping sibling
// reuses the parent's lane (parentTID), the rest open fresh lanes.
// Chrome's viewer renders each lane as a nesting track, so this keeps
// concurrent children visually side by side instead of garbled.
//
// parentEnd bounds reuse of the parent's lane: a child that outlives
// its parent (an abandoned request whose detached work continues) must
// not share the parent's lane or the events would partially overlap,
// so it opens a fresh lane instead. Zero means unbounded.
func assignLanes(siblings []*Span, lanes *laneAllocator, parentTID int, parentEnd time.Time) []placedSpan {
	type laneState struct {
		tid        int
		end, limit time.Time
	}
	var open []laneState
	if parentTID >= 0 {
		open = append(open, laneState{tid: parentTID, limit: parentEnd})
	}
	out := make([]placedSpan, 0, len(siblings))
	for _, s := range siblings {
		_, _, dur, _ := s.snapshot()
		end := s.start.Add(dur)
		placed := false
		for i := range open {
			if !open[i].end.After(s.start) && (open[i].limit.IsZero() || !end.After(open[i].limit)) {
				open[i].end = end
				out = append(out, placedSpan{span: s, tid: open[i].tid})
				placed = true
				break
			}
		}
		if !placed {
			tid := lanes.alloc()
			open = append(open, laneState{tid: tid, end: end})
			out = append(out, placedSpan{span: s, tid: tid})
		}
	}
	return out
}

func appendSpanEvents(events []chromeEvent, s *Span, pid, tid int, lanes *laneAllocator, epoch time.Time) []chromeEvent {
	attrs, children, dur, ended := s.snapshot()
	ev := chromeEvent{
		Name: s.name,
		Ph:   "X",
		PID:  pid,
		TID:  tid,
		TS:   float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
		Dur:  float64(dur.Nanoseconds()) / 1e3,
	}
	ev.Args = make(map[string]any, len(attrs)+4)
	for _, a := range attrs {
		ev.Args[a.Key] = attrValue(a.Value())
	}
	if !ended {
		ev.Args["unfinished"] = true
	}
	if !s.traceID.IsZero() {
		ev.Args["trace_id"] = s.traceID.String()
		ev.Args["span_id"] = s.spanID.String()
		if !s.parentID.IsZero() {
			ev.Args["parent_span_id"] = s.parentID.String()
		}
	}
	if len(ev.Args) == 0 {
		ev.Args = nil
	}
	events = append(events, ev)
	sortByStart(children)
	for _, lane := range assignLanes(children, lanes, tid, s.start.Add(dur)) {
		events = appendSpanEvents(events, lane.span, pid, lane.tid, lanes, epoch)
	}
	return events
}

// attrValue maps attribute values onto JSON-friendly types.
func attrValue(v any) any {
	switch x := v.(type) {
	case time.Duration:
		return x.String()
	case error:
		return x.Error()
	default:
		return v
	}
}

// ValidateChromeTrace checks that data is a well-formed Chrome
// trace_event document: a JSON array of events or an object with a
// traceEvents array, every event carrying a name, a known phase, and
// non-negative timestamps, and events within one (pid, tid) lane
// either disjoint or properly nested. It returns the "X" span names
// seen, so callers can assert specific stages were traced.
func ValidateChromeTrace(data []byte) (spanNames []string, err error) {
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		var arr []chromeEvent
		if err2 := json.Unmarshal(data, &arr); err2 != nil {
			return nil, fmt.Errorf("chrome trace: not a trace document: %w", err)
		}
		doc.TraceEvents = arr
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("chrome trace: no events")
	}
	type interval struct{ start, end float64 }
	byLane := make(map[[2]int][]interval)
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return nil, fmt.Errorf("chrome trace: event %d has no name", i)
		}
		switch ev.Ph {
		case "X", "B", "E", "M", "i", "C":
		default:
			return nil, fmt.Errorf("chrome trace: event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			return nil, fmt.Errorf("chrome trace: event %d (%s) has negative time", i, ev.Name)
		}
		if ev.Ph == "X" {
			spanNames = append(spanNames, ev.Name)
			lane := [2]int{ev.PID, ev.TID}
			byLane[lane] = append(byLane[lane], interval{start: ev.TS, end: ev.TS + ev.Dur})
		}
	}
	// Within one lane, sorted events must form a valid nesting: each
	// event either fits inside the enclosing open interval or starts
	// after it ends.
	const slack = 1e-3 // µs tolerance for float rounding
	for lane, ivs := range byLane {
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].start != ivs[j].start {
				return ivs[i].start < ivs[j].start
			}
			return ivs[i].end > ivs[j].end // container first
		})
		var stack []interval
		for _, iv := range ivs {
			for len(stack) > 0 && stack[len(stack)-1].end <= iv.start+slack {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && iv.end > stack[len(stack)-1].end+slack {
				return nil, fmt.Errorf("chrome trace: lane %v has partially overlapping events ([%f,%f] vs [%f,%f])",
					lane, iv.start, iv.end, stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, iv)
		}
	}
	return spanNames, nil
}
