package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dwmaxerr/internal/obs"
)

// span is one timed call from the benchmark into a layer of the program.
// parent is an index into the recorder's spans, -1 for a root.
type span struct {
	name       string
	workload   string
	parent     int
	start, end time.Duration // offsets from the recorder's epoch
}

// recorder keeps the traced pass's spans in memory until the run ends.
// A nil recorder records nothing, so untraced passes share the code.
type recorder struct {
	epoch    time.Time
	workload string

	mu    sync.Mutex
	spans []span // guarded by mu

	// program collects the spans the program itself records through
	// Options.Trace / RouterConfig.Tracer; they go into the Chrome trace
	// beside the benchmark's own. programRoot is opened at the epoch, so
	// the tracer's time line (which starts at its earliest root) and the
	// recorder's coincide.
	program     *obs.Tracer
	programRoot *obs.Span
}

func newRecorder(workload string) *recorder {
	r := &recorder{workload: workload, program: obs.NewTracer(), epoch: time.Now()}
	r.programRoot = r.program.Start("program:" + workload)
	return r
}

// begin opens a span under parent (-1 for none) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, workload: r.workload, parent: parent, start: time.Since(r.epoch), end: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].end = time.Since(r.epoch)
	r.mu.Unlock()
}

// programSpan opens a span in the program's tracer, to be handed to the
// program as its trace parent; nil when not tracing.
func (r *recorder) programSpan(name string) *obs.Span {
	if r == nil {
		return nil
	}
	return r.programRoot.Child(name)
}

func (r *recorder) programTracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return r.program
}

// selfTimes returns, per span, its duration minus the part of it that its
// direct children cover. Children may overlap one another (concurrent
// senders), so the covered part is the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered time.Duration
		edge := s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var order []string
	for i, s := range spans {
		row := byName[s.name]
		if row == nil {
			row = &layerRow{name: s.name}
			byName[s.name] = row
			order = append(order, s.name)
		}
		row.count++
		row.total += s.end - s.start
		row.self += self[i]
	}
	rows := make([]layerRow, len(order))
	for i, n := range order {
		rows[i] = *byName[n]
	}
	return rows
}

// finish closes spans left open (a run that failed half-way) and returns
// a copy of everything recorded.
func (r *recorder) finish() []span {
	r.programRoot.End()
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Since(r.epoch)
	for i := range r.spans {
		if r.spans[i].end < 0 {
			r.spans[i].end = now
		}
	}
	return append([]span(nil), r.spans...)
}

func printLayerTable(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, row := range layerTable(spans) {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", row.name, row.count,
			float64(row.total)/float64(time.Millisecond), float64(row.self)/float64(time.Millisecond))
	}
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the benchmark's spans as process 1 (one lane
// per nesting depth and overlap) and the program's own spans as process
// 2, on one time line.
func (r *recorder) writeChromeTrace(w io.Writer, spans []span) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]chromeEvent, 0, len(spans))
	// Complete events on one lane must nest, so a span goes on the first
	// lane of its depth that is free at its start.
	type laneKey struct{ depth, n int }
	free := map[laneKey]time.Duration{}
	lanes := map[laneKey]int{}
	depth := make([]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		n := 0
		for free[laneKey{depth[i], n}] > s.start {
			n++
		}
		key := laneKey{depth[i], n}
		free[key] = s.end
		if _, ok := lanes[key]; !ok {
			lanes[key] = len(lanes) + 1
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: lanes[key],
			Args: map[string]any{"workload": s.workload, "parent": s.parent},
		})
	}

	var buf bytes.Buffer
	if err := r.program.WriteChromeTrace(&buf); err != nil {
		return err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("program trace: %w", err)
	}
	for _, e := range doc.TraceEvents {
		e.Pid = 2
		events = append(events, e)
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
