package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer of the program.
// Spans live in memory until the run ends (choosing-metrics §4); the
// program itself carries no spans yet — these are recorded around its
// public entry points from outside.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a job's root span
	Name   string `json:"name"`   // "<layer>.<operation>", e.g. "graph.Load"
	Job    string `json:"job"`    // shared by every span of one job
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer collects spans. A nil *tracer records nothing and costs a nil
// check, so the untraced run and the traced run share one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// onlyIf returns t when on, else the inert nil tracer: a traced run
// alternates traced and untraced jobs to measure what tracing costs.
func (t *tracer) onlyIf(on bool) *tracer {
	if on {
		return t
	}
	return nil
}

// tracedTurn says whether job i of a traced run records spans. Jobs go
// untraced, traced, traced, untraced, ...: strict alternation let whatever
// happens every second job (a GC cycle, say) fall on one side only, and
// read as tracing making jobs 5% faster.
func tracedTurn(i int) bool { return i%4 == 1 || i%4 == 2 }

// spanRef is a handle on an open span; the zero value (from a nil tracer)
// is inert.
type spanRef struct {
	t  *tracer
	id int
}

// begin opens a span under parent (the zero spanRef for a root).
func (t *tracer) begin(parent spanRef, name, job string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	pid := -1
	if parent.t != nil {
		pid = parent.id
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: pid, Name: name, Job: job, Start: now, End: -1})
	t.mu.Unlock()
	return spanRef{t: t, id: id}
}

// end closes the span.
func (r spanRef) end() {
	if r.t == nil {
		return
	}
	now := int64(time.Since(r.t.t0))
	r.t.mu.Lock()
	r.t.spans[r.id].End = now
	r.t.mu.Unlock()
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time in ns, keyed by span id: its
// duration minus the part of its interval covered by its direct children.
// Children may overlap one another (concurrent calls), so the covered
// part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerSelfSeconds folds self times into seconds per job per layer:
// result[job][layer]. The root span of a job is named "job.<kind>", so
// the "job" layer's self time is what no layer span accounts for.
func layerSelfSeconds(spans []span) map[string]map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]map[string]float64)
	for _, s := range spans {
		m := out[s.Job]
		if m == nil {
			m = make(map[string]float64)
			out[s.Job] = m
		}
		m[s.layer()] += float64(self[s.ID]) / 1e9
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X" complete
// events, µs), the format the repo's own -trace files use, so a harness
// trace loads next to an engine trace in Perfetto. Jobs map to tids.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := make(map[string]int)
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.Job]
		if !ok {
			tid = len(tids) + 1
			tids[s.Job] = tid
		}
		events = append(events, event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"job": s.Job, "id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
