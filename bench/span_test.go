package main

import "testing"

// Self time is a span's duration minus the union of its children's
// intervals, clipped to the span: overlapping children are not subtracted
// twice and a child that overruns its parent only counts up to the
// parent's end.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job.cold", Job: "j", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "graph.Load", Job: "j", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "core.Wait", Job: "j", Start: 25, End: 60},     // overlaps span 1 by 5
		{ID: 3, Parent: 0, Name: "result.Write", Job: "j", Start: 90, End: 120}, // overruns the parent by 20
		{ID: 4, Parent: 2, Name: "checkpoint.capture", Job: "j", Start: 30, End: 40},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		0: 100 - (20 + 30 + 10), // children cover [10,60) and [90,100)
		1: 20,
		2: 35 - 10,
		3: 30,
		4: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	layers := layerSelfSeconds(spans)["j"]
	if got, want := layers["job"], 40e-9; got != want {
		t.Errorf("unattributed (job layer) = %v, want %v", got, want)
	}
	if got, want := layers["core"], 25e-9; got != want {
		t.Errorf("core layer = %v, want %v", got, want)
	}
	total := 0.0
	for _, v := range layers {
		total += v
	}
	// Layer self times add up to the root's duration plus whatever
	// children ran outside their parents (span 3's 20 ns overrun) minus
	// what overlapped (5 ns of spans 1 and 2).
	if want := (100.0 + 20 + 5) * 1e-9; total < want-1e-15 || total > want+1e-15 {
		t.Errorf("layer self times sum to %v, want %v", total, want)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	sp := tr.begin(spanRef{}, "graph.Load", "j")
	sp.end()
	if got := tr.closed(); got != nil {
		t.Errorf("nil tracer recorded %v", got)
	}
}

func TestTracerParentsAndOpenSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(spanRef{}, "job.x", "j1")
	child := tr.begin(root, "runtime.Run", "j1")
	child.end()
	open := tr.begin(root, "core.Wait", "j1") // never ended: must not be reported
	_ = open
	root.end()
	spans := tr.closed()
	if len(spans) != 2 {
		t.Fatalf("closed() returned %d spans, want 2 (the open one is dropped)", len(spans))
	}
	if spans[0].Parent != -1 || spans[1].Parent != spans[0].ID {
		t.Errorf("parent links wrong: %+v", spans)
	}
	if spans[1].layer() != "runtime" {
		t.Errorf("layer of %q = %q", spans[1].Name, spans[1].layer())
	}
}
