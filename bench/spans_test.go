package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func sp(id, parent int, start, end time.Duration) span {
	return span{ID: id, Name: "s", Start: start, End: end, Parent: parent}
}

// Self time subtracts only the direct children, and only where they lie
// inside the parent.
func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 40),
		sp(3, 2, 20, 30), // grandchild: counts against 2, not 1
		sp(4, 1, 60, 70),
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 60, 2: 20, 3: 10, 4: 10} {
		if self[id] != want {
			t.Errorf("span %d self %d, want %d", id, self[id], want)
		}
	}
}

// Overlapping children (concurrent calls) are subtracted once, as the
// union of their intervals; a child sticking out past its parent is
// clipped.
func TestSelfTimeOverlapping(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 50),
		sp(3, 1, 30, 70),
		sp(4, 1, 40, 45),  // inside 2 and 3
		sp(5, 1, 90, 120), // sticks out past the parent
		sp(6, 1, 200, 300),
	}
	if got := selfTimes(spans)[1]; got != 30 {
		t.Fatalf("self %d, want 100 - [10,70] - [90,100] = 30", got)
	}
}

func TestTracerAndLedger(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	root := tr.open("root", t0, 0, 1)
	tr.record("child", t0.Add(10), t0.Add(30), root, 1)
	tr.record("child", t0.Add(40), t0.Add(50), root, 1)
	tr.open("never-closed", t0, 0, 2)
	tr.close(root, t0.Add(100))
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d closed spans, want 3", len(spans))
	}
	rows := ledger(spans)
	if len(rows) != 2 || rows[0].Name != "root" || rows[0].Self != 70 || rows[1].Count != 2 || rows[1].Total != 30 {
		t.Fatalf("ledger %+v", rows)
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var first struct {
		Name string `json:"name"`
		Self int64  `json:"self_ns"`
	}
	if err := json.Unmarshal(bytes.Split(buf.Bytes(), []byte("\n"))[0], &first); err != nil || first.Name != "root" || first.Self != 70 {
		t.Fatalf("first span line %+v %v", first, err)
	}
	var nilTracer *tracer
	if id := nilTracer.record("x", t0, t0, 0, 0); id != 0 || nilTracer.snapshot() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}
