package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestOutcomeAccounting(t *testing.T) {
	ms := time.Millisecond
	sent := outcome{due: 10 * ms, sent: 30 * ms, done: 45 * ms}
	if sent.latency() != 35*ms || sent.lateness() != 20*ms {
		t.Errorf("sent request: latency %s lateness %s, want 35ms from its due time and 20ms late", sent.latency(), sent.lateness())
	}
	dropped := outcome{due: 10 * ms, sent: 1200 * ms, done: 1200 * ms, dropped: true}
	if dropped.latency() != 1190*ms {
		t.Errorf("dropped request: latency %s, want the 1190ms until the drop", dropped.latency())
	}
	st := statsOf([]outcome{sent, dropped, {stage: 1, due: 0, sent: 1 * ms, done: 2 * ms, cell: true}}, 0)
	if len(st.latency) != 2 || st.drops != 1 || len(st.late) != 1 || st.cells != 0 {
		t.Errorf("stage 0 stats: %+v", st)
	}
	if st := statsOf([]outcome{sent, {stage: 1, cell: true}}, -1); st.cells != 1 || len(st.latency) != 2 {
		t.Errorf("all-stage stats: %+v", st)
	}
}

// A server slower than the arrival rate makes the open loop fall behind:
// requests still go out in due order, latency is counted from the due
// time (so it includes the wait behind earlier requests), and requests
// further behind than the late limit are dropped unsent.
func TestOpenLoopDueTimesAndLateDrops(t *testing.T) {
	const (
		service = 40 * time.Millisecond
		gap     = 10 * time.Millisecond
		limit   = 100 * time.Millisecond
	)
	var arr []arrival
	for i := 0; i < 30; i++ {
		arr = append(arr, arrival{due: time.Duration(i) * gap})
	}
	var mu sync.Mutex
	var order []time.Duration
	outs := openLoop(context.Background(), arr, 1, limit, func(_ context.Context, _ int, a arrival, due time.Time) bool {
		mu.Lock()
		order = append(order, a.due)
		mu.Unlock()
		time.Sleep(service)
		return true
	})
	sent, dropped := 0, 0
	for i, o := range outs {
		if o.due != arr[i].due {
			t.Fatalf("outcome %d due %s, want %s", i, o.due, arr[i].due)
		}
		if o.dropped {
			dropped++
			if o.lateness() <= limit {
				t.Errorf("outcome %d dropped only %s late (limit %s)", i, o.lateness(), limit)
			}
			if o.latency() != o.lateness() {
				t.Errorf("dropped outcome %d latency %s, want its lateness %s", i, o.latency(), o.lateness())
			}
			continue
		}
		sent++
		if o.lateness() > limit {
			t.Errorf("outcome %d sent %s late (limit %s)", i, o.lateness(), limit)
		}
		if o.latency() < o.lateness()+service {
			t.Errorf("outcome %d latency %s below lateness %s + service %s", i, o.latency(), o.lateness(), service)
		}
	}
	if sent == 0 || dropped == 0 {
		t.Fatalf("sent %d, dropped %d: want both", sent, dropped)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("sent out of due order: %v", order)
		}
	}
}

// With more capacity than load nothing is late and nothing drops.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	var arr []arrival
	for i := 0; i < 20; i++ {
		arr = append(arr, arrival{due: time.Duration(i) * 5 * time.Millisecond})
	}
	outs := openLoop(context.Background(), arr, 2, time.Second, func(context.Context, int, arrival, time.Time) bool {
		time.Sleep(time.Millisecond)
		return true
	})
	st := statsOf(outs, -1)
	if st.drops != 0 || st.cells != len(arr) {
		t.Fatalf("stats %+v", st)
	}
	if worst := st.late.sorted()[len(st.late)-1]; worst > 50 {
		t.Errorf("worst lateness %.1f ms on an idle server", worst)
	}
}
