package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// lateLimit is the open-loop drop rule: a request the generator could
// not send within this long of its due time is dropped, and counts as
// missing every latency limit.
const lateLimit = time.Second

// outcome is one open-loop request's timeline, as offsets from the
// schedule's start.
type outcome struct {
	stage           int
	due, sent, done time.Duration
	// dropped marks a request never sent because it was already more
	// than the late limit behind its due time; sent is when the
	// generator gave up on it.
	dropped bool
	// cell marks a simulated cell answered done.
	cell bool
}

// latency is timed from the due time, so a stall also charges the wait
// it imposed on requests behind it. A dropped request's latency is the
// time until the drop, which exceeds the late limit.
func (o outcome) latency() time.Duration {
	if o.dropped {
		return o.sent - o.due
	}
	return o.done - o.due
}

// lateness is how far behind schedule the generator sent the request.
func (o outcome) lateness() time.Duration { return o.sent - o.due }

// sendFunc sends one arrival, due at the given instant, on one of the
// generator's connections and reports whether it was a simulated cell
// answered done.
type sendFunc func(ctx context.Context, conn int, a arrival, due time.Time) (cell bool)

// openLoop sends arrivals on their schedule, regardless of how fast
// answers come back, over conns connections: each connection takes the
// next arrival in due order as soon as it is free, waits for its due
// time, and sends it — unless it is already more than limit late, in
// which case it is dropped without sending. It returns every arrival's
// outcome, index-aligned.
func openLoop(ctx context.Context, arrivals []arrival, conns int, limit time.Duration, send sendFunc) []outcome {
	out := make([]outcome, len(arrivals))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) || ctx.Err() != nil {
					return
				}
				a := arrivals[i]
				if wait := a.due - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				o := outcome{stage: a.stage, due: a.due, sent: time.Since(start)}
				if o.lateness() > limit {
					o.dropped, o.done = true, o.sent
					out[i] = o
					continue
				}
				o.cell = send(ctx, ci, a, start.Add(a.due))
				o.done = time.Since(start)
				out[i] = o
			}
		}(ci)
	}
	wg.Wait()
	return out
}

// elapsed returns the time from the schedule's start to the last answer.
func elapsed(outs []outcome) time.Duration {
	var end time.Duration
	for _, o := range outs {
		end = max(end, o.done)
	}
	return end
}

// stageStats summarizes the outcomes of one stage.
type stageStats struct {
	latency sample // ms, from due time; drops included
	drops   int
	late    sample // ms, generator lateness of sent requests
	cells   int
}

func statsOf(outs []outcome, stage int) stageStats {
	var st stageStats
	for _, o := range outs {
		if stage >= 0 && o.stage != stage {
			continue
		}
		st.latency = append(st.latency, ms(o.latency()))
		if o.dropped {
			st.drops++
			continue
		}
		st.late = append(st.late, ms(o.lateness()))
		if o.cell {
			st.cells++
		}
	}
	return st
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
