// Task.Shares tests: a task whose key a running task holds waits off
// its worker, so the worker runs other work meanwhile; held tasks keep
// their priority class and pickup order, count as queued, and still
// honour Abort, Expires and Close.
package svc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/faults"
)

// g4 is the Shares key function of the tasks that share work here.
func g4() string { return "g4" }

// waitHeld polls until the pool has held n tasks in total.
func waitHeld(t *testing.T, p *Pool, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Metrics().Snapshot().TasksHeld < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d tasks held, want %d", p.Metrics().Snapshot().TasksHeld, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSharedTasksNeverOverlap runs two tasks with one Shares key and an
// unrelated third on two workers. The two never run at once, and the
// worker that picks up the second runs the third while the first is
// still running.
func TestSharedTasksNeverOverlap(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, JobTimeout: time.Minute, MemoCapacity: -1, Faults: faults.New(1)})
	defer p.Close()
	var inKey atomic.Int32
	var ranFirst atomic.Bool
	thirdRan := make(chan struct{})
	shared := func(context.Context) (core.Result, error) {
		if n := inKey.Add(1); n > 1 {
			t.Errorf("%d tasks with one Shares key running at once", n)
		}
		defer inKey.Add(-1)
		if ranFirst.Swap(true) {
			return core.Result{Cycles: 2, Verified: true}, nil
		}
		select {
		case <-thirdRan:
		case <-time.After(5 * time.Second):
			t.Error("the unrelated task did not run while a shared one was running")
		}
		if d := p.QueueDepth(); d != 1 {
			t.Errorf("queue depth %d while a task is held, want 1", d)
		}
		return core.Result{Cycles: 1, Verified: true}, nil
	}
	tasks := []Task{
		funcTask(Task{Label: "first", Shares: g4}, shared),
		funcTask(Task{Label: "second", Shares: g4}, shared),
		funcTask(Task{Label: "third"}, func(context.Context) (core.Result, error) {
			close(thirdRan)
			return core.Result{Cycles: 3, Verified: true}, nil
		}),
	}
	futs, err := p.Submit(context.Background(), tasks, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if held := p.Metrics().Snapshot().TasksHeld; held != 1 {
		t.Fatalf("%d tasks held, want 1", held)
	}
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after every task finished", d)
	}
}

// TestReleasedTasksKeepPriorityAndOrder holds a batch task behind an
// interactive holder, then queues a batch and an interactive task
// behind it while the other worker is busy. When the holder ends, the
// queued interactive task runs first (the released task is still
// batch), then the released task, then the batch task queued after it.
func TestReleasedTasksKeepPriorityAndOrder(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, JobTimeout: time.Minute, MemoCapacity: -1, Faults: faults.New(1)})
	defer p.Close()
	var mu sync.Mutex
	var order []string
	gateHolder, gateBusy := make(chan struct{}), make(chan struct{})
	task := func(label string, pr Priority, shares func() string, gate chan struct{}) Task {
		return funcTask(Task{Label: label, Priority: pr, Shares: shares}, func(context.Context) (core.Result, error) {
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			if gate != nil {
				<-gate
			}
			return core.Result{Cycles: 1, Verified: true}, nil
		})
	}
	submit := func(t0 Task) *Future {
		f, err := submitOne(p, t0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	holder := submit(task("holder", PriorityInteractive, g4, gateHolder))
	<-holder.started
	twin := submit(task("twin", PriorityBatch, g4, nil))
	waitHeld(t, p, 1)
	busy := submit(task("busy", PriorityInteractive, nil, gateBusy))
	<-busy.started
	later := submit(task("later-batch", PriorityBatch, nil, nil))
	urgent := submit(task("urgent", PriorityInteractive, nil, nil))
	if d := p.QueueDepth(); d != 3 {
		t.Fatalf("queue depth %d, want 3: two queued and the held twin", d)
	}
	close(gateHolder)
	for _, f := range []*Future{holder, urgent, twin, later} {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(gateBusy)
	if _, err := busy.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got, want := strings.Join(order, " "), "holder busy urgent twin later-batch"; got != want {
		t.Fatalf("run order %q, want %q", got, want)
	}
}

// TestHeldTasksHonourAbortExpiresAndClose holds three tasks behind one
// holder: one whose group aborts and one whose budget expires while
// held are dropped at pickup without running, and Close fails the third
// with ErrPoolClosed.
func TestHeldTasksHonourAbortExpiresAndClose(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, JobTimeout: time.Minute, MemoCapacity: -1, Faults: faults.New(1)})
	var ran atomic.Int32
	run := func(context.Context) (core.Result, error) {
		ran.Add(1)
		return core.Result{Cycles: 1, Verified: true}, nil
	}
	gate := make(chan struct{})
	defer close(gate)
	holder, err := submitOne(p, funcTask(Task{Label: "holder", Shares: g4}, func(ctx context.Context) (core.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return core.Result{Cycles: 1, Verified: true}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-holder.started
	abort := make(chan struct{})
	aborted, _ := submitOne(p, funcTask(Task{Label: "aborted", Shares: g4, Abort: abort}, run))
	expired, _ := submitOne(p, funcTask(Task{Label: "expired", Shares: g4, Expires: time.Now().Add(20 * time.Millisecond)}, run))
	waitHeld(t, p, 2)
	close(abort)
	time.Sleep(30 * time.Millisecond)
	closing, _ := submitOne(p, funcTask(Task{Label: "closing", Shares: g4}, run))
	waitHeld(t, p, 3)
	if d := p.QueueDepth(); d != 3 {
		t.Fatalf("queue depth %d with three tasks held, want 3", d)
	}
	gate <- struct{}{} // the holder ends; the pool is still open
	for _, c := range []struct {
		f    *Future
		want error
	}{{aborted, context.Canceled}, {expired, ErrBudgetExhausted}} {
		if _, err := c.f.Wait(context.Background()); !errors.Is(err, c.want) {
			t.Errorf("held task: %v, want %v", err, c.want)
		}
	}
	if _, err := closing.Wait(context.Background()); err != nil {
		t.Fatalf("released task: %v", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d held tasks ran, want only the one neither aborted nor expired", n)
	}

	// Hold one more and close the pool under it.
	holder2, _ := submitOne(p, funcTask(Task{Label: "holder2", Shares: g4}, func(ctx context.Context) (core.Result, error) {
		<-ctx.Done()
		return core.Result{}, ctx.Err()
	}))
	<-holder2.started
	last, _ := submitOne(p, funcTask(Task{Label: "last", Shares: g4}, run))
	waitHeld(t, p, 4)
	p.Close()
	if _, err := last.Wait(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("task held at Close: %v, want ErrPoolClosed", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("a task held at Close ran")
	}
}

// TestPaperGridWalksEachTraceOnce runs the paper grid on a fresh
// service after one purge and reads the trace memo's and the hold
// series from the Prometheus exposition: the G4 rows walk each of the three traces once (three
// misses) and read it once (three hits). Fault injection is off, so the
// six G4 cells are the only runs.
func TestPaperGridWalksEachTraceOnce(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 2, JobTimeout: 5 * time.Minute, Faults: faults.New(1)}})
	defer s.Close()
	cache.PurgeProcessMemos()
	before := processMemo(t, "ppc_trace")
	run, err := s.SubmitBatch(context.Background(), BatchGrid{}.Expand(), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range run.Results() {
		if r.State != Done {
			t.Fatalf("cell %d: %s %s", r.Index, r.State, r.Error)
		}
	}
	var body strings.Builder
	if err := s.Metrics().Registry().WritePrometheus(&body); err != nil {
		t.Fatal(err)
	}
	value := func(family string) uint64 {
		t.Helper()
		for _, line := range strings.Split(body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, family+" "); ok {
				var n uint64
				if _, err := fmt.Sscan(v, &n); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("exposition has no %s series", family)
		return 0
	}
	const trace = `{memo="ppc_trace"}`
	if h, m := value("simserved_process_memo_hits_total"+trace)-before.Hits, value("simserved_process_memo_misses_total"+trace)-before.Misses; h != 3 || m != 3 {
		t.Fatalf("paper grid: %d trace memo hits, %d misses; want 3 and 3", h, m)
	}
	if b := value("simserved_process_memo_bytes" + trace); b == 0 {
		t.Fatal("trace memo retains nothing after a paper grid")
	}
	value("simserved_tasks_held_total") // present; how many depends on timing
}
