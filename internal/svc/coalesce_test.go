package svc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/faults"
	"sigkern/internal/machines"
)

// TestPoolCoalescing submits many tasks sharing one MemoKey while the
// first is still executing: exactly one backend execution must run, and
// every submission must receive its (bit-identical) result.
func TestPoolCoalescing(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, JobTimeout: time.Minute, Faults: faults.New(1)})
	defer p.Close()

	release := make(chan struct{})
	var execs atomic.Int64
	task := Task{
		Label:   "coalesce",
		MemoKey: "k",
		Run: func(ctx context.Context) (core.Result, error) {
			execs.Add(1)
			<-release
			return core.Result{Cycles: 42, Verified: true}, nil
		},
	}
	lead, err := submitOne(p, task)
	if err != nil {
		t.Fatal(err)
	}
	<-lead.started

	const followers = 15
	futs := make([]*Future, followers)
	for i := range futs {
		f, err := submitOne(p, task)
		if err != nil {
			t.Fatal(err)
		}
		if f != lead {
			t.Fatal("follower got its own execution instead of attaching to the flight")
		}
		futs[i] = f
	}
	close(release)

	for _, f := range append(futs, lead) {
		r, err := f.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != 42 {
			t.Fatalf("cycles = %d, want 42", r.Cycles)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("backend executions = %d, want 1", n)
	}
	if snap := p.Metrics().Snapshot(); snap.Coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", snap.Coalesced, followers)
	}
}

// TestPoolCoalescingWaiterCancel proves a waiter abandoning a coalesced
// flight cancels only its own Wait: the shared execution keeps running
// and the remaining waiters still get the result.
func TestPoolCoalescingWaiterCancel(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, Faults: faults.New(1)})
	defer p.Close()

	release := make(chan struct{})
	task := Task{
		Label:   "cancel",
		MemoKey: "k",
		Run: func(ctx context.Context) (core.Result, error) {
			<-release
			return core.Result{Cycles: 7, Verified: true}, nil
		},
	}
	lead, err := submitOne(p, task)
	if err != nil {
		t.Fatal(err)
	}
	<-lead.started
	follower, err := submitOne(p, task)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, werr := follower.Wait(ctx); !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", werr)
	}

	close(release)
	r, err := lead.Wait(context.Background())
	if err != nil {
		t.Fatalf("surviving waiter poisoned: %v", err)
	}
	if r.Cycles != 7 {
		t.Fatalf("cycles = %d, want 7", r.Cycles)
	}
	// The abandoned waiter can still read the completed flight later.
	if r2, err := follower.Wait(context.Background()); err != nil || r2.Cycles != 7 {
		t.Fatalf("late re-wait: %d/%v", r2.Cycles, err)
	}
}

// TestPoolCoalescingShedUnregisters proves a shed submission does not
// leave a dead flight behind: the same key submitted again afterwards
// runs fresh instead of waiting on work that never executed.
func TestPoolCoalescingShedUnregisters(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1, JobTimeout: time.Minute, Faults: faults.New(1)})
	defer p.Close()

	block := make(chan struct{})
	filler, err := submitOne(p, Task{Label: "filler", Run: func(ctx context.Context) (core.Result, error) {
		<-block
		return core.Result{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-filler.started
	if _, err := submitOne(p, Task{Label: "queued", Run: func(ctx context.Context) (core.Result, error) {
		return core.Result{}, nil
	}}); err != nil {
		t.Fatal(err)
	}

	var execs atomic.Int64
	task := Task{
		Label:   "shed-then-run",
		MemoKey: "k",
		Run: func(ctx context.Context) (core.Result, error) {
			execs.Add(1)
			return core.Result{Cycles: 3, Verified: true}, nil
		},
	}
	if _, err := trySubmitOne(p, task); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want shed, got %v", err)
	}
	close(block)

	fut, err := submitOne(p, task)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := fut.Wait(context.Background()); err != nil || r.Cycles != 3 {
		t.Fatalf("post-shed run: %d/%v", r.Cycles, err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
}

// TestServiceCoalescingChaos drives coalescing end to end through the
// service with fault injection armed: N concurrent submissions of one
// identical spec produce exactly one backend execution (the machine
// factory runs once), every waiter gets bit-identical cycles, and one
// waiter cancelling doesn't poison the rest.
func TestServiceCoalescingChaos(t *testing.T) {
	hold := make(chan struct{})
	var factoryCalls atomic.Int64
	s := NewService(Options{
		Pool: PoolOptions{Workers: 2, JobTimeout: time.Minute, Faults: chaosRegistry(t, 42)},
		Factory: func(name string) (core.Machine, error) {
			factoryCalls.Add(1)
			<-hold
			return machines.ByName(name)
		},
	})
	defer s.Close()

	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}
	leader, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	const followers = 11
	ids := make([]string, followers)
	var wg sync.WaitGroup
	var submitErr atomic.Value
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := s.Submit(spec)
			if err != nil {
				submitErr.Store(err)
				return
			}
			ids[i] = job.ID
		}(i)
	}
	wg.Wait()
	if err, _ := submitErr.Load().(error); err != nil {
		t.Fatal(err)
	}

	// One waiter gives up before the execution is even released.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, werr := s.Wait(cancelled, ids[0]); !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", werr)
	}

	close(hold)
	want, err := s.Wait(context.Background(), leader.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want.Result == nil || !want.State.Terminal() {
		t.Fatalf("leader not terminal: %+v", want)
	}
	for _, id := range ids {
		job, err := s.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if job.Result == nil || job.Result.Cycles != want.Result.Cycles {
			t.Fatalf("waiter %s diverged: %+v vs %d cycles", id, job.Result, want.Result.Cycles)
		}
	}

	if n := factoryCalls.Load(); n != 1 {
		t.Fatalf("backend executions = %d, want exactly 1", n)
	}
	snap := s.Metrics().Snapshot()
	if snap.Coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", snap.Coalesced, followers)
	}
	if got := snap.Queued - snap.CacheHits; got != 1 {
		t.Fatalf("queued executions = %d, want 1", got)
	}
}
