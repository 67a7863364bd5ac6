package svc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/faults"
	"sigkern/internal/machines"
	"sigkern/internal/resilience"
)

// chaosRegistry arms 20% transient errors plus latency spikes at the
// execute fault point, seeded for reproducibility.
func chaosRegistry(t *testing.T, seed uint64) *faults.Registry {
	t.Helper()
	reg := faults.New(seed)
	for _, f := range []faults.Fault{
		{Point: FaultPointExecute, Kind: faults.Transient, Probability: 0.2},
		{Point: FaultPointExecute, Kind: faults.Latency, Probability: 0.1, Delay: time.Millisecond},
	} {
		if err := reg.Arm(f); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// studyCycles flattens a study into machine/kernel -> cycles.
func studyCycles(sr *core.StudyResults) map[string]uint64 {
	out := make(map[string]uint64)
	for _, name := range sr.MachineNames() {
		for _, k := range core.Kernels() {
			if r, ok := sr.Result(name, k); ok {
				out[name+"/"+string(k)] = r.Cycles
			}
		}
	}
	return out
}

// TestChaosStudyBitIdentical is the acceptance check for the resilience
// layer: with fault injection at a 20% transient error rate (fixed
// seed), a full study completes via retries and every cycle count is
// bit-identical to a fault-free run.
func TestChaosStudyBitIdentical(t *testing.T) {
	w := smallWorkload()
	names := []string{"PPC", "AltiVec", "VIRAM", "Imagine", "Raw"}

	clean := NewPool(PoolOptions{Workers: 4, JobTimeout: time.Minute, Faults: faults.New(1)})
	defer clean.Close()
	want, err := RunStudyParallel(context.Background(), clean, nil, names, w)
	if err != nil {
		t.Fatal(err)
	}

	reg := chaosRegistry(t, 42)
	// Generous attempt budget: at 20% injection, 8 attempts make a
	// whole-job failure a ~1e-6 event, so the test cannot flake on an
	// unlucky draw interleaving.
	chaotic := NewPool(PoolOptions{
		Workers:    4,
		JobTimeout: time.Minute,
		Retry:      resilience.RetryPolicy{MaxAttempts: 8, BaseDelay: 100 * time.Microsecond},
		Faults:     reg,
	})
	defer chaotic.Close()
	got, err := RunStudyParallel(context.Background(), chaotic, nil, names, w)
	if err != nil {
		t.Fatalf("chaotic study failed (retries should absorb 20%% transients): %v", err)
	}

	if !reflect.DeepEqual(studyCycles(want), studyCycles(got)) {
		t.Fatalf("cycle counts differ under chaos:\nclean:   %v\nchaotic: %v",
			studyCycles(want), studyCycles(got))
	}
	if _, fired := reg.Counter(FaultPointExecute, faults.Transient); fired == 0 {
		t.Fatal("chaos run injected no transient faults; the test proved nothing")
	}
	if snap := chaotic.Metrics().Snapshot(); snap.Retries == 0 {
		t.Fatalf("no retries recorded despite injected faults: %+v", snap)
	}
}

func TestPoolRetriesTransientTaskErrors(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, Faults: faults.New(1)})
	defer p.Close()
	var calls atomic.Int32
	fut, err := submitOne(p, Task{
		Label: "flaky",
		Run: func(context.Context) (core.Result, error) {
			if calls.Add(1) < 3 {
				return core.Result{}, resilience.MarkTransient(errors.New("transient wobble"))
			}
			return core.Result{Cycles: 11, Verified: true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, werr := fut.Wait(context.Background())
	if werr != nil || r.Cycles != 11 {
		t.Fatalf("result %v err %v", r, werr)
	}
	if calls.Load() != 3 {
		t.Fatalf("ran %d times, want 3", calls.Load())
	}
	if snap := p.Metrics().Snapshot(); snap.Retries != 2 || snap.Done != 1 || snap.Failed != 0 {
		t.Fatalf("metrics: %+v", snap)
	}
}

func TestPoolDoesNotRetryPermanentErrors(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, Faults: faults.New(1)})
	defer p.Close()
	var calls atomic.Int32
	perm := errors.New("invalid configuration")
	fut, err := submitOne(p, Task{
		Label: "broken",
		Run: func(context.Context) (core.Result, error) {
			calls.Add(1)
			return core.Result{}, perm
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := fut.Wait(context.Background()); !errors.Is(werr, perm) {
		t.Fatalf("err = %v", werr)
	}
	if calls.Load() != 1 {
		t.Fatalf("permanent error retried %d times", calls.Load())
	}
}

// TestDeterminismGuardOnReexecution proves a result disagreeing with
// the memoized cycle count for its spec hash is a hard error.
func TestDeterminismGuardOnReexecution(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, Faults: faults.New(1)})
	defer p.Close()
	seed, err := submitOne(p, Task{Label: "seed", MemoKey: "k3", Run: okTask(500)})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := seed.Wait(context.Background()); werr != nil {
		t.Fatal(werr)
	}
	if p.memo == nil {
		t.Fatal("memo disabled")
	}
	// Corrupt the stored entry, then force a re-execution of the same
	// spec (the Submit fast path would serve the hit, so drive the
	// worker path directly): the fresh run's 500 cycles disagree with
	// the memoized 501, and the guard must refuse to serve either.
	p.memo.Put("k3", core.Result{Cycles: 501, Verified: true})
	fut := &Future{done: make(chan struct{}), started: make(chan struct{})}
	p.execute(poolItem{task: Task{Label: "reexec", MemoKey: "k3", Run: okTask(500)}, fut: fut}, newWorkerState())
	if _, werr := fut.Wait(context.Background()); !errors.Is(werr, ErrDeterminism) {
		t.Fatalf("err = %v, want ErrDeterminism", werr)
	}
	if snap := p.Metrics().Snapshot(); snap.Determinism == 0 {
		t.Fatalf("guard trip not metered: %+v", snap)
	}
}

// TestDeterminismGuardOnCorruptedMemoRead proves a damaged cache read
// (injected memo corruption) is served as a hard error, never as a
// silently wrong cycle count.
func TestDeterminismGuardOnCorruptedMemoRead(t *testing.T) {
	reg := faults.New(7)
	if err := reg.Arm(faults.Fault{Point: FaultPointMemoGet, Kind: faults.Corrupt, Probability: 1}); err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, Faults: reg})
	defer p.Close()

	seed, err := submitOne(p, Task{Label: "seed", MemoKey: "k", Run: okTask(42)})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := seed.Wait(context.Background()); werr != nil {
		t.Fatal(werr)
	}
	hit, err := submitOne(p, Task{Label: "hit", MemoKey: "k", Run: okTask(42)})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := hit.Wait(context.Background()); !errors.Is(werr, ErrDeterminism) {
		t.Fatalf("corrupted memo read served: err = %v, want ErrDeterminism", werr)
	}
	if snap := p.Metrics().Snapshot(); snap.Determinism != 1 {
		t.Fatalf("metrics: %+v", snap)
	}
}

// TestTrySubmitShedsWhenSaturated pins Pool.Submit's shedding mode:
// with every worker busy and the queue full, the task is refused with
// ErrOverloaded instead of waiting for room.
func TestTrySubmitShedsWhenSaturated(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1, JobTimeout: time.Minute, Faults: faults.New(1)})
	defer p.Close()
	release := make(chan struct{})
	slow := func(context.Context) (core.Result, error) {
		<-release
		return core.Result{Cycles: 1, Verified: true}, nil
	}
	// One running, one queued: the pool is then saturated. Wait for the
	// worker to pick the first task up before filling the queue slot.
	first, err := trySubmitOne(p, Task{Label: "slow0", Run: slow})
	if err != nil {
		t.Fatal(err)
	}
	<-first.started
	second, err := trySubmitOne(p, Task{Label: "slow1", Run: slow})
	if err != nil {
		t.Fatalf("queue-slot submit: %v", err)
	}
	futs := []*Future{first, second}
	if _, err := trySubmitOne(p, Task{Label: "shed-me", Run: slow}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated shedding submit: %v, want ErrOverloaded", err)
	}
	if snap := p.Metrics().Snapshot(); snap.Shed != 1 {
		t.Fatalf("shed not metered: %+v", snap)
	}
	close(release)
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServiceBreakerOpensAndRecovers(t *testing.T) {
	boom := errors.New("backend down")
	var failing atomic.Bool
	failing.Store(true)
	factory := func(name string) (core.Machine, error) {
		if failing.Load() {
			return nil, resilience.MarkTransient(boom)
		}
		return nil, boom // unreachable in this test once flipped
	}
	clk := time.Unix(0, 0)
	var now atomic.Pointer[time.Time]
	now.Store(&clk)
	s := NewService(Options{
		Pool:    PoolOptions{Workers: 2, JobTimeout: time.Second, Retry: resilience.RetryPolicy{MaxAttempts: 1}, Faults: faults.New(1)},
		Factory: factory,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 2,
			OpenInterval:     time.Hour,
			Now:              func() time.Time { return *now.Load() },
		},
	})
	defer s.Close()
	w := smallWorkload()
	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}

	// Two failures trip the VIRAM breaker.
	for i := 0; i < 2; i++ {
		job, _, err := s.Admit(spec, "", BatchOptions{})
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		final, err := s.Wait(context.Background(), job.ID)
		if err != nil || final.State != Failed {
			t.Fatalf("job %d: %+v err %v", i, final, err)
		}
	}
	if st := s.Breakers().Get("VIRAM").State(); st != resilience.Open {
		t.Fatalf("VIRAM breaker %s, want open", st)
	}
	if _, _, err := s.Admit(spec, "", BatchOptions{}); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("open breaker admitted: %v", err)
	}
	// Other machines are unaffected.
	if _, _, err := s.Admit(JobSpec{Machine: "Raw", Kernel: core.CornerTurn, Workload: &w}, "", BatchOptions{}); err != nil {
		t.Fatalf("Raw admission: %v", err)
	}
	// Health reports the open breaker and degrades.
	h := s.Healthz()
	if !h.Degraded || h.Breakers["VIRAM"] != resilience.Open {
		t.Fatalf("health: %+v", h)
	}
	// After the open interval, the half-open breaker admits a probe.
	failing.Store(false)
	later := now.Load().Add(2 * time.Hour)
	now.Store(&later)
	if _, _, err := s.Admit(spec, "", BatchOptions{}); err != nil {
		t.Fatalf("probe not admitted after interval: %v", err)
	}
}

// unresettable hides a machine's Reset, so workers never cache it: every
// job builds a fresh instance and so consults the factory.
type unresettable struct{ core.Machine }

// breakerTestService builds a service whose factory fails while failing
// is set and whose breaker trips on one failure, with a manually
// advanced clock. Its machines cannot be reused, so every job reaches
// the factory — and sees it fail — even on a worker that already ran
// the same machine.
func breakerTestService(pool PoolOptions, failing *atomic.Bool, now *atomic.Pointer[time.Time]) *Service {
	boom := errors.New("backend down")
	return NewService(Options{
		Pool: pool,
		Factory: func(name string) (core.Machine, error) {
			if failing.Load() {
				return nil, boom
			}
			m, err := machines.ByName(name)
			return unresettable{m}, err
		},
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 1,
			OpenInterval:     time.Hour,
			Now:              func() time.Time { return *now.Load() },
		},
	})
}

// TestBreakerShedProbeDoesNotWedge is the probe-slot-leak regression
// test: a job admitted while the breaker is half-open but shed by a
// saturated queue never reaches the backend, so its probe slot must be
// released — otherwise the breaker rejects all traffic for that
// machine until process restart.
func TestBreakerShedProbeDoesNotWedge(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	clk := time.Unix(0, 0)
	var now atomic.Pointer[time.Time]
	now.Store(&clk)
	s := breakerTestService(PoolOptions{
		Workers: 1, QueueDepth: 1, JobTimeout: time.Minute,
		Retry:  resilience.RetryPolicy{MaxAttempts: 1},
		Faults: faults.New(1),
	}, &failing, &now)
	defer s.Close()
	w := smallWorkload()
	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}

	// One failure trips the breaker open.
	job, _, err := s.Admit(spec, "", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if final, werr := s.Wait(context.Background(), job.ID); werr != nil || final.State != Failed {
		t.Fatalf("trip job: %+v err %v", final, werr)
	}
	if st := s.Breakers().Get("VIRAM").State(); st != resilience.Open {
		t.Fatalf("breaker %s, want open", st)
	}

	// Saturate the pool: one job running, one holding the queue slot.
	release := make(chan struct{})
	slow := func(context.Context) (core.Result, error) {
		<-release
		return core.Result{Cycles: 1, Verified: true}, nil
	}
	first, err := trySubmitOne(s.Pool(), Task{Label: "slow0", Run: slow})
	if err != nil {
		t.Fatal(err)
	}
	<-first.started
	second, err := trySubmitOne(s.Pool(), Task{Label: "slow1", Run: slow})
	if err != nil {
		t.Fatal(err)
	}

	// Past the open interval the breaker admits one probe — which the
	// saturated queue sheds.
	failing.Store(false)
	later := now.Load().Add(2 * time.Hour)
	now.Store(&later)
	if _, _, err := s.Admit(spec, "", BatchOptions{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated admit: %v, want ErrOverloaded", err)
	}

	close(release)
	for _, f := range []*Future{first, second} {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// The shed must have released the probe slot: the next admission is
	// the real probe, not an ErrBreakerOpen from a leaked slot.
	job, _, err = s.Admit(spec, "", BatchOptions{})
	if err != nil {
		t.Fatalf("probe after shed rejected: %v", err)
	}
	if final, werr := s.Wait(context.Background(), job.ID); werr != nil || final.State != Done {
		t.Fatalf("probe job: %+v err %v", final, werr)
	}
	if st := s.Breakers().Get("VIRAM").State(); st != resilience.Closed {
		t.Fatalf("breaker %s after good probe, want closed", st)
	}
}

// TestBreakerCacheHitProbeDoesNotWedge: a half-open probe answered from
// the memo table never exercised the backend, so it must release its
// probe slot without deciding the circuit — not reclose it on no
// evidence, and not leak the slot.
func TestBreakerCacheHitProbeDoesNotWedge(t *testing.T) {
	var failing atomic.Bool
	clk := time.Unix(0, 0)
	var now atomic.Pointer[time.Time]
	now.Store(&clk)
	s := breakerTestService(PoolOptions{
		Workers: 2, JobTimeout: time.Minute,
		Retry:  resilience.RetryPolicy{MaxAttempts: 1},
		Faults: faults.New(1),
	}, &failing, &now)
	defer s.Close()
	w := smallWorkload()
	warm := JobSpec{Machine: "VIRAM", Kernel: core.BeamSteering, Workload: &w}
	fresh := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}

	// Warm the memo with a healthy run (blocking Submit skips the breaker).
	job, err := s.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	if final, werr := s.Wait(context.Background(), job.ID); werr != nil || final.State != Done {
		t.Fatalf("warm job: %+v err %v", final, werr)
	}

	// Trip the breaker with a failing run of a non-memoized spec.
	failing.Store(true)
	job, _, err = s.Admit(fresh, "", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if final, werr := s.Wait(context.Background(), job.ID); werr != nil || final.State != Failed {
		t.Fatalf("trip job: %+v err %v", final, werr)
	}
	if st := s.Breakers().Get("VIRAM").State(); st != resilience.Open {
		t.Fatalf("breaker %s, want open", st)
	}
	failing.Store(false)
	later := now.Load().Add(2 * time.Hour)
	now.Store(&later)

	// The probe is answered from the memo: served fine, but the circuit
	// stays half-open because the backend was never exercised.
	job, _, err = s.Admit(warm, "", BatchOptions{})
	if err != nil {
		t.Fatalf("cache-hit probe rejected: %v", err)
	}
	final, werr := s.Wait(context.Background(), job.ID)
	if werr != nil || final.State != Done || !final.FromCache {
		t.Fatalf("cache-hit probe: %+v err %v", final, werr)
	}
	if st := s.Breakers().Get("VIRAM").State(); st != resilience.HalfOpen {
		t.Fatalf("breaker %s after cache-hit probe, want half-open", st)
	}

	// The slot came back: a real probe is admitted and recloses.
	job, _, err = s.Admit(fresh, "", BatchOptions{})
	if err != nil {
		t.Fatalf("probe after cache hit rejected: %v", err)
	}
	if final, werr := s.Wait(context.Background(), job.ID); werr != nil || final.State != Done {
		t.Fatalf("real probe: %+v err %v", final, werr)
	}
	if st := s.Breakers().Get("VIRAM").State(); st != resilience.Closed {
		t.Fatalf("breaker %s after good probe, want closed", st)
	}
}

// TestPoolCloseReleasesGoroutines proves shutdown leaks nothing: every
// future resolves, a post-Close Submit fails fast, and the worker
// goroutines exit.
func TestPoolCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(PoolOptions{Workers: 4, QueueDepth: 8, JobTimeout: time.Minute, Faults: faults.New(1)})
	var futs []*Future
	for i := 0; i < 8; i++ {
		fut, err := submitOne(p, Task{Label: fmt.Sprintf("t%d", i), Run: okTask(uint64(i + 1))})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	p.Close()
	if _, err := submitOne(p, Task{Label: "post-close", Run: okTask(1)}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after close: %v, want ErrPoolClosed", err)
	}
	// Every future resolves — completed, or failed with pool-closed for
	// tasks still queued at Close. None may hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, f := range futs {
		if _, err := f.Wait(ctx); err != nil && !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("future after close: %v", err)
		}
	}
	// The workers (and any abandoned task goroutines) exit; poll because
	// goroutine teardown is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d before the pool", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFutureWaitRacesPoolShutdown hammers Wait against a concurrent
// Close; under -race this is the shutdown path's data-race check. Every
// Wait must return — with a result or ErrPoolClosed, never a hang.
func TestFutureWaitRacesPoolShutdown(t *testing.T) {
	for round := 0; round < 25; round++ {
		p := NewPool(PoolOptions{Workers: 2, QueueDepth: 2, JobTimeout: time.Minute, Faults: faults.New(1)})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			fut, err := trySubmitOne(p, Task{Label: fmt.Sprintf("r%d-t%d", round, i), Run: okTask(uint64(i + 1))})
			if err != nil {
				if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrPoolClosed) {
					t.Fatalf("submit: %v", err)
				}
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := fut.Wait(context.Background()); err != nil && !errors.Is(err, ErrPoolClosed) {
					t.Errorf("wait during shutdown: %v", err)
				}
			}()
		}
		p.Close()
		wg.Wait()
	}
}

func TestServiceWaitDistinguishesEvictedJobs(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 2, JobTimeout: time.Minute, Faults: faults.New(1)}, MaxJobs: 2})
	defer s.Close()
	w := smallWorkload()
	var ids []string
	// Submit three distinct terminal jobs; MaxJobs 2 evicts the oldest.
	for _, spec := range []JobSpec{
		{Machine: "PPC", Kernel: core.BeamSteering, Workload: &w},
		{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w},
	} {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), job.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	job, err := s.Submit(JobSpec{Machine: "VIRAM", Kernel: core.BeamSteering, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	// The first job should now be evicted.
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest job still tracked past MaxJobs")
	}
	_, werr := s.Wait(context.Background(), ids[0])
	if !errors.Is(werr, ErrJobEvicted) {
		t.Fatalf("evicted job Wait: %v, want ErrJobEvicted", werr)
	}
	// A never-issued ID is still a plain unknown-job error.
	_, werr = s.Wait(context.Background(), "j999999-deadbeef")
	if werr == nil || errors.Is(werr, ErrJobEvicted) {
		t.Fatalf("unknown job Wait: %v", werr)
	}
}
