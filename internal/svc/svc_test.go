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

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/obs"
)

// smallWorkload returns a workload small enough to simulate in
// milliseconds, for service-level tests that run real machines.
func smallWorkload() core.Workload {
	return core.Workload{
		CornerTurn: cornerturn.Spec{Rows: 64, Cols: 64, BlockSize: 16},
		CSLC:       cslc.Spec{MainChannels: 1, AuxChannels: 1, Samples: 256, SubBands: 3, FFTSize: 64, Radix: fft.Radix4},
		Beam:       beamsteer.Spec{Elements: 64, Directions: 2, Dwells: 2, ShiftBits: 2, Rounding: 2},
	}
}

func okTask(cycles uint64) func(context.Context) (core.Result, error) {
	return func(context.Context) (core.Result, error) {
		return core.Result{Cycles: cycles, Verified: true}, nil
	}
}

// stubFormulation is what this package's stub machines declare; core.Run
// proves it before it calls a stub.
var stubFormulation = core.Formulation{CornerTurn: cornerturn.Transposer{Block: 16}, CSLC: fft.Radix2}

// funcMachine is the machine funcTask's tasks run on. It runs no
// kernel: the task's function is the whole run.
type funcMachine struct{}

var errFuncMachine = errors.New("funcMachine runs no kernel")

func (funcMachine) Name() string        { return "func" }
func (funcMachine) Params() core.Params { return core.Params{} }
func (funcMachine) Formulation(core.Workload) core.Formulation {
	return stubFormulation
}
func (funcMachine) RunCornerTurn(cornerturn.Spec) (core.Result, error) {
	return core.Result{}, errFuncMachine
}
func (funcMachine) RunCSLC(cslc.Spec) (core.Result, error) { return core.Result{}, errFuncMachine }
func (funcMachine) RunBeamSteering(beamsteer.Spec) (core.Result, error) {
	return core.Result{}, errFuncMachine
}

// funcTask makes t run fn, as RunOn over a funcMachine: the pool-level
// tests drive timeouts, panics, retries, memoization and queueing with
// plain functions.
func funcTask(t Task, fn func(context.Context) (core.Result, error)) Task {
	t.Machine = "func"
	t.Factory = func(string) (core.Machine, error) { return funcMachine{}, nil }
	t.RunOn = func(ctx context.Context, _ core.Machine) (core.Result, error) { return fn(ctx) }
	return t
}

// submitOne is Pool.Submit for one task that waits for queue room.
func submitOne(p *Pool, t Task) (*Future, error) {
	futs, err := p.Submit(context.Background(), []Task{t}, false)
	if err != nil {
		return nil, err
	}
	return futs[0], nil
}

// trySubmitOne is Pool.Submit for one task in shedding mode, reporting
// a task the full queue refused as its ErrOverloaded.
func trySubmitOne(p *Pool, t Task) (*Future, error) {
	futs, err := p.Submit(context.Background(), []Task{t}, true)
	if err != nil {
		return nil, err
	}
	if futs[0].shed() {
		return nil, futs[0].err
	}
	return futs[0], nil
}

// TestPoolConcurrentSubmitters hammers one pool from many goroutines;
// run under -race this is the subsystem's data-race check.
func TestPoolConcurrentSubmitters(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 8, JobTimeout: time.Minute})
	defer p.Close()
	if p.Workers() != 8 {
		t.Fatalf("workers = %d, want 8", p.Workers())
	}

	const submitters = 16
	const perSubmitter = 8
	var ran atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, submitters*perSubmitter)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				fut, err := submitOne(p, funcTask(Task{Label: fmt.Sprintf("s%d-%d", i, j)}, func(context.Context) (core.Result, error) {
					ran.Add(1)
					return core.Result{Cycles: 7, Verified: true}, nil
				}))
				if err != nil {
					errs <- err
					continue
				}
				if _, err := fut.Wait(context.Background()); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := ran.Load(); got != submitters*perSubmitter {
		t.Fatalf("ran %d tasks, want %d", got, submitters*perSubmitter)
	}
	snap := p.Metrics().Snapshot()
	if snap.Done != submitters*perSubmitter || snap.Failed != 0 || snap.Running != 0 {
		t.Fatalf("metrics after drain: %+v", snap)
	}
	if snap.CyclesServed != 7*submitters*perSubmitter {
		t.Fatalf("cycles served %d", snap.CyclesServed)
	}
}

func TestPoolTimeout(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, JobTimeout: 30 * time.Millisecond})
	defer p.Close()
	release := make(chan struct{})
	fut, err := submitOne(p, funcTask(Task{Label: "slow"}, func(ctx context.Context) (core.Result, error) {
		<-release // longer than the deadline
		return core.Result{Verified: true}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, werr := fut.Wait(context.Background())
	close(release)
	if !errors.Is(werr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", werr)
	}
	snap := p.Metrics().Snapshot()
	if snap.Timeouts != 1 || snap.Failed != 1 {
		t.Fatalf("timeout metrics: %+v", snap)
	}
	// The worker slot is free again: a fast job still completes.
	fut2, err := submitOne(p, funcTask(Task{Label: "fast"}, okTask(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPoolPanicIsolation(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2})
	defer p.Close()
	fut, err := submitOne(p, funcTask(Task{Label: "boom"}, func(context.Context) (core.Result, error) {
		panic("simulated simulator bug")
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, werr := fut.Wait(context.Background())
	if werr == nil || !strings.Contains(werr.Error(), "panicked") {
		t.Fatalf("err = %v, want panic report", werr)
	}
	snap := p.Metrics().Snapshot()
	if snap.Panics != 1 || snap.Failed != 1 {
		t.Fatalf("panic metrics: %+v", snap)
	}
	// The pool survived: later tasks run normally.
	fut2, err := submitOne(p, funcTask(Task{Label: "after"}, okTask(2)))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := fut2.Wait(context.Background()); err != nil || r.Cycles != 2 {
		t.Fatalf("after panic: %v %v", r, err)
	}
}

func TestPoolMemoization(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 4})
	defer p.Close()
	var runs atomic.Int32
	task := funcTask(Task{Label: "memoized", MemoKey: "key-1"}, func(context.Context) (core.Result, error) {
		runs.Add(1)
		return core.Result{Cycles: 42, Verified: true}, nil
	})
	first, err := submitOne(p, task)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := first.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := submitOne(p, task)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := second.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("task ran %d times, want 1", runs.Load())
	}
	if !second.FromCache() || first.FromCache() {
		t.Fatalf("cache flags: first=%v second=%v", first.FromCache(), second.FromCache())
	}
	if r1.Cycles != r2.Cycles {
		t.Fatalf("cycles differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if hr := p.Metrics().Snapshot().CacheHitRate; hr != 0.5 {
		t.Fatalf("memo hit rate %v, want 0.5", hr)
	}
}

func TestPoolClose(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	fut, err := submitOne(p, funcTask(Task{Label: "pre-close"}, okTask(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := submitOne(p, funcTask(Task{Label: "post-close"}, okTask(1))); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after close: %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestJobSpecNormalizeAndHash(t *testing.T) {
	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Workload == nil {
		t.Fatal("normalize did not fill the paper workload")
	}
	h1, err := norm.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// An explicit paper workload hashes identically to an omitted one.
	w := core.PaperWorkload()
	norm2, err := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := norm2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hashes differ: %s vs %s", h1, h2)
	}
	// A different kernel hashes differently.
	norm3, _ := JobSpec{Machine: "VIRAM", Kernel: core.CSLC}.Normalize()
	if h3, _ := norm3.Hash(); h3 == h1 {
		t.Fatal("different kernels, same hash")
	}

	for _, bad := range []JobSpec{
		{Machine: "Cray-1", Kernel: core.CornerTurn},
		{Machine: "VIRAM", Kernel: "sort"},
		{Machine: "VIRAM", Kernel: core.MatMul}, // extension kernel: not a study job
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
}

// TestServiceCacheHitDeterminism runs the same real simulation twice:
// the second submission must be served from cache with identical cycles.
func TestServiceCacheHitDeterminism(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 8, JobTimeout: time.Minute}})
	defer s.Close()
	w := smallWorkload()
	spec := JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}

	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done1, err := s.Wait(context.Background(), first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done1.State != Done || done1.Result == nil {
		t.Fatalf("first job: %+v", done1)
	}
	if done1.FromCache {
		t.Fatal("first run served from cache")
	}

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done2, err := s.Wait(context.Background(), second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !done2.FromCache {
		t.Fatal("second run not served from cache")
	}
	if done2.Result == nil || done2.Result.Cycles != done1.Result.Cycles {
		t.Fatalf("cache broke determinism: %v vs %v", done1.Result, done2.Result)
	}
	if done1.Hash != done2.Hash {
		t.Fatalf("same spec, different hashes: %s vs %s", done1.Hash, done2.Hash)
	}
	snap := s.Metrics().Snapshot()
	if snap.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1: %+v", snap.CacheHits, snap)
	}
}

func TestServiceConcurrentSubmitters(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 8, JobTimeout: time.Minute}})
	defer s.Close()
	w := smallWorkload()
	specs := []JobSpec{
		{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w},
		{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "Imagine", Kernel: core.BeamSteering, Workload: &w},
		{Machine: "Raw", Kernel: core.CornerTurn, Workload: &w},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(specs)*4)
	for g := 0; g < 4; g++ {
		for _, spec := range specs {
			wg.Add(1)
			go func(spec JobSpec) {
				defer wg.Done()
				job, err := s.Submit(spec)
				if err != nil {
					errs <- err
					return
				}
				final, err := s.Wait(context.Background(), job.ID)
				if err != nil {
					errs <- err
					return
				}
				if final.State != Done {
					errs <- fmt.Errorf("job %s: state %s (%s)", final.ID, final.State, final.Error)
				}
			}(spec)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(s.Jobs()); got != len(specs)*4 {
		t.Fatalf("%d jobs tracked, want %d", got, len(specs)*4)
	}
}

func TestMetricsQuantiles(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		m.jobFinished(obs.Labels{}, false, true, false, false, time.Duration(i)*time.Millisecond)
	}
	snap := m.Snapshot()
	if snap.Samples != 100 {
		t.Fatalf("samples = %d", snap.Samples)
	}
	if snap.P50Seconds < 0.045 || snap.P50Seconds > 0.055 {
		t.Fatalf("p50 = %v", snap.P50Seconds)
	}
	if snap.P99Seconds < 0.095 || snap.P99Seconds > 0.100 {
		t.Fatalf("p99 = %v", snap.P99Seconds)
	}
	var sb strings.Builder
	if err := m.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"simserved_jobs_done_total 100",
		"simserved_job_latency_p50_seconds",
		"simserved_cache_hit_rate",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics text missing %q:\n%s", want, sb.String())
		}
	}
}
