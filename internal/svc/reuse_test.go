// Machine-reuse tests: the per-worker instance cache must be invisible
// in results — a reused instance either reproduces a fresh instance's
// cycles bit-identically or the determinism guard turns the run into a
// hard error. Never a silently wrong count.
package svc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
)

// leakyMachine is a stub core.Machine whose runs accumulate state: the
// first run after construction (or an honest Reset) costs 100 cycles,
// and every leaked prior run adds 10. With leak=true its Reset is a
// no-op — the exact failure mode the reuse determinism guard exists to
// catch.
type leakyMachine struct {
	name string
	runs uint64
	leak bool
}

func (m *leakyMachine) Name() string        { return m.name }
func (m *leakyMachine) Params() core.Params { return core.Params{} }

func (m *leakyMachine) run() (core.Result, error) {
	m.runs++
	return core.Result{Cycles: 100 + (m.runs-1)*10, Verified: true}, nil
}

func (m *leakyMachine) RunCornerTurn(cornerturn.Spec) (core.Result, error)  { return m.run() }
func (m *leakyMachine) RunCSLC(cslc.Spec) (core.Result, error)              { return m.run() }
func (m *leakyMachine) RunBeamSteering(beamsteer.Spec) (core.Result, error) { return m.run() }

func (m *leakyMachine) Reset() {
	if !m.leak {
		m.runs = 0
	}
}

func leakyFactory(leak bool) MachineFactory {
	return func(name string) (core.Machine, error) {
		return &leakyMachine{name: name, leak: leak}, nil
	}
}

func reuseTask(label string, factory MachineFactory) Task {
	return Task{
		Label:   label,
		Machine: "leaky",
		Factory: factory,
		RunOn: func(_ context.Context, m core.Machine) (core.Result, error) {
			return m.RunCornerTurn(cornerturn.Spec{})
		},
	}
}

// TestLeakyResetTripsDeterminismGuard drives a machine whose Reset
// leaks state through the reuse path with every reused cell sampled:
// the guard must answer ErrDeterminism, and no future may ever carry
// the leaked (wrong) cycle count as a success.
func TestLeakyResetTripsDeterminismGuard(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, MemoCapacity: -1, ReuseSampleEvery: 1})
	defer p.Close()
	factory := leakyFactory(true)

	tripped := false
	for i := 0; i < 6; i++ {
		fut, err := submitOne(p, reuseTask(fmt.Sprintf("leak-%d", i), factory))
		if err != nil {
			t.Fatal(err)
		}
		res, werr := fut.Wait(context.Background())
		switch {
		case werr == nil:
			// A success must be a fresh-instance-identical run: the
			// leaked 110+ counts may never escape as answers.
			if res.Cycles != 100 {
				t.Fatalf("cell %d: wrong cycles %d served as success", i, res.Cycles)
			}
		case errors.Is(werr, ErrDeterminism):
			tripped = true
		default:
			t.Fatalf("cell %d: unexpected error %v", i, werr)
		}
	}
	if !tripped {
		t.Fatal("leaky Reset never tripped ErrDeterminism")
	}
	snap := p.Metrics().Snapshot()
	if snap.Determinism == 0 {
		t.Fatalf("determinism violation not metered: %+v", snap)
	}
	if snap.ReuseChecks == 0 {
		t.Fatalf("no reuse verification ran: %+v", snap)
	}

	// The quarantine: after a trip, instance reuse is off pool-wide, so
	// every further cell runs fresh and correct.
	for i := 0; i < 3; i++ {
		fut, err := submitOne(p, reuseTask(fmt.Sprintf("post-%d", i), factory))
		if err != nil {
			t.Fatal(err)
		}
		res, werr := fut.Wait(context.Background())
		if werr != nil {
			t.Fatalf("post-quarantine cell %d: %v", i, werr)
		}
		if res.Cycles != 100 {
			t.Fatalf("post-quarantine cell %d: cycles = %d, want 100", i, res.Cycles)
		}
	}
}

// TestHonestResetReusesInstances proves the fast path engages: with a
// contract-honoring Reset, later cells reuse the worker's cached
// instance, sampling re-verifies them against fresh instances, and
// every answer matches a fresh run.
func TestHonestResetReusesInstances(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, MemoCapacity: -1, ReuseSampleEvery: 1})
	defer p.Close()
	factory := leakyFactory(false)

	for i := 0; i < 5; i++ {
		fut, err := submitOne(p, reuseTask(fmt.Sprintf("honest-%d", i), factory))
		if err != nil {
			t.Fatal(err)
		}
		res, werr := fut.Wait(context.Background())
		if werr != nil {
			t.Fatalf("cell %d: %v", i, werr)
		}
		if res.Cycles != 100 {
			t.Fatalf("cell %d: cycles = %d, want 100", i, res.Cycles)
		}
	}
	snap := p.Metrics().Snapshot()
	if snap.MachineReuses == 0 {
		t.Fatalf("no instance was reused: %+v", snap)
	}
	if snap.ReuseChecks == 0 {
		t.Fatalf("sampling never verified a reuse: %+v", snap)
	}
	if snap.Determinism != 0 {
		t.Fatalf("honest reset tripped the guard: %+v", snap)
	}
}

// TestReuseSamplingStride checks the sampling contract: the first
// reuse per (worker, machine) is always verified, later ones only on
// the stride.
func TestReuseSamplingStride(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, MemoCapacity: -1, ReuseSampleEvery: 4})
	defer p.Close()
	factory := leakyFactory(false)
	for i := 0; i < 9; i++ {
		fut, err := submitOne(p, reuseTask(fmt.Sprintf("stride-%d", i), factory))
		if err != nil {
			t.Fatal(err)
		}
		if _, werr := fut.Wait(context.Background()); werr != nil {
			t.Fatal(werr)
		}
	}
	snap := p.Metrics().Snapshot()
	// 9 cells on one worker: 1 build + 8 reuses, sampled at reuse 0 and
	// 4 (stride 4) = exactly 2 verification runs.
	if snap.MachineReuses != 8 {
		t.Fatalf("reuses = %d, want 8: %+v", snap.MachineReuses, snap)
	}
	if snap.ReuseChecks != 2 {
		t.Fatalf("reuse checks = %d, want 2: %+v", snap.ReuseChecks, snap)
	}
}

// TestReuseUnderCoalescedDuplicates floods a multi-worker pool with
// duplicate and distinct specs through SubmitBatch — coalescing,
// memoization, and the per-worker instance caches all active at once —
// and checks under -race that every answer is the fresh-run count.
func TestReuseUnderCoalescedDuplicates(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 8, JobTimeout: time.Minute, ReuseSampleEvery: 2})
	defer p.Close()

	var built atomic.Uint64
	factory := func(name string) (core.Machine, error) {
		built.Add(1)
		return &leakyMachine{name: name, leak: false}, nil
	}

	const cells = 160
	tasks := make([]Task, cells)
	for i := range tasks {
		// 4 machine names x 8 distinct memo keys, so every key appears
		// 5 times: coalescing and memo hits race with cache reuse.
		machine := fmt.Sprintf("m%d", i%4)
		tasks[i] = Task{
			Label:   fmt.Sprintf("dup-%d", i),
			MemoKey: fmt.Sprintf("%s/k%d", machine, i%32),
			Machine: machine,
			Factory: factory,
			RunOn: func(_ context.Context, m core.Machine) (core.Result, error) {
				return m.RunCornerTurn(cornerturn.Spec{})
			},
		}
	}
	futs, err := p.Submit(context.Background(), tasks, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, fut := range futs {
		res, werr := fut.Wait(context.Background())
		if werr != nil {
			t.Fatalf("cell %d: %v", i, werr)
		}
		if res.Cycles != 100 {
			t.Fatalf("cell %d: cycles = %d, want 100", i, res.Cycles)
		}
	}
	snap := p.Metrics().Snapshot()
	if snap.Determinism != 0 {
		t.Fatalf("determinism violations under duplicates: %+v", snap)
	}
	// Coalescing + memoization must leave at most one execution per
	// distinct key, and the caches keep builds below executions.
	if got := built.Load(); got > cells {
		t.Fatalf("factory ran %d times for %d cells", got, cells)
	}
}

// TestReuseDisabledBySampleEveryNegative pins the opt-out: a negative
// stride disables verification sampling but reuse still happens.
func TestReuseDisabledBySampleEveryNegative(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, MemoCapacity: -1, ReuseSampleEvery: -1})
	defer p.Close()
	factory := leakyFactory(false)
	for i := 0; i < 4; i++ {
		fut, err := submitOne(p, reuseTask(fmt.Sprintf("nosample-%d", i), factory))
		if err != nil {
			t.Fatal(err)
		}
		if _, werr := fut.Wait(context.Background()); werr != nil {
			t.Fatal(werr)
		}
	}
	snap := p.Metrics().Snapshot()
	if snap.MachineReuses == 0 {
		t.Fatalf("reuse disabled entirely: %+v", snap)
	}
	if snap.ReuseChecks != 0 {
		t.Fatalf("sampling ran with a negative stride: %+v", snap)
	}
}
