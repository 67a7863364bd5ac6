package svc

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/faults"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
)

// leakyMachine is a stub core.Machine whose runs accumulate state: the
// first run on an instance costs 100 cycles, and every earlier run on
// the same instance adds 10. Its Reset rewinds nothing, so an instance
// handed to a second run, reset or not, answers 110.
type leakyMachine struct {
	name string
	runs uint64
}

func (m *leakyMachine) Name() string        { return m.name }
func (m *leakyMachine) Params() core.Params { return core.Params{} }
func (m *leakyMachine) Reset()              {}
func (m *leakyMachine) Formulation(core.Workload) core.Formulation {
	return stubFormulation
}

func (m *leakyMachine) run() (core.Result, error) {
	m.runs++
	return core.Result{Cycles: 100 + (m.runs-1)*10, Verified: true}, nil
}

func (m *leakyMachine) RunCornerTurn(cornerturn.Spec) (core.Result, error)  { return m.run() }
func (m *leakyMachine) RunCSLC(cslc.Spec) (core.Result, error)              { return m.run() }
func (m *leakyMachine) RunBeamSteering(beamsteer.Spec) (core.Result, error) { return m.run() }

// TestEveryAttemptBuildsItsMachine runs cells of a machine whose state
// leaks from run to run through one worker: every cell must get a new
// instance's count with no determinism trip, and the pool must build
// one instance per executed attempt.
func TestEveryAttemptBuildsItsMachine(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, JobTimeout: time.Minute, MemoCapacity: -1, Faults: faults.New(1)})
	defer p.Close()
	factory := func(name string) (core.Machine, error) { return &leakyMachine{name: name}, nil }
	const cells = 8
	tasks := make([]Task, cells)
	for i := range tasks {
		tasks[i] = Task{
			Label:   fmt.Sprintf("leaky-%d", i),
			Machine: "leaky",
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
		res, err := fut.Wait(context.Background())
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if res.Cycles != 100 {
			t.Fatalf("cell %d: %d cycles, want a new instance's 100", i, res.Cycles)
		}
	}
	snap := p.Metrics().Snapshot()
	if snap.Determinism != 0 || snap.Retries != 0 {
		t.Fatalf("determinism trips %d, retries %d; want none", snap.Determinism, snap.Retries)
	}
	if snap.MachineBuilds != cells || snap.MachineReuses != 0 {
		t.Fatalf("%d builds, %d reuses for %d executed attempts; want one build each and no reuse",
			snap.MachineBuilds, snap.MachineReuses, cells)
	}
}
