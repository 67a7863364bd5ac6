package svc

import (
	"context"
	"fmt"
	"time"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/kernels/matmul"
	"sigkern/internal/kernels/pfb"
	"sigkern/internal/machines"
	"sigkern/internal/obs"
	"sigkern/internal/resilience"
	"sigkern/internal/roofline"
)

// Tier selects a job's quality tier: a full simulation (the default,
// bit-deterministic, milliseconds to seconds) or an analytic roofline
// estimate (a lower bound, microseconds, no simulator state built).
type Tier string

// The quality tiers of POST /v1/jobs?tier=. TierAuto is never stored
// on a job: the brownout controller resolves it to simulate or
// estimate exactly once per request (Service.ResolveTier), so one
// response can never mix tiers.
const (
	TierSimulate Tier = "simulate"
	TierEstimate Tier = "estimate"
	TierAuto     Tier = "auto"
)

// ParseTier maps the ?tier= query value onto a Tier. Empty means
// simulate, the pre-tier behavior.
func ParseTier(v string) (Tier, error) {
	switch Tier(v) {
	case "", TierSimulate:
		return TierSimulate, nil
	case TierEstimate:
		return TierEstimate, nil
	case TierAuto:
		return TierAuto, nil
	}
	return "", fmt.Errorf("svc: unknown tier %q (want %q, %q, or %q)", v, TierAuto, TierEstimate, TierSimulate)
}

// estimateMemoCapacity bounds the estimate tier's own memo table. The
// namespace is structural — a separate cache.Memo instance — so
// estimate entries can never collide with (or evict) simulated results
// stored under the same spec hash.
const estimateMemoCapacity = 4096

// Estimate answers a job spec from the analytic roofline model:
// normalize, hash, probe the estimate memo, and synthesize a terminal
// Job — no pool admission, no registry entry, no journal append. The
// returned job is Done before the caller sees it, carries the model's
// cycle bound in Result, and is not retrievable by ID later (nothing
// durable happened on its behalf).
func (s *Service) Estimate(spec JobSpec) (Job, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return Job{}, err
	}
	hash, err := norm.Hash()
	if err != nil {
		return Job{}, err
	}
	submitted := time.Now()
	est, cached := s.estimates.Get(hash)
	if !cached {
		est, err = roofline.ForJob(norm.Machine, norm.Kernel, *norm.Workload)
		if err != nil {
			return Job{}, err
		}
		s.estimates.Put(hash, est)
	}
	s.Metrics().estimates.With(obs.Labels{Machine: norm.Machine, Kernel: string(norm.Kernel)}).Inc()
	e := est
	res := core.Result{
		Machine: norm.Machine,
		Kernel:  norm.Kernel,
		Cycles:  est.Cycles,
		Ops:     est.Ops,
		Words:   est.Words,
		Notes:   []string{fmt.Sprintf("analytic roofline estimate (%s-bound); not simulated", est.Bound)},
	}
	return Job{
		ID:        "est-" + hash[:12],
		Spec:      norm,
		Hash:      hash,
		State:     Done,
		Tier:      TierEstimate,
		FromCache: cached,
		Result:    &res,
		Estimate:  &e,
		Submitted: submitted,
		Finished:  time.Now(),
	}, nil
}

// recordModelDrift compares one freshly simulated result against the
// analytic model for the same spec and publishes the ratio: the
// per-cell model-error gauge always, and a drift alert counter when the
// ratio leaves the cell's envelope. A simulator drifting from its own
// lower bound (ratio < 1, or far above the known overhead ceiling) is a
// correctness alarm, and this is what makes it fire without anyone
// asking for a report. Specs whose machine has no Table 1 row (custom
// factories) have no model to drift from and are skipped.
func (s *Service) recordModelDrift(spec JobSpec, res core.Result) {
	est, err := roofline.ForJob(spec.Machine, spec.Kernel, *spec.Workload)
	if err != nil || est.Cycles == 0 {
		return
	}
	lo, hi := roofline.EnvelopeFor(spec.Machine, spec.Kernel)
	ratio := float64(res.Cycles) / float64(est.Cycles)
	cell := obs.Labels{Machine: spec.Machine, Kernel: string(spec.Kernel)}
	s.Metrics().modelObserved(cell, ratio, ratio >= lo && ratio <= hi)
}

// RooflineData is the GET /v1/roofline payload: the full
// predicted-cycles grid — every Table 1 machine crossed with every
// kernel that declares metadata — with per-cell model-vs-simulated
// error where a simulation ran. The paper-kernel cells regenerate
// Table 4; the extension kernels extend it.
type RooflineData struct {
	Title string          `json:"title"`
	Cells []roofline.Cell `json:"cells"`
}

// pfbRunner is implemented by machines that support the PFB extension
// kernel (all five paper machines do; custom factories may not).
type pfbRunner interface {
	RunPFB(pfb.Workload) (core.Result, error)
}

// Roofline computes the grid. With simulate set, every cell with a
// machine implementation is also run through the pool (memoized, so
// repeat calls are cheap) and annotated with its error ratio; the
// ratios are published to the per-cell model-error gauge so a scrape
// sees the same numbers the report shows. Model-only cells carry just
// the estimate.
func (s *Service) Roofline(ctx context.Context, simulate bool) (*RooflineData, error) {
	w := core.PaperWorkload()
	measured := make(map[string]map[core.KernelID]uint64)
	if simulate {
		sr, err := RunStudy(ctx, s.pool, s.factory, machines.Names(), w, PriorityInteractive)
		if err != nil {
			return nil, err
		}
		for _, name := range machines.Names() {
			measured[name] = make(map[core.KernelID]uint64)
			for _, k := range core.Kernels() {
				if r, ok := sr.Result(name, k); ok {
					measured[name][k] = r.Cycles
				}
			}
		}
		if err := s.runExtensionCells(ctx, measured); err != nil {
			return nil, err
		}
	}
	cells, err := roofline.Grid(w, measured)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		if c.Simulated {
			s.Metrics().modelObserved(obs.Labels{Machine: c.Machine, Kernel: string(c.Kernel)},
				c.ErrorRatio, c.WithinEnvelope)
		}
	}
	return &RooflineData{
		Title: "Roofline: analytic model vs simulation (Table 4, regenerated and extended)",
		Cells: cells,
	}, nil
}

// runExtensionCells simulates the extension kernels with a machine
// implementation (matmul and pfb; equalize and fft stay model-only) and
// folds the cycle counts into measured. Tasks are memoized under a
// "roofline-ext:" namespace — extension runs are not job-API specs, so
// their keys must never collide with spec hashes.
func (s *Service) runExtensionCells(ctx context.Context, measured map[string]map[core.KernelID]uint64) error {
	type cell struct {
		machine string
		kernel  core.KernelID
	}
	var cells []cell
	var tasks []Task
	for _, name := range machines.Names() {
		name := name
		// The probe instance only answers capability checks; the tasks run
		// on the workers' own instances. The factory consults the chaos
		// fault point, so construction is retried like any transient
		// failure.
		var probe core.Machine
		if _, err := resilience.DefaultRetry().Do(ctx, func(context.Context) error {
			var ferr error
			probe, ferr = s.factory(name)
			return ferr
		}); err != nil {
			return err
		}
		add := func(k core.KernelID, run func(core.Machine) (core.Result, error)) {
			cells = append(cells, cell{machine: name, kernel: k})
			tasks = append(tasks, Task{
				Label:   fmt.Sprintf("%s/%s", name, k),
				MemoKey: fmt.Sprintf("roofline-ext:%s:%s", name, k),
				Cell:    obs.Labels{Machine: name, Kernel: string(k)},
				Machine: name,
				Factory: s.factory,
				RunOn:   func(_ context.Context, m core.Machine) (core.Result, error) { return run(m) },
			})
		}
		if _, ok := probe.(core.MatMulRunner); ok {
			add(core.MatMul, func(m core.Machine) (core.Result, error) {
				return m.(core.MatMulRunner).RunMatMul(matmul.DefaultSpec())
			})
		}
		if _, ok := probe.(pfbRunner); ok {
			add(roofline.PFB, func(m core.Machine) (core.Result, error) {
				return m.(pfbRunner).RunPFB(pfb.DefaultWorkload())
			})
		}
	}
	futs, err := s.pool.Submit(ctx, tasks, false)
	if err != nil {
		return err
	}
	for i, c := range cells {
		r, err := futs[i].Wait(ctx)
		if err != nil {
			return fmt.Errorf("svc: %s on %s: %w", c.kernel, c.machine, err)
		}
		if measured[c.machine] == nil {
			measured[c.machine] = make(map[core.KernelID]uint64)
		}
		measured[c.machine][c.kernel] = r.Cycles
	}
	return nil
}

// newEstimateMemo builds the estimate tier's private memo table.
func newEstimateMemo() *cache.Memo[roofline.Estimate] {
	return cache.NewMemo[roofline.Estimate](estimateMemoCapacity)
}
