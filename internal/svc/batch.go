package svc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/faults"
	"sigkern/internal/machines"
	"sigkern/internal/obs"
)

// MaxBatchCells is the documented cap on cells per batch group — the
// 413 threshold of POST /v1/batch. It matches the registry's default
// MaxJobs bound: one batch can never evict more history than a full
// registry would anyway.
const MaxBatchCells = 4096

// batchSyncEvery is the group-commit fsync stride: member terminal
// transitions are appended to the journal without an immediate fsync,
// and the group syncs once per this many completions (and once at
// group end). A crash inside a stride loses only those unsynced
// transitions; replay re-runs the affected members from the group's
// accepted record and the deterministic simulators reproduce the same
// cycle counts.
const batchSyncEvery = 32

// ErrBatchTooLarge is returned by Service.SubmitBatch when a group
// exceeds MaxBatchCells; the HTTP layer serves it as 413.
var ErrBatchTooLarge = fmt.Errorf("svc: batch exceeds %d cells", MaxBatchCells)

// ErrBatchEmpty is returned for a batch with no cells.
var ErrBatchEmpty = errors.New("svc: empty batch")

// BatchSpecError reports the first invalid spec in a batch by its
// 0-based index, so the HTTP layer can point the client at the exact
// NDJSON line.
type BatchSpecError struct {
	Index int
	Err   error
}

func (e *BatchSpecError) Error() string {
	return fmt.Sprintf("svc: batch cell %d: %v", e.Index, e.Err)
}

func (e *BatchSpecError) Unwrap() error { return e.Err }

// breakerRefusal refuses an admission whose machine's circuit breaker
// is open; the HTTP layer answers 503 with that breaker's Retry-After.
type breakerRefusal struct {
	machine string
	err     error
}

func (e *breakerRefusal) Error() string { return fmt.Sprintf("svc: machine %s: %v", e.machine, e.err) }

func (e *breakerRefusal) Unwrap() error { return e.err }

// BatchOptions qualifies one admission — a batch group, or the batch of
// one a single job is.
type BatchOptions struct {
	// Priority is the admission class for every cell. The zero value
	// is PriorityInteractive; grid sweeps should use PriorityBatch so
	// they queue behind (and shed before) request traffic.
	Priority Priority
	// Budget, when positive, is the admission's deadline budget: one
	// drain-estimate check admits or refuses the whole group (skipped
	// when every cell is a memo hit or an idempotent replay, answered in
	// microseconds whatever the queue depth), and every cell inherits
	// the expiry (cells still queued past it are dropped at worker
	// pickup).
	Budget time.Duration
}

// BatchResult is one completed cell, delivered in completion order.
type BatchResult struct {
	// Index is the cell's 0-based position in the submitted group.
	Index int `json:"index"`
	Job
}

// BatchGrid is the compact grid-expansion form: the cross product
// machines × kernels × workloads, in row-major order (machines outer,
// kernels middle, workloads inner). Empty Machines or Kernels default
// to the five paper machines and the three paper kernels; empty
// Workloads means the paper workload.
type BatchGrid struct {
	Machines  []string         `json:"machines,omitempty"`
	Kernels   []core.KernelID  `json:"kernels,omitempty"`
	Workloads []*core.Workload `json:"workloads,omitempty"`
}

// Expand returns the grid's cells as job specs. Validation happens at
// admission, per cell, so an invalid machine name still reports the
// exact cell index.
func (g BatchGrid) Expand() []JobSpec {
	ms := g.Machines
	if len(ms) == 0 {
		ms = machines.Names()
	}
	ks := g.Kernels
	if len(ks) == 0 {
		ks = core.Kernels()
	}
	ws := g.Workloads
	if len(ws) == 0 {
		ws = []*core.Workload{nil}
	}
	specs := make([]JobSpec, 0, len(ms)*len(ks)*len(ws))
	for _, m := range ms {
		for _, k := range ks {
			for _, w := range ws {
				specs = append(specs, JobSpec{Machine: m, Kernel: k, Workload: w})
			}
		}
	}
	return specs
}

// BatchRun is an admitted group in flight: every member's snapshot at
// admission plus a stream of completions.
type BatchRun struct {
	jobs    []Job
	results chan BatchResult
	abort   chan struct{}
	cancel  sync.Once
	metrics *Metrics

	// members are the registered jobs behind jobs. A member answered by
	// idempotent replay (replayed) is the original job: it is not run
	// again and gets no line of its own on results.
	members  []*Job
	replayed []bool
	// probes are the admission's breaker probes, one per distinct
	// machine, settled when the last launched member finishes; nil for
	// replay and ingest, which take none.
	probes    map[string]*probe
	mu        sync.Mutex // guards probe outcomes
	launched  int64
	unsettled atomic.Int64
	delivered atomic.Int64
}

// probe is one breaker probe's evidence from its admission's members.
type probe struct{ executed, failed bool }

// Jobs returns the members' snapshots at admission, index-aligned with
// the submitted specs. A member the admission answered itself (a memo
// hit, or a replayed key's finished job) is terminal in it; any other
// is not, however soon a worker finishes it.
func (b *BatchRun) Jobs() []Job { return b.jobs }

// Results streams completed cells in completion order; the channel is
// closed after the last cell. The channel is buffered for the whole
// group, so an abandoned consumer never wedges the workers.
func (b *BatchRun) Results() <-chan BatchResult { return b.results }

// Cancel stops the group's unstarted cells: queued cells are dropped at
// worker pickup with context.Canceled, running cells finish normally,
// and completed cells are unaffected. Safe to call more than once.
func (b *BatchRun) Cancel() {
	b.cancel.Do(func() {
		close(b.abort)
		if b.metrics != nil {
			b.metrics.batchCancels.Inc()
		}
	})
}

// SubmitBatch admits a group of specs as one unit — the service half of
// the grid fast path. Cells execute through one Pool.Submit, so cached
// and duplicate cells never occupy a worker slot; when the queue is
// full they wait for room. ctx cancellation (or BatchRun.Cancel) stops
// cells that have not started; everything already running completes
// and is journaled. Batch cells take no idempotency key: duplicate
// simulations are suppressed by the memo table and in-flight
// coalescing instead.
func (s *Service) SubmitBatch(ctx context.Context, specs []JobSpec, opts BatchOptions) (*BatchRun, error) {
	run, err := s.admit(ctx, specs, nil, opts, false)
	if err == nil {
		s.Metrics().batchGroups.Inc()
		s.Metrics().batchCells.Add(uint64(len(specs)))
	}
	return run, err
}

// Submit admits one job — a batch of one — and returns its snapshot at
// admission; a memo hit comes back already Done. On a durable service
// the spec hash doubles as the idempotency key, so resubmitting a spec
// whose job is still registered returns that job. When the queue is
// full the job waits for room rather than being shed.
func (s *Service) Submit(spec JobSpec) (Job, error) {
	job, _, err := s.admitOne(spec, "", BatchOptions{}, false)
	return job, err
}

// Admit is the single-job entry POST /v1/jobs uses: Submit under the
// request's idempotency key, priority class and deadline budget, shed
// with ErrOverloaded (429 upstairs) instead of waiting when the queue
// is full. An empty key falls back to the spec hash on a durable
// service — a blind client retry after a crash finds its original job —
// and means no deduplication on a memory-only one. When the key is
// bound to a live job, including one restored by journal replay or
// rebalance ingest, that job's snapshot is returned with replayed set.
func (s *Service) Admit(spec JobSpec, key string, opts BatchOptions) (job Job, replayed bool, err error) {
	return s.admitOne(spec, key, opts, true)
}

func (s *Service) admitOne(spec JobSpec, key string, opts BatchOptions, shed bool) (Job, bool, error) {
	run, err := s.admit(context.Background(), []JobSpec{spec}, []string{key}, opts, shed)
	if err != nil {
		return Job{}, false, err
	}
	return run.jobs[0], run.replayed[0], nil
}

// admit is the one way work enters the service: N >= 1 specs. keys,
// when non-nil, holds one idempotency key per spec, and an empty one
// falls back to the spec hash on a durable service — the single-job
// rule; batch admission passes nil, so its members get no implicit
// key. admit normalizes and hashes every spec into a member record,
// runs one deadline-budget check and one breaker probe per distinct
// machine, journals the members' acceptance and registers them under
// one lock hold (accept), and launches them. With shed, a member the
// full queue refuses is rolled back — journaled aborted and
// unregistered — and admit fails with ErrOverloaded.
func (s *Service) admit(ctx context.Context, specs []JobSpec, keys []string, opts BatchOptions, shed bool) (*BatchRun, error) {
	switch {
	case len(specs) == 0:
		return nil, ErrBatchEmpty
	case len(specs) > MaxBatchCells:
		return nil, ErrBatchTooLarge
	}
	run := &BatchRun{
		jobs:     make([]Job, len(specs)),
		abort:    make(chan struct{}),
		metrics:  s.Metrics(),
		members:  make([]*Job, len(specs)),
		replayed: make([]bool, len(specs)),
		probes:   make(map[string]*probe),
	}
	members := make([]batchMember, len(specs))
	for i, spec := range specs {
		norm, hash, err := normalizeAt(i, spec)
		if err != nil {
			return nil, err
		}
		key := ""
		if keys != nil {
			key = keys[i]
			if key == "" && s.journal != nil {
				key = hash
			}
		}
		members[i] = batchMember{Hash: hash, Spec: norm, IdemKey: key, Priority: opts.Priority}
	}

	// One deadline-budget check for the whole group: either the queue
	// can drain a new admission within the budget or the group is
	// refused now, instead of queueing cells doomed to expire one by
	// one.
	if opts.Budget > 0 && !s.answeredAtOnce(members) {
		if est := s.drainEstimate(opts.Priority); est > opts.Budget {
			s.Metrics().budgetDrops.Inc()
			return nil, fmt.Errorf("svc: admitting %d job(s): remaining budget %s below drain estimate %s: %w",
				len(specs), opts.Budget, est, ErrBudgetExhausted)
		}
	}

	for _, mb := range members {
		m := mb.Spec.Machine
		if run.probes[m] != nil {
			continue
		}
		if err := s.breakers.Get(m).Allow(); err != nil {
			s.Metrics().breakerDrops.Inc()
			s.settle(run.probes)
			return nil, &breakerRefusal{machine: m, err: err}
		}
		run.probes[m] = &probe{}
	}

	if err := s.accept(run, members); err != nil {
		s.settle(run.probes)
		return nil, err
	}
	var expires time.Time
	if opts.Budget > 0 {
		expires = time.Now().Add(opts.Budget)
	}
	if err := s.launch(ctx, run, expires, shed); err != nil {
		return nil, err
	}
	return run, nil
}

// normalizeAt normalizes and hashes the i-th spec of a group, reporting
// an invalid one as a *BatchSpecError naming its index.
func normalizeAt(i int, spec JobSpec) (JobSpec, string, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return JobSpec{}, "", &BatchSpecError{Index: i, Err: err}
	}
	hash, err := norm.Hash()
	if err != nil {
		return JobSpec{}, "", &BatchSpecError{Index: i, Err: err}
	}
	return norm, hash, nil
}

// answeredAtOnce reports whether every member would be answered without
// queueing — a memo hit or a key bound to a live job — so no deadline
// budget can be too short for the admission.
func (s *Service) answeredAtOnce(members []batchMember) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range members {
		if _, live := s.jobs[s.idem[m.IdemKey]]; !s.pool.MemoHas(m.Hash) && (m.IdemKey == "" || !live) {
			return false
		}
	}
	return true
}

// accept numbers an admission's members and makes them durable and
// registered under one lock hold: one batch_accepted record — one
// append, one fsync — carrying every fresh member plus the ID counter
// after them, applied once the journal holds it. If the journal cannot
// persist it nothing is registered: a group is accepted whole or not
// at all. A member whose idempotency key is bound to a live job is
// answered by that job instead — swapped in, marked replayed, neither
// numbered nor journaled again.
func (s *Service) accept(run *BatchRun, members []batchMember) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The record's member list reuses members' array: each fresh member
	// lands at or before its own index, after it has been read.
	ev := jobEvent{Type: eventBatch, Seq: s.seq, Time: time.Now(), Batch: members[:0]}
	for i, m := range members {
		if live, ok := s.jobs[s.idem[m.IdemKey]]; ok && m.IdemKey != "" {
			run.members[i], run.replayed[i] = live, true
			continue
		}
		ev.Seq++
		m.ID = fmt.Sprintf("%sj%06d-%s", s.idPrefix, ev.Seq, m.Hash[:8])
		ev.Batch = append(ev.Batch, m)
	}
	if len(ev.Batch) > 0 {
		if err := s.journalLocked(ev, true); err != nil {
			return err
		}
		s.apply(ev)
	}
	fresh := ev.Batch
	for i := range run.members {
		if !run.replayed[i] {
			run.members[i], fresh = s.jobs[fresh[0].ID], fresh[1:]
		}
		run.jobs[i] = run.members[i].clone(false)
	}
	s.evictLocked()
	return nil
}

// relaunch runs registered, unfinished jobs again — journal replay and
// rebalance ingest, whose jobs were accepted before a crash or on
// another shard — and reports how many reached the pool.
func (s *Service) relaunch(jobs []*Job) int {
	run := &BatchRun{abort: make(chan struct{}), members: jobs}
	if err := s.launch(context.Background(), run, time.Time{}, false); err != nil {
		return 0
	}
	return len(jobs)
}

// launch turns registered members into pool tasks — one Pool.Submit
// for the group — and finishes each one: the second half of admit, and
// all journal replay and rebalance ingest need. Members the pool
// answers at once (memo hits, and with shed the ones refused) finish
// before launch returns; the rest as their tasks complete.
func (s *Service) launch(ctx context.Context, run *BatchRun, expires time.Time, shed bool) error {
	var tasks []Task
	var idx []int
	for i, j := range run.members {
		if run.replayed == nil || !run.replayed[i] {
			tasks = append(tasks, s.task(j, run.abort, expires))
			idx = append(idx, i)
		}
	}
	run.launched = int64(len(idx))
	run.unsettled.Store(run.launched)
	run.results = make(chan BatchResult, len(idx))
	if len(idx) == 0 {
		s.settle(run.probes)
		close(run.results)
		return nil
	}
	futs, err := s.pool.Submit(ctx, tasks, shed)
	if err != nil {
		// Registered but never enqueued (pool closed): fail every member
		// so the registry reaches a terminal — or, on shutdown,
		// re-enqueueable — state.
		for _, i := range idx {
			s.finish(run.members[i].ID, core.Result{}, false, err)
		}
		s.syncJournal()
		s.settle(run.probes)
		return err
	}
	var shedErr error
	for t, i := range idx {
		fut := futs[t]
		if fut.shed() {
			// The job never reached a worker and its client hears 429:
			// roll it back so a restart does not run it either.
			s.drop(run.members[i].ID)
			shedErr = fut.err
		}
		if fut.answered() {
			job := s.complete(run, i, fut)
			if run.jobs != nil { // relaunch keeps no snapshots
				run.jobs[i] = job
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_, _ = fut.Wait(context.Background())
			s.complete(run, i, fut)
		}()
	}
	if shedErr != nil {
		s.syncJournal()
	}
	return shedErr
}

// task builds the pool task for one registered job: its spec task plus
// the hooks only registered jobs carry — the registry's running and
// retry transitions, the admission's priority and budget expiry, and
// the group's abort channel.
func (s *Service) task(j *Job, abort <-chan struct{}, expires time.Time) Task {
	id := j.ID
	t := specTask(j.Spec, j.Hash, s.factory, s.pool.Faults())
	t.Priority = j.Priority
	t.Expires = expires
	t.OnStart = func() { s.markRunning(id) }
	t.OnRetry = func(attempt int, err error) {
		s.traceEvent(id, obs.EventRetried, fmt.Sprintf("attempt %d: %v", attempt, err))
	}
	t.Abort = abort
	return t
}

// specTask builds the pool task that runs one normalized spec on an
// instance of its machine and configuration — the one constructor
// behind admitted jobs, study grids and sweeps. The spec hash is the
// memo key and the (machine, kernel) pair the metrics cell. A
// paper-default spec builds its instances with factory; a
// config-carrying one with its own config, behind the same chaos fault
// point. The PPC and AltiVec rows of a spec share (Task.Shares) its hash
// under their host's name (machines.Host).
func specTask(spec JobSpec, hash string, factory MachineFactory, chaos *faults.Registry) Task {
	if spec.Config != nil {
		factory = machines.ChaosFactory(chaos, spec.Config.Machine)
	}
	var shares func() string
	if host := machines.Host(spec.Machine); host != spec.Machine {
		shares = func() string {
			folded := spec
			folded.Machine = host
			key, _ := folded.Hash() // plain data: Marshal cannot fail
			return key
		}
	}
	return Task{
		Label:   fmt.Sprintf("%s/%s", spec.Machine, spec.Kernel),
		MemoKey: hash,
		Cell:    obs.Labels{Machine: spec.Machine, Kernel: string(spec.Kernel)},
		Machine: spec.Machine,
		Factory: factory,
		Shares:  shares,
		RunOn: func(_ context.Context, m core.Machine) (core.Result, error) {
			return core.Run(m, spec.Kernel, *spec.Workload)
		},
	}
}

// RunSpecs runs specs through the pool as one Submit, outside the job
// registry — the launch path of the study grid and the sweeps, sharing
// admitted jobs' task constructor. Every spec is normalized and hashed
// first: an invalid one fails the call as a *BatchSpecError before
// anything is queued. Tasks wait for queue room rather than shed, at
// priority pr; paper-default specs build instances with factory (nil
// means machines.ByName). The futures are index-aligned with specs.
func RunSpecs(ctx context.Context, p *Pool, factory MachineFactory, specs []JobSpec, pr Priority) ([]*Future, error) {
	if factory == nil {
		factory = machines.ByName
	}
	tasks := make([]Task, len(specs))
	for i, spec := range specs {
		norm, hash, err := normalizeAt(i, spec)
		if err != nil {
			return nil, err
		}
		tasks[i] = specTask(norm, hash, factory, p.Faults())
		tasks[i].Priority = pr
	}
	return p.Submit(ctx, tasks, false)
}

// complete finishes member i with its completed future and delivers its
// result line. The member that finishes the group last settles the
// breaker probes first, so a Wait that returns sees the breaker
// settled. Terminal transitions are journaled without an fsync; the
// journal is synced every batchSyncEvery deliveries and at group end,
// amortizing the durability cost across the group. It returns the
// snapshot it delivered.
func (s *Service) complete(run *BatchRun, i int, fut *Future) Job {
	j := run.members[i]
	res, err := fut.Wait(context.Background())
	if p := run.probes[j.Spec.Machine]; p != nil {
		run.mu.Lock()
		switch {
		case err == nil && !fut.FromCache():
			p.executed = true
		case err != nil && backendFault(err):
			p.executed, p.failed = true, true
		}
		run.mu.Unlock()
	}
	if run.unsettled.Add(-1) == 0 {
		s.settle(run.probes)
	}
	s.finish(j.ID, res, fut.FromCache(), err)
	// Every fresh execution is checked against the analytic model it
	// should never undercut; cache hits were checked when they ran.
	if err == nil && !fut.FromCache() {
		s.recordModelDrift(j.Spec, res)
	}
	job, _ := s.Job(j.ID)
	run.results <- BatchResult{Index: i, Job: job}
	switch n := run.delivered.Add(1); {
	case n == run.launched:
		s.syncJournal()
		close(run.results)
	case n%batchSyncEvery == 0:
		s.syncJournal()
	}
	return job
}

// backendFault reports whether a job error is evidence about its
// machine backend: a spent budget, a cancellation, a shutdown or a shed
// never exercised it.
func backendFault(err error) bool {
	return !errors.Is(err, ErrBudgetExhausted) && !errors.Is(err, context.Canceled) &&
		!errors.Is(err, ErrPoolClosed) && !errors.Is(err, ErrOverloaded)
}

// settle resolves an admission's breaker probes: failure for a machine
// with any genuine execution failure, success for one that executed
// cleanly, and a released probe for one whose backend never ran (memo
// hits, sheds, expiries, cancellations, shutdown).
func (s *Service) settle(probes map[string]*probe) {
	for name, p := range probes {
		br := s.breakers.Get(name)
		switch {
		case p.failed:
			br.Record(false)
		case p.executed:
			br.Record(true)
		default:
			br.Cancel()
		}
	}
}

// syncJournal flushes deferred journal appends to disk; a no-op without
// a journal. A failure counts like any other append error (and degrades
// /healthz) and is returned wrapped in ErrDurability.
func (s *Service) syncJournal() error {
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Sync(); err != nil {
		s.Metrics().journalErrs.Inc()
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}
