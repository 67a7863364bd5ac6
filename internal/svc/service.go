package svc

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/faults"
	"sigkern/internal/journal"
	"sigkern/internal/machines"
	"sigkern/internal/obs"
	"sigkern/internal/resilience"
	"sigkern/internal/roofline"
)

// ErrJobEvicted is returned by Wait when the asked-for job existed but
// was dropped from the registry by terminal-job eviction — distinct
// from an ID that was never issued, so clients can tell "poll later
// with a fresh submit" from "bogus ID".
var ErrJobEvicted = errors.New("svc: job evicted from registry")

// Options configures a Service. The zero value is usable.
type Options struct {
	Pool PoolOptions
	// Factory builds the machine instances jobs run on — each worker
	// builds one per machine and configuration and rewinds it between
	// jobs; nil means machines.ByName (the paper configurations). The
	// factory is wrapped with the machines.FaultPoint chaos hook when a
	// fault registry is active.
	Factory MachineFactory
	// MaxJobs bounds the job registry; once exceeded the oldest
	// terminal jobs are evicted. <= 0 means 4096.
	MaxJobs int
	// Breaker configures the per-machine-backend circuit breakers; the
	// zero value uses resilience defaults (5 consecutive failures trip
	// a 5s open interval).
	Breaker resilience.BreakerConfig
	// Brownout configures the ?tier=auto hysteresis controller. Zero
	// fields take the resilience defaults, except the latency signal:
	// EnterExecP99 defaults to half the pool's per-job timeout (and
	// ExitExecP99 to half of that), so a service whose executed p99
	// approaches its own deadline starts degrading before it starts
	// timing out.
	Brownout resilience.BrownoutConfig
	// Logger receives structured request logs from the HTTP layer
	// (method, path, status, duration, request ID). nil disables
	// access logging; request-ID propagation stays on either way.
	Logger *slog.Logger
	// ShardID names this instance in a cluster. When set, issued job
	// IDs gain a "<shard>-" prefix (s1-j000042-<hash8>) so a gateway
	// can route status polls back to the issuing shard and rebalanced
	// jobs can never collide with the successor's own counter. Empty —
	// the default — keeps the single-node ID format byte-identical.
	ShardID string
	// ConfigHash is the identity hash of the process-wide machine
	// configuration (machines.ConfigSet.Hash of the -config file).
	// /healthz and /readyz report it so a cluster gateway can refuse to
	// route across shards running different hardware parameters. Empty
	// means machines.DefaultConfigHash() — paper defaults.
	ConfigHash string
}

// Service is the simulation job-queue service: it tracks submitted jobs
// by ID, runs them on the pool behind per-machine circuit breakers, and
// answers status queries. It is safe for concurrent use.
type Service struct {
	pool     *Pool
	factory  MachineFactory
	maxJobs  int
	breakers *resilience.BreakerSet
	logger   *slog.Logger
	// journal, when set, is the write-ahead log every job lifecycle
	// transition is appended to (see OpenDurable); nil means the
	// registry is memory-only, the pre-durability behavior.
	journal *journal.Journal
	// estimates is the estimate tier's own memo namespace: a separate
	// table from the pool's simulated-result memo, so the two tiers can
	// never serve each other's numbers for the same spec hash.
	estimates *cache.Memo[roofline.Estimate]
	// brownout decides, per ?tier=auto request, whether to degrade to
	// the estimate tier (see ResolveTier).
	brownout *resilience.Brownout
	// shardID/idPrefix carry the cluster identity (Options.ShardID);
	// empty on a single-node service.
	shardID  string
	idPrefix string
	// configHash identifies the process-wide machine configuration
	// (Options.ConfigHash); configHashes of per-spec overrides are
	// computed per job, not here.
	configHash string
	// chaos wraps per-spec config factories with the same fault point as
	// the default factory, so chaos runs cover config-carrying jobs too.
	chaos *faults.Registry
	// draining flips when the process has been told to stop accepting
	// new work (SIGTERM) but is still finishing what it has: /readyz
	// answers 503 while /healthz — liveness — stays 200.
	draining atomic.Bool
	// wg tracks the per-job completion goroutines so Close can drain
	// them before snapshotting final state.
	wg sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for eviction and listing
	// evicted remembers (bounded) IDs dropped by evictLocked so Wait
	// can report eviction distinctly from never-issued IDs.
	evicted      map[string]bool
	evictedOrder []string
	// idem maps idempotency keys to live job IDs: resubmitting a key
	// returns the original job instead of duplicate work.
	idem   map[string]string
	seq    uint64
	replay ReplayStats
}

// NewService starts a service and its pool.
func NewService(opts Options) *Service {
	if opts.Factory == nil {
		opts.Factory = machines.ByName
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 4096
	}
	if opts.Pool.Faults == nil {
		opts.Pool.Faults = faults.Default()
	}
	prefix := ""
	if opts.ShardID != "" {
		prefix = opts.ShardID + "-"
	}
	if opts.ConfigHash == "" {
		opts.ConfigHash = machines.DefaultConfigHash()
	}
	pool := NewPool(opts.Pool)
	bc := opts.Brownout
	if bc.EnterExecP99 <= 0 {
		bc.EnterExecP99 = pool.JobTimeout() / 2
	}
	if bc.ExitExecP99 <= 0 {
		bc.ExitExecP99 = bc.EnterExecP99 / 2
	}
	return &Service{
		pool:       pool,
		factory:    machines.ChaosFactory(opts.Pool.Faults, opts.Factory),
		maxJobs:    opts.MaxJobs,
		breakers:   resilience.NewBreakerSet(opts.Breaker),
		logger:     opts.Logger,
		shardID:    opts.ShardID,
		idPrefix:   prefix,
		configHash: opts.ConfigHash,
		chaos:      opts.Pool.Faults,
		estimates:  newEstimateMemo(),
		brownout:   resilience.NewBrownout(bc),
		jobs:       make(map[string]*Job),
		evicted:    make(map[string]bool),
		idem:       make(map[string]string),
	}
}

// ShardID returns the cluster identity this service was configured
// with ("" on a single-node service).
func (s *Service) ShardID() string { return s.shardID }

// ConfigHash returns the identity hash of the process-wide machine
// configuration set — what /healthz and /readyz report.
func (s *Service) ConfigHash() string { return s.configHash }

// factoryFor returns the machine factory for one normalized spec: the
// process factory for paper-default specs, or a per-spec factory over
// the spec's config override, wrapped with the same chaos fault point
// as the default one. The spec must be normalized (its config
// validated) first.
func (s *Service) factoryFor(spec JobSpec) MachineFactory {
	if spec.Config == nil {
		return s.factory
	}
	cfg := *spec.Config
	return machines.ChaosFactory(s.chaos, cfg.Machine)
}

// SetDraining marks the service as draining (or not). A draining
// service still answers every endpoint — it is alive — but /readyz
// reports 503 so routers stop sending it new work while in-flight
// jobs finish.
func (s *Service) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether SetDraining(true) has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Pool returns the service's worker pool.
func (s *Service) Pool() *Pool { return s.pool }

// Metrics returns the service's registry.
func (s *Service) Metrics() *Metrics { return s.pool.Metrics() }

// Breakers returns the per-machine circuit breakers.
func (s *Service) Breakers() *resilience.BreakerSet { return s.breakers }

// Close shuts the pool down after draining running jobs. A durable
// service then folds its final state — including jobs the shutdown
// interrupted, persisted as still queued — into a journal snapshot,
// compacts, and closes the journal, so the next OpenDurable restores
// from the snapshot and re-enqueues the interrupted work.
func (s *Service) Close() {
	s.pool.Close()
	s.wg.Wait()
	if s.journal != nil {
		_ = s.Checkpoint()
		_ = s.journal.Close()
	}
}

// drainEstimate predicts how long a newly admitted job of the given
// priority waits before finishing: the jobs queued ahead of it drained
// in worker-wide waves, each wave costing the rolling executed-job p99
// (the pessimistic end of the dual-window latency split — a budget
// check that used the p50 would admit half its jobs into expiry).
// Batch waits behind both queues (strict priority); interactive only
// behind its own. A cold window (p99 == 0) estimates zero, so a fresh
// service never rejects on budget.
func (s *Service) drainEstimate(pr Priority) time.Duration {
	p99 := s.Metrics().ExecP99()
	if p99 <= 0 {
		return 0
	}
	depth := s.pool.QueueDepthFor(PriorityInteractive)
	if pr == PriorityBatch {
		depth += s.pool.QueueDepthFor(PriorityBatch)
	}
	workers := s.pool.Workers()
	if workers < 1 {
		workers = 1
	}
	waves := depth/workers + 1
	return time.Duration(waves) * p99
}

// brownoutInputs assembles the controller's pressure reading: the
// interactive queue's occupancy (batch backlog must not brown the
// service out — interactive work jumps ahead of it anyway), the
// executed-job p99, and the number of non-closed machine breakers.
func (s *Service) brownoutInputs() resilience.BrownoutInputs {
	open := 0
	for _, st := range s.breakers.States() {
		if st != resilience.Closed {
			open++
		}
	}
	return resilience.BrownoutInputs{
		QueueDepth:   s.pool.QueueDepthFor(PriorityInteractive),
		QueueCap:     s.pool.QueueCap(),
		ExecP99:      s.Metrics().ExecP99(),
		BreakersOpen: open,
	}
}

// ResolveTier resolves a parsed tier exactly once per request:
// explicit tiers pass through untouched; TierAuto consults the
// brownout controller and comes back as either TierSimulate (healthy)
// or TierEstimate with degraded = true (browned out). Callers must
// hold onto the returned tier for the rest of the request — never
// re-resolve — so a controller flip mid-request cannot mix tiers
// within one response.
func (s *Service) ResolveTier(t Tier) (tier Tier, degraded bool) {
	if t != TierAuto {
		return t, false
	}
	active := s.brownout.Observe(s.brownoutInputs())
	s.Metrics().setBrownoutActive(active)
	if active {
		return TierEstimate, true
	}
	return TierSimulate, false
}

// BrownoutStats exposes the ?tier=auto controller's state (health
// endpoints and tests).
func (s *Service) BrownoutStats() resilience.BrownoutStats { return s.brownout.Stats() }

// drop removes an unstarted job that was shed at admission, telling
// the journal to forget it too (the client was told 429, so replaying
// it after a crash would be duplicate work nobody asked for).
func (s *Service) drop(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	delete(s.jobs, id)
	if j.IdemKey != "" && s.idem[j.IdemKey] == id {
		delete(s.idem, j.IdemKey)
	}
	s.removeFromOrderLocked(id)
	s.journalEventLocked(eventAborted, j)
	close(j.done)
}

// removeFromOrderLocked drops one ID from the submission-order slice.
func (s *Service) removeFromOrderLocked(id string) {
	for i, jid := range s.order {
		if jid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// traceEvent appends one lifecycle event to a live job's trace.
func (s *Service) traceEvent(id, name, note string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.Trace = append(j.Trace, obs.Event{Name: name, Time: time.Now(), Note: note})
	}
}

// Job returns a snapshot of the job with the given ID.
func (s *Service) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.clone(true), true
}

// JobTrace returns a copy of the job's lifecycle trace and its current
// state.
func (s *Service) JobTrace(id string) ([]obs.Event, State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, "", false
	}
	return append([]obs.Event(nil), j.Trace...), j.State, true
}

// Jobs returns snapshots of every tracked job in submission order.
// List snapshots omit the lifecycle trace; fetch a single job (or its
// trace endpoint) for the events.
func (s *Service) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.clone(false))
		}
	}
	return out
}

// JobsPage returns up to limit jobs in submission order, starting
// just after the job with ID after (empty starts from the oldest).
// next is the cursor for the following page ("" when this page ends
// the list) and total the registry size. An unknown cursor — e.g. one
// whose job has since been evicted — is an error so clients restart
// their scan instead of silently skipping a gap.
func (s *Service) JobsPage(after string, limit int) (jobs []Job, next string, total int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	total = len(s.order)
	start := 0
	if after != "" {
		found := false
		for i, id := range s.order {
			if id == after {
				start, found = i+1, true
				break
			}
		}
		if !found {
			return nil, "", total, fmt.Errorf("svc: unknown cursor %q", after)
		}
	}
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	end := start + limit
	if end > total {
		end = total
	}
	jobs = make([]Job, 0, end-start)
	for _, id := range s.order[start:end] {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j.clone(false))
		}
	}
	if end < total && len(jobs) > 0 {
		next = jobs[len(jobs)-1].ID
	}
	return jobs, next, total, nil
}

// wasEvicted reports whether id was dropped by terminal-job eviction.
func (s *Service) wasEvicted(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted[id]
}

// Wait blocks until the job reaches a terminal state or ctx ends, and
// returns the final snapshot. A job dropped by registry eviction is
// reported as ErrJobEvicted, distinct from a never-issued ID.
func (s *Service) Wait(ctx context.Context, id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		select {
		case <-j.done:
		case <-ctx.Done():
			if cur, ok := s.Job(id); ok && !cur.State.Terminal() {
				return cur, ctx.Err()
			}
		}
	}
	if cur, ok := s.Job(id); ok {
		return cur, nil
	}
	if s.wasEvicted(id) {
		return Job{}, fmt.Errorf("svc: job %q: %w", id, ErrJobEvicted)
	}
	return Job{}, fmt.Errorf("svc: unknown job %q", id)
}

func (s *Service) markRunning(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && j.State == Queued {
		j.State = Running
		j.Started = time.Now()
		j.Trace = append(j.Trace, obs.Event{Name: obs.EventStarted, Time: j.Started})
		s.journalEventLocked(eventStarted, j)
	}
}

func (s *Service) finish(id string, res core.Result, fromCache bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.State.Terminal() {
		return
	}
	defer close(j.done)
	j.Finished = time.Now()
	j.FromCache = fromCache
	if err != nil {
		j.State = Failed
		j.Error = err.Error()
		if errors.Is(err, ErrPoolClosed) {
			// The shutdown, not the work, failed this job: journal no
			// terminal state so a restart re-enqueues it.
			j.interrupted = true
			return
		}
		j.Trace = append(j.Trace, obs.Event{Name: obs.EventFailed, Time: j.Finished, Note: j.Error})
		s.journalEventLocked(eventFailed, j)
		return
	}
	j.State = Done
	r := res
	j.Result = &r
	note := ""
	if fromCache {
		note = "cache hit"
	}
	j.Trace = append(j.Trace, obs.Event{Name: obs.EventDone, Time: j.Finished, Note: note})
	s.journalEventLocked(eventDone, j)
}

func (s *Service) snapshot(id string) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.clone(true)
	}
	return Job{}
}

// evictLocked drops the oldest terminal jobs once the registry exceeds
// MaxJobs, remembering their IDs (bounded) so Wait can tell eviction
// apart from an unknown ID. Non-terminal jobs are never evicted.
func (s *Service) evictLocked() {
	if len(s.order) <= s.maxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.maxJobs
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.State.Terminal() {
			delete(s.jobs, id)
			if j.IdemKey != "" && s.idem[j.IdemKey] == id {
				delete(s.idem, j.IdemKey)
			}
			s.evicted[id] = true
			s.evictedOrder = append(s.evictedOrder, id)
			s.journalEventLocked(eventEvicted, j)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	// Bound the eviction memory too: forget the oldest evicted IDs once
	// it outgrows the registry itself.
	for len(s.evictedOrder) > s.maxJobs {
		delete(s.evicted, s.evictedOrder[0])
		s.evictedOrder = s.evictedOrder[1:]
	}
}

// Table3 regenerates the paper's Table 3 by fanning every (machine,
// kernel) pair of the paper workload out across the pool. Rows are in
// the paper's machine order, columns in kernel order; cycle counts are
// identical to a serial core.RunStudy (and so to `sigstudy -csv`, the
// input of cmd/compare).
func (s *Service) Table3(ctx context.Context) (*TableData, error) {
	sr, err := RunStudyParallel(ctx, s.pool, s.factory, machineNames(), core.PaperWorkload())
	if err != nil {
		return nil, err
	}
	return table3Data(sr), nil
}

// TableData is a rendered table plus the raw cycle counts behind it.
type TableData struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	// Cycles maps machine -> kernel -> simulated cycles.
	Cycles map[string]map[core.KernelID]uint64 `json:"cycles"`
}

func table3Data(sr *core.StudyResults) *TableData {
	td := &TableData{
		Title:   "Table 3. Experimental results (cycles in 10^3)",
		Headers: []string{"Machine"},
		Cycles:  make(map[string]map[core.KernelID]uint64),
	}
	for _, k := range core.Kernels() {
		td.Headers = append(td.Headers, k.Title())
	}
	for _, name := range sr.MachineNames() {
		row := []string{name}
		td.Cycles[name] = make(map[core.KernelID]uint64)
		for _, k := range core.Kernels() {
			r, ok := sr.Result(name, k)
			if !ok {
				continue
			}
			row = append(row, fmt.Sprintf("%.0f", r.KCycles()))
			td.Cycles[name][k] = r.Cycles
		}
		td.Rows = append(td.Rows, row)
	}
	return td
}

// machineNames returns the five study machines in paper order.
func machineNames() []string { return machines.Names() }

// RunStudyParallel executes every (machine, kernel) pair of the
// workload through the pool — the concurrent counterpart of
// core.RunStudy. Each job runs on a fresh machine instance from
// factory, so results are bit-identical to the serial study. Cells are
// admitted at interactive priority (the default): callers like the
// HTTP table endpoints sit on the request path.
func RunStudyParallel(ctx context.Context, p *Pool, factory MachineFactory, names []string, w core.Workload) (*core.StudyResults, error) {
	return runStudy(ctx, p, factory, names, w, PriorityInteractive)
}

// RunStudyBatch is RunStudyParallel at batch priority: cells queue
// behind (and are shed before) interactive work. The offline drivers —
// cmd/sigstudy, cmd/sweep — use this so a study fan-out sharing a pool
// with a live service never starves request traffic.
func RunStudyBatch(ctx context.Context, p *Pool, factory MachineFactory, names []string, w core.Workload) (*core.StudyResults, error) {
	return runStudy(ctx, p, factory, names, w, PriorityBatch)
}

func runStudy(ctx context.Context, p *Pool, factory MachineFactory, names []string, w core.Workload, pr Priority) (*core.StudyResults, error) {
	if factory == nil {
		factory = machines.ByName
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	// Metadata instances: used only for Name/Params, never run. The
	// factory consults a chaos fault point, so builds are retried like
	// any other transient failure.
	ms := make([]core.Machine, len(names))
	for i, name := range names {
		name := name
		var m core.Machine
		if _, err := resilience.DefaultRetry().Do(ctx, func(context.Context) error {
			var ferr error
			m, ferr = factory(name)
			return ferr
		}); err != nil {
			return nil, err
		}
		ms[i] = m
	}

	// The whole grid goes through one Pool.Submit: one queue
	// reservation per wave, memo/coalescing pre-filter up front, and
	// per-worker machine reuse across cells of the same machine.
	type cell struct {
		machine string
		kernel  core.KernelID
	}
	var cells []cell
	var tasks []Task
	for _, name := range names {
		for _, k := range core.Kernels() {
			name, k := name, k
			spec := JobSpec{Machine: name, Kernel: k, Workload: &w}
			// Memoize under the spec hash, which covers per-spec config
			// overrides (these study specs carry none). The hash does not
			// cover a process-wide -config factory — per-process
			// memoization keeps that consistent, and the cluster gateway
			// refuses to route across shards whose config hashes differ.
			key := ""
			if h, err := spec.Hash(); err == nil {
				key = h
			}
			cells = append(cells, cell{machine: name, kernel: k})
			tasks = append(tasks, Task{
				Label:    fmt.Sprintf("%s/%s", name, k),
				MemoKey:  key,
				Priority: pr,
				Machine:  name,
				Factory:  factory,
				RunOn: func(_ context.Context, m core.Machine) (core.Result, error) {
					return core.Run(m, k, w)
				},
			})
		}
	}
	futs, err := p.Submit(ctx, tasks, false)
	if err != nil {
		return nil, err
	}
	results := make(map[string]map[core.KernelID]core.Result)
	for i, c := range cells {
		r, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("svc: %s on %s: %w", c.kernel, c.machine, err)
		}
		if results[c.machine] == nil {
			results[c.machine] = make(map[core.KernelID]core.Result)
		}
		results[c.machine][c.kernel] = r
	}
	return core.NewStudyResults(ms, w, results)
}
