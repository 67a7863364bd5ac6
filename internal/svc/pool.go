package svc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/faults"
	"sigkern/internal/obs"
	"sigkern/internal/resilience"
)

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("svc: pool closed")

// ErrTimeout wraps per-job deadline expiries so callers can classify
// them (errors.Is(err, ErrTimeout)).
var ErrTimeout = errors.New("svc: job timed out")

// ErrOverloaded fails a task that a shedding Submit found no queue room
// for — the load-shedding signal the HTTP layer turns into 429 +
// Retry-After.
var ErrOverloaded = errors.New("svc: overloaded, job shed")

// ErrBudgetExhausted marks work refused — or dropped at worker pickup —
// because the request's remaining deadline budget cannot cover it: the
// client's deadline would expire before the answer could exist, so
// running the job would burn a worker slot for a response nobody is
// waiting for. The HTTP layer serves it as 504 + Retry-After.
var ErrBudgetExhausted = errors.New("svc: deadline budget exhausted")

// ErrDeterminism marks the determinism guard tripping: a simulation
// result disagreed with the memoized result for the same spec hash.
// The simulators are bit-exact, so this is always corruption (an
// injected fault, a memory error, a bug) and is served as a hard error,
// never a silently wrong cycle count.
var ErrDeterminism = errors.New("svc: determinism violation")

// Fault points the pool consults (see internal/faults).
const (
	// FaultPointExecute fires at the start of every execution attempt:
	// transient errors here are absorbed by the retry policy, latency
	// models a slow backend, panics exercise panic isolation.
	FaultPointExecute = "pool.execute"
	// FaultPointMemoGet fires on memo reads: a Corrupt fault damages
	// the served copy, which the determinism guard must catch.
	FaultPointMemoGet = "memo.get"
)

// Task is one unit of work for the pool: a label for diagnostics, an
// optional memoization key, and the function to run. Run receives a
// context that is cancelled on pool shutdown or per-task timeout;
// simulator runs cannot be interrupted mid-flight, so on timeout the
// pool abandons the task (its goroutine finishes in the background and
// the result is discarded) and reports ErrTimeout.
type Task struct {
	Label string
	// MemoKey enables result memoization when non-empty: a hit skips
	// Run entirely, and a successful Run is stored under the key.
	MemoKey string
	// Cell identifies the (machine, kernel) Table 3 cell this task
	// belongs to; per-cell labeled metrics are recorded under it. The
	// zero value records into the unlabeled totals only.
	Cell obs.Labels
	// OnRetry, when set, is called before each re-execution of a task
	// whose previous attempt failed transiently, with the 1-based
	// attempt number about to run and the error that caused the retry.
	// Called from the worker goroutine; must be safe for that.
	OnRetry func(attempt int, err error)
	// Priority selects the admission queue. The zero value is
	// PriorityInteractive: interactive tasks drain first and shed last;
	// batch tasks (PriorityBatch) wait in a second queue that workers
	// only service when no interactive work is pending, and are the
	// first shed under saturation.
	Priority Priority
	// Expires, when non-zero, is the task's deadline-budget expiry: a
	// task still queued past it is failed with ErrBudgetExhausted at
	// worker pickup instead of occupying a slot, and a running task's
	// context deadline is clamped to it.
	Expires time.Time
	// Run executes the task on a machine it builds itself. Only
	// internal/study sweeps use it: their machines are built by closures
	// over per-point parameters and must not enter the per-worker
	// instance cache, which never evicts. Every service job is a RunOn
	// task.
	Run func(ctx context.Context) (core.Result, error)

	// Machine, Factory and RunOn together select the machine-reuse
	// execution path: the worker resolves an instance of Machine from
	// its per-worker cache (rewinding it via core.Resettable) or
	// constructs one with Factory on a miss, then invokes RunOn with
	// it. RunOn must be a pure function of the task's spec and the
	// instance — the reuse-sampling determinism guard may execute it a
	// second time on a fresh instance to verify the reused one.
	// Exactly one of Run and RunOn must be set.
	Machine string
	Factory MachineFactory
	// ConfigHash qualifies Machine in the per-worker instance cache:
	// tasks running non-default hardware parameters (config-carrying
	// specs) must never be handed an instance built for a different
	// configuration, so cache entries and reuse-sampling counters are
	// keyed by (Machine, ConfigHash). Empty means paper defaults.
	// Factory must construct instances matching this hash.
	ConfigHash string
	RunOn      func(ctx context.Context, m core.Machine) (core.Result, error)
	// OnStart, when set, is called once from the worker goroutine at
	// pickup, before the first attempt — not per retry, and never for
	// cells answered by the memo or coalescing pre-filter.
	OnStart func()
	// Abort, when non-nil and closed, marks the task's group
	// cancelled: a task still queued is failed with context.Canceled
	// at worker pickup instead of occupying a slot. Running and
	// completed tasks are unaffected — a batch client disconnecting
	// cancels only unstarted cells.
	Abort <-chan struct{}
}

// instanceKey is the per-worker machine-cache key: the machine name
// qualified by the config hash, so instances built under different
// hardware parameters can never be confused. The NUL separator cannot
// occur in either component.
func (t *Task) instanceKey() string { return t.Machine + "\x00" + t.ConfigHash }

// validate checks the task's execution-path invariants before admission.
func (t *Task) validate() error {
	switch {
	case t.Run == nil && t.RunOn == nil:
		return errors.New("svc: task with nil Run")
	case t.Run != nil && t.RunOn != nil:
		return errors.New("svc: task with both Run and RunOn")
	case t.RunOn != nil && (t.Machine == "" || t.Factory == nil):
		return errors.New("svc: RunOn task needs Machine and Factory")
	}
	return nil
}

// Future is the pending result of a submitted task.
type Future struct {
	done chan struct{}
	res  core.Result
	err  error
	// fromCache is true when the result came from the memo table.
	fromCache bool
	// elapsed is the wall-clock execution time (0 for cache hits and
	// never-run tasks).
	elapsed time.Duration
	// started is closed when a worker picks the task up.
	started chan struct{}
}

// Wait blocks until the task finishes or ctx is cancelled.
func (f *Future) Wait(ctx context.Context) (core.Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
}

// ready reports whether the task has completed.
func (f *Future) ready() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// shed reports whether a shedding Submit refused the task for lack of
// queue room — known as soon as Submit returns.
func (f *Future) shed() bool { return f.ready() && errors.Is(f.err, ErrOverloaded) }

// FromCache reports whether the result was served from the memo table.
// Valid only after Wait returns.
func (f *Future) FromCache() bool { return f.fromCache }

// Elapsed returns the wall-clock time the task spent executing (zero
// for cache hits and tasks that never ran). Valid only after Wait
// returns.
func (f *Future) Elapsed() time.Duration { return f.elapsed }

// PoolOptions configures a Pool. The zero value is usable: GOMAXPROCS
// workers, a 2-minute per-job timeout, a 1024-entry memo table, and the
// default retry policy over transient-classified errors.
type PoolOptions struct {
	// Workers is the number of concurrent job slots.
	Workers int
	// JobTimeout bounds one job's execution including retries; <= 0
	// means 2 minutes.
	JobTimeout time.Duration
	// QueueDepth is the number of tasks that can wait for a worker in
	// each priority queue before Submit holds the rest back
	// (backpressure) or, shedding, refuses them; <= 0 means 256.
	QueueDepth int
	// MemoCapacity is the memo table size; < 0 disables memoization.
	MemoCapacity int
	// Metrics receives lifecycle events; nil allocates a private one.
	Metrics *Metrics
	// Retry governs re-execution of attempts that fail with an error
	// classified transient (resilience.IsTransient). The zero value is
	// resilience.DefaultRetry; set MaxAttempts to 1 to disable.
	Retry resilience.RetryPolicy
	// Faults is the fault-injection registry the pool consults; nil
	// means faults.Default() (armed from SIGKERN_FAULTS, usually off).
	Faults *faults.Registry
	// ReuseSampleEvery controls the reuse-sampling determinism guard:
	// every Nth successful execution on a reused machine instance (per
	// worker, per machine, starting with the first) is re-executed on
	// a fresh instance and must reproduce the same cycle count bit for
	// bit; a mismatch is a hard ErrDeterminism and disables instance
	// reuse pool-wide. 0 means the default of 16; negative disables
	// sampling.
	ReuseSampleEvery int
}

// defaultReuseSampleEvery is the reuse-verification sampling interval
// when PoolOptions.ReuseSampleEvery is zero. The first reuse of every
// (worker, machine) instance is always sampled, so a Reset that leaks
// state on every run is caught before a second reused result can ever
// be published.
const defaultReuseSampleEvery = 16

// Pool is a bounded worker pool running simulation tasks with per-job
// timeouts, panic isolation, transient-error retry, and optional result
// memoization guarded for determinism. It is safe for concurrent use.
type Pool struct {
	opts PoolOptions
	// tasks is the interactive admission queue; batch is the second
	// level, serviced only when tasks is empty and shed first under
	// saturation. Each has QueueDepth capacity of its own so a batch
	// backlog can never crowd interactive work out of the queue.
	tasks   chan poolItem
	batch   chan poolItem
	memo    *cache.Memo[core.Result]
	metrics *Metrics
	faults  *faults.Registry

	// inflight coalesces concurrent submissions of the same MemoKey
	// (singleflight): the first registers its future as the leader, and
	// every identical submission until the leader completes attaches to
	// that future instead of queueing a duplicate execution.
	inflightMu sync.Mutex
	inflight   map[string]*Future

	// submitMu serializes sends on tasks against Close: Submit sends
	// while holding the read lock, so once Close holds the write lock no
	// new task can slip into the queue behind the drain.
	submitMu sync.RWMutex
	closed   bool
	// reuseOff quarantines the machine-instance caches: set the moment
	// the reuse-sampling guard observes a cycle mismatch, after which
	// every task gets a fresh factory instance again. One trip costs
	// reuse, never correctness.
	reuseOff atomic.Bool
	wg       sync.WaitGroup
	// cancel stops all workers' contexts on Close.
	cancel context.CancelFunc
	ctx    context.Context
}

type poolItem struct {
	task Task
	fut  *Future
}

// NewPool starts a pool with opts.Workers workers.
func NewPool(opts PoolOptions) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = 2 * time.Minute
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics()
	}
	if opts.Faults == nil {
		opts.Faults = faults.Default()
	}
	p := &Pool{
		opts:     opts,
		tasks:    make(chan poolItem, opts.QueueDepth),
		batch:    make(chan poolItem, opts.QueueDepth),
		metrics:  opts.Metrics,
		faults:   opts.Faults,
		inflight: make(map[string]*Future),
	}
	if opts.MemoCapacity >= 0 {
		capacity := opts.MemoCapacity
		if capacity == 0 {
			capacity = 1024
		}
		p.memo = cache.NewMemo[core.Result](capacity)
		if reg := p.faults; reg != nil {
			p.memo.SetCorruptor(func(key string, r core.Result) (core.Result, bool) {
				if inj := reg.Fire(FaultPointMemoGet); inj != nil && inj.Corrupted {
					r.Cycles ^= 0xDEAD
					r.Verified = false
					return r, true
				}
				return r, false
			})
		}
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	for i := 0; i < opts.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the pool's concurrency.
func (p *Pool) Workers() int { return p.opts.Workers }

// Metrics returns the pool's registry.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// QueueDepth returns the number of tasks waiting for a worker across
// both priority queues.
func (p *Pool) QueueDepth() int { return len(p.tasks) + len(p.batch) }

// QueueDepthFor returns the number of tasks waiting in one priority
// class's queue.
func (p *Pool) QueueDepthFor(pr Priority) int {
	if pr == PriorityBatch {
		return len(p.batch)
	}
	return len(p.tasks)
}

// QueueCap returns the interactive queue's capacity — the shed
// threshold for interactive admissions (the batch queue has the same
// capacity of its own).
func (p *Pool) QueueCap() int { return cap(p.tasks) }

// JobTimeout returns the per-job execution deadline.
func (p *Pool) JobTimeout() time.Duration { return p.opts.JobTimeout }

// MemoHas reports whether key has a memoized result — the budget
// fast-reject probe: a memo hit is served in microseconds, so a
// near-spent budget still covers it.
func (p *Pool) MemoHas(key string) bool {
	if p.memo == nil || key == "" {
		return false
	}
	_, ok := p.memo.Peek(key)
	return ok
}

// Faults returns the fault-injection registry the pool consults (nil
// when chaos is off).
func (p *Pool) Faults() *faults.Registry { return p.faults }

// SeedMemo pre-populates the memo table with a known-good result —
// the journal-replay path restoring terminal cycle counts after a
// restart. It reports false (and stores nothing) when an entry with a
// different cycle count is already present: the simulators are
// deterministic, so a conflicting seed is corruption and the caller
// must count it rather than overwrite the truth.
func (p *Pool) SeedMemo(key string, r core.Result) bool {
	if p.memo == nil || key == "" {
		return true
	}
	if prev, ok := p.memo.Peek(key); ok && prev.Cycles != r.Cycles {
		return false
	}
	p.memo.Put(key, r)
	return true
}

// MemoEntries returns a copy of the memo table (nil when memoization
// is disabled) — the state the durability layer folds into journal
// snapshots.
func (p *Pool) MemoEntries() map[string]core.Result {
	if p.memo == nil {
		return nil
	}
	return p.memo.Entries()
}

// MemoHitRate returns the memo table's hit rate (0 when disabled).
func (p *Pool) MemoHitRate() float64 {
	if p.memo == nil {
		return 0
	}
	return p.memo.HitRate()
}

// Submit admits a group of tasks — the pool's one entry point, for a
// single task as for a grid. The memo/coalescing pre-filter answers
// cached and duplicate tasks synchronously, so they never occupy a
// queue slot or a worker; the cold remainder goes to the admission
// queues in waves, one lock acquisition and free-slot scan per wave
// rather than one send per task. The returned futures are
// index-aligned with tasks, and all of them eventually complete.
//
// shed decides what a full queue means. Without it the tasks that found
// no room wait for it in a background feeder — Submit itself never
// blocks — and those still unsent when ctx ends fail with ctx.Err().
// With it they fail at once with ErrOverloaded, and so does a
// batch-priority task once the interactive queue is three quarters
// full: saturation sheds batch work first. Queued tasks whose
// Task.Abort closes are dropped at worker pickup.
func (p *Pool) Submit(ctx context.Context, tasks []Task, shed bool) ([]*Future, error) {
	for i := range tasks {
		if err := tasks[i].validate(); err != nil {
			return nil, fmt.Errorf("svc: task %d: %w", i, err)
		}
	}
	futs := make([]*Future, len(tasks))
	var pend []poolItem
	p.submitMu.RLock()
	if p.closed {
		p.submitMu.RUnlock()
		return nil, ErrPoolClosed
	}
	for i := range tasks {
		fut, enqueue := p.prepare(tasks[i])
		futs[i] = fut
		if enqueue {
			pend = append(pend, poolItem{task: tasks[i], fut: fut})
		}
	}
	pend = p.fill(pend, shed)
	p.submitMu.RUnlock()
	if len(pend) > 0 {
		go p.feed(ctx, pend)
	}
	return futs, nil
}

// prepare answers the pre-queue half of one admission. A verified memo
// hit or a coalesced attachment to in-flight work completes (or
// returns) the future immediately without occupying a queue slot or a
// worker — enqueue is false. Otherwise the returned future is
// registered as the MemoKey's in-flight leader and the caller must
// queue it or fail it. Called with submitMu read-held.
func (p *Pool) prepare(t Task) (fut *Future, enqueue bool) {
	fut = &Future{done: make(chan struct{}), started: make(chan struct{})}

	// Serve memo hits synchronously: no worker slot, no queueing delay.
	// The served copy is verified against the stored entry (Peek
	// bypasses the corruption hook), so a damaged cache read becomes a
	// hard ErrDeterminism, never a silently wrong cycle count.
	if p.memo != nil && t.MemoKey != "" {
		if r, ok := p.memo.Get(t.MemoKey); ok {
			p.metrics.jobQueued()
			if raw, ok := p.memo.Peek(t.MemoKey); !ok || raw.Cycles != r.Cycles || raw.Verified != r.Verified {
				p.metrics.determinismViolation(t.Cell)
				p.metrics.jobFinished(t.Cell, false, false, false, false, 0)
				fut.err = fmt.Errorf("svc: job %q: memoized result failed verification: %w", t.Label, ErrDeterminism)
				close(fut.started)
				close(fut.done)
				return fut, false
			}
			p.metrics.cacheHit(t.Cell, r.Cycles)
			p.metrics.jobFinished(t.Cell, false, true, false, false, 0)
			fut.res, fut.fromCache = r, true
			close(fut.started)
			close(fut.done)
			return fut, false
		}
		p.metrics.cacheMiss(t.Cell)
	}

	// Coalesce duplicate in-flight work: if an execution for the same
	// MemoKey is already queued or running, attach to its future rather
	// than running the simulator again. The shared execution's lifetime
	// is the pool's (its context derives from p.ctx, never a waiter's),
	// so one waiter cancelling its Wait cannot poison the rest.
	if t.MemoKey != "" {
		p.inflightMu.Lock()
		if leader, ok := p.inflight[t.MemoKey]; ok {
			p.inflightMu.Unlock()
			p.metrics.jobCoalesced(t.Cell)
			return leader, false
		}
		p.inflight[t.MemoKey] = fut
		p.inflightMu.Unlock()
	}
	return fut, true
}

// queueFor returns the admission queue of the task's priority class.
func (p *Pool) queueFor(t Task) chan poolItem {
	if t.Priority == PriorityBatch {
		return p.batch
	}
	return p.tasks
}

// fill sends cold tasks to their queues without blocking and returns,
// in order, the ones that found no room — or, shedding, refuses them
// (and batch tasks past the interactive three-quarter mark) with
// ErrOverloaded and returns none. Called with submitMu read-held.
func (p *Pool) fill(pend []poolItem, shed bool) []poolItem {
	var rest []poolItem
	for _, item := range pend {
		if shed && item.task.Priority == PriorityBatch && len(p.tasks)*4 >= cap(p.tasks)*3 {
			p.shedTask(item)
			continue
		}
		if len(rest) == 0 {
			select {
			case p.queueFor(item.task) <- item:
				p.metrics.jobQueued()
				continue
			default:
			}
		}
		if shed {
			p.shedTask(item)
		} else {
			rest = append(rest, item)
		}
	}
	return rest
}

// feed waits for queue room on behalf of a Submit whose cold tasks did
// not all fit: one blocking send — the backpressure point; workers keep
// draining because Close cannot cancel them until the send's read lock
// is released — then a non-blocking wave behind it. Pool close and ctx
// cancellation both stop the feeder, failing the tasks that never
// reached a queue.
func (p *Pool) feed(ctx context.Context, pend []poolItem) {
	for len(pend) > 0 {
		cause := ctx.Err()
		p.submitMu.RLock()
		if cause == nil && p.closed {
			cause = ErrPoolClosed
		}
		if cause == nil {
			select {
			case p.queueFor(pend[0].task) <- pend[0]:
				p.metrics.jobQueued()
				pend = p.fill(pend[1:], false)
			case <-ctx.Done():
				cause = ctx.Err()
			}
		}
		p.submitMu.RUnlock()
		if cause != nil {
			for _, item := range pend {
				p.fail(item, cause)
			}
			return
		}
	}
}

// fail completes a task that never ran with cause.
func (p *Pool) fail(item poolItem, cause error) {
	p.metrics.jobFinished(item.task.Cell, false, false, false, false, 0)
	p.failUnrun(item, cause)
}

// shedTask refuses one shedding admission with ErrOverloaded. The
// registered flight will never execute, so its future is failed too — a
// duplicate submission may have attached to it in the window since
// registration, and it must see the shed rather than wait forever.
func (p *Pool) shedTask(item poolItem) {
	p.metrics.loadShed(item.task.Priority)
	p.failUnrun(item, ErrOverloaded)
}

// failUnrun unregisters a never-run task's flight and fails its future.
func (p *Pool) failUnrun(item poolItem, cause error) {
	p.removeFlight(item.task.MemoKey, item.fut)
	item.fut.err = fmt.Errorf("svc: job %q: %w", item.task.Label, cause)
	close(item.fut.started)
	close(item.fut.done)
}

// removeFlight unregisters fut as the in-flight execution for key, if
// it still is; callers do this before completing the future so later
// submissions start fresh instead of attaching to finished work.
func (p *Pool) removeFlight(key string, fut *Future) {
	if key == "" {
		return
	}
	p.inflightMu.Lock()
	if p.inflight[key] == fut {
		delete(p.inflight, key)
	}
	p.inflightMu.Unlock()
}

// Close stops accepting tasks, waits for running workers to finish
// their current job, and fails the futures of tasks still queued.
func (p *Pool) Close() {
	p.submitMu.Lock()
	if p.closed {
		p.submitMu.Unlock()
		return
	}
	p.closed = true
	p.submitMu.Unlock()
	p.cancel()
	p.wg.Wait()
	for _, queue := range []chan poolItem{p.tasks, p.batch} {
	drain:
		for {
			select {
			case item := <-queue:
				p.fail(item, ErrPoolClosed)
			default:
				break drain
			}
		}
	}
}

// workerState is one worker's private execution state: the machine
// instance cache (simulator instances keyed by machine name plus config
// hash — see Task.instanceKey — reused
// across jobs so a 1,000-cell grid pays construction once per worker
// and machine instead of once per cell) and the per-machine counters
// that drive reuse-determinism sampling. Owned by the worker goroutine
// and never shared, so reuse needs no locking — with one hazard: an
// abandoned attempt (timeout) keeps running on its instance in the
// background, so that entry is evicted rather than handed to the next
// task.
type workerState struct {
	machines map[string]core.Machine
	reuses   map[string]uint64
}

func newWorkerState() *workerState {
	return &workerState{
		machines: make(map[string]core.Machine),
		reuses:   make(map[string]uint64),
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	ws := newWorkerState()
	for {
		// Strict priority: drain every pending interactive task before
		// even looking at the batch queue.
		select {
		case item := <-p.tasks:
			p.execute(item, ws)
			continue
		case <-p.ctx.Done():
			return
		default:
		}
		select {
		case item := <-p.tasks:
			p.execute(item, ws)
		case item := <-p.batch:
			p.execute(item, ws)
		case <-p.ctx.Done():
			return
		}
	}
}

// panicError reports a recovered task panic; it is never transient.
type panicError struct {
	label string
	value any
}

func (e *panicError) Error() string {
	return fmt.Sprintf("svc: job %q panicked: %v", e.label, e.value)
}

// execute runs one task with timeout, panic isolation, transient-error
// retry, and the determinism guard over the memo table.
func (p *Pool) execute(item poolItem, ws *workerState) {
	start := time.Now()
	// A task whose deadline budget ran out while it waited is dropped
	// at pickup: the client's deadline has already passed, so running
	// the simulator would burn a worker slot on an answer nobody is
	// waiting for — exactly what the budget exists to prevent.
	if !item.task.Expires.IsZero() && start.After(item.task.Expires) {
		p.metrics.expiredDropped()
		p.fail(item, fmt.Errorf("expired in queue: %w", ErrBudgetExhausted))
		return
	}
	// A cell of a cancelled batch is dropped at pickup the same way:
	// the group's client is gone, so only cells that already started
	// run to completion.
	if item.task.Abort != nil {
		select {
		case <-item.task.Abort:
			p.fail(item, fmt.Errorf("batch cancelled in queue: %w", context.Canceled))
			return
		default:
		}
	}
	close(item.fut.started)
	p.metrics.jobStarted()
	if item.task.OnStart != nil {
		item.task.OnStart()
	}

	timeout := p.opts.JobTimeout
	if !item.task.Expires.IsZero() {
		// Clamp the running deadline to the remaining budget: when it
		// expires mid-run the uninterruptible simulator is abandoned
		// (ErrTimeout) and the slot freed, same as a per-job timeout.
		if until := time.Until(item.task.Expires); until < timeout {
			timeout = until
		}
	}
	ctx, cancel := context.WithTimeout(p.ctx, timeout)
	defer cancel()

	var res core.Result
	var attempt int
	var lastErr error
	var reused bool
	attempts, err := p.opts.Retry.Do(ctx, func(ctx context.Context) error {
		attempt++
		if attempt > 1 && item.task.OnRetry != nil {
			item.task.OnRetry(attempt, lastErr)
		}
		r, onReused, aerr := p.runAttempt(ctx, item.task, ws)
		if aerr == nil {
			res = r
			reused = onReused
		}
		lastErr = aerr
		return aerr
	})
	if attempts > 1 {
		p.metrics.jobRetried(item.task.Cell, uint64(attempts-1))
	}
	// The per-job context's only cancellation path (as opposed to
	// deadline) is pool shutdown, so report abandoned in-flight work as
	// ErrPoolClosed — same as tasks still queued at Close.
	if errors.Is(err, context.Canceled) {
		err = fmt.Errorf("svc: job %q: %w", item.task.Label, ErrPoolClosed)
	}

	var pe *panicError
	panicked := errors.As(err, &pe)
	timedOut := errors.Is(err, ErrTimeout)

	// Reuse-sampling determinism guard: a sampled cell served by a
	// reused instance is re-executed on a fresh factory instance and the
	// two cycle counts compared bit for bit. The paper machines rewind
	// completely (every kernel entry resets), so a mismatch means a
	// Reset that leaked state — surfaced as a hard ErrDeterminism, with
	// reuse quarantined pool-wide, never a silently wrong number.
	if err == nil && reused && p.sampleReuse(ws, item.task.instanceKey()) {
		if verr := p.verifyReuse(ctx, item.task, res); verr != nil {
			err = verr
			p.reuseOff.Store(true)
			p.evictMachine(ws, item.task.instanceKey())
		}
	}

	if err == nil && p.memo != nil && item.task.MemoKey != "" {
		// Determinism guard: a re-executed (possibly retried) job must
		// reproduce the memoized cycle count for its spec hash bit for
		// bit. The simulators are deterministic, so a mismatch is
		// corruption and is surfaced as a hard error.
		if prev, ok := p.memo.Peek(item.task.MemoKey); ok && prev.Cycles != res.Cycles {
			p.metrics.determinismViolation(item.task.Cell)
			err = fmt.Errorf("svc: job %q: ran to %d cycles but %d are memoized for the same spec: %w",
				item.task.Label, res.Cycles, prev.Cycles, ErrDeterminism)
		} else {
			p.memo.Put(item.task.MemoKey, res)
		}
	}
	if err == nil {
		p.metrics.cyclesRun(res.Cycles)
	}
	elapsed := time.Since(start)
	p.metrics.jobFinished(item.task.Cell, true, err == nil, timedOut, panicked, elapsed)
	if err != nil {
		res = core.Result{}
	}
	// Unregister the flight before publishing the result: once the memo
	// holds the result (above), later submissions are cache hits; in the
	// narrow window between, a fresh execution is correct, a stale
	// attachment is not.
	p.removeFlight(item.task.MemoKey, item.fut)
	item.fut.res, item.fut.err, item.fut.elapsed = res, err, elapsed
	close(item.fut.done)
}

// runAttempt executes one try of the task with panic isolation,
// consulting the execute fault point. The simulator cannot be
// interrupted mid-flight: when ctx ends first the attempt is abandoned
// (its goroutine finishes in the background, the buffered channel lets
// it exit) and the deadline is reported as ErrTimeout. reused reports
// whether a RunOn attempt executed on a cached machine instance.
//
// A cached instance is rewound here, on the worker that owns the cache;
// a miss is built inside the attempt, after the fault point, so a slow
// or hung factory is bounded by the attempt's deadline like the run
// itself, and an injected fault costs no build.
func (p *Pool) runAttempt(ctx context.Context, t Task, ws *workerState) (core.Result, bool, error) {
	var cached core.Machine
	if t.RunOn != nil {
		cached = p.cachedMachine(t, ws)
	}
	type outcome struct {
		res core.Result
		m   core.Machine
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: &panicError{label: t.Label, value: r}}
			}
		}()
		if inj := p.faults.Fire(FaultPointExecute); inj != nil {
			inj.Sleep(ctx.Done())
			if inj.Panicked {
				panic("faults: injected panic at " + FaultPointExecute)
			}
			if inj.Err != nil {
				ch <- outcome{err: fmt.Errorf("svc: job %q: %w", t.Label, inj.Err)}
				return
			}
		}
		if t.RunOn == nil {
			res, err := t.Run(ctx)
			ch <- outcome{res: res, err: err}
			return
		}
		m := cached
		if m == nil {
			var err error
			if m, err = t.Factory(t.Machine); err != nil {
				ch <- outcome{err: fmt.Errorf("svc: job %q: %w", t.Label, err)}
				return
			}
			p.metrics.machineBuilt()
		}
		res, err := t.RunOn(ctx, m)
		ch <- outcome{res: res, m: m, err: err}
	}()

	select {
	case out := <-ch:
		if t.RunOn != nil {
			if out.err == nil {
				p.cacheMachine(ws, t.instanceKey(), out.m)
			} else {
				// A failed or panicked attempt leaves the instance in an
				// unknown state; drop it rather than hand it to the next
				// task.
				p.evictMachine(ws, t.instanceKey())
			}
		}
		return out.res, cached != nil, out.err
	case <-ctx.Done():
		if t.RunOn != nil {
			// The abandoned attempt keeps running on its instance in the
			// background; the instance must never be reused while
			// another goroutine may still be mutating it.
			p.evictMachine(ws, t.instanceKey())
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return core.Result{}, cached != nil, fmt.Errorf("svc: job %q: %w", t.Label, ErrTimeout)
		}
		return core.Result{}, cached != nil, fmt.Errorf("svc: job %q: %w", t.Label, ctx.Err())
	}
}

// cachedMachine returns the worker's cached instance for the task,
// rewound via core.Resettable, or nil when the attempt must build a
// fresh one: nothing cached yet, the reuse quarantine has tripped, or
// the instance cannot be rewound — such machines are rebuilt per job
// exactly as before the cache existed.
func (p *Pool) cachedMachine(t Task, ws *workerState) core.Machine {
	key := t.instanceKey()
	cached, ok := ws.machines[key]
	if !ok || p.reuseOff.Load() {
		return nil
	}
	if r, isReset := cached.(core.Resettable); isReset {
		r.Reset()
		p.metrics.machineReused()
		return cached
	}
	delete(ws.machines, key)
	return nil
}

// cacheMachine stores a cleanly used instance for the next job on this
// worker under its (machine, config-hash) key; non-Resettable machines
// and quarantined pools skip the cache.
func (p *Pool) cacheMachine(ws *workerState, key string, m core.Machine) {
	if p.reuseOff.Load() {
		return
	}
	if _, ok := m.(core.Resettable); ok {
		ws.machines[key] = m
	}
}

// evictMachine drops a worker's cached instance whose state is no
// longer trustworthy (abandoned attempt, failed run, determinism trip).
func (p *Pool) evictMachine(ws *workerState, key string) {
	if _, ok := ws.machines[key]; ok {
		delete(ws.machines, key)
		p.metrics.machineEvicted()
	}
}

// sampleReuse deterministically picks reused-instance executions for
// fresh-instance verification: per worker and (machine, config-hash)
// instance, the first reuse and every ReuseSampleEvery-th after it — so
// a config-varying batch samples each configuration's instances
// independently.
func (p *Pool) sampleReuse(ws *workerState, key string) bool {
	every := p.opts.ReuseSampleEvery
	if every < 0 {
		return false
	}
	if every == 0 {
		every = defaultReuseSampleEvery
	}
	n := ws.reuses[key]
	ws.reuses[key] = n + 1
	return n%uint64(every) == 0
}

// verifyReuse re-executes the task on a fresh factory instance and
// compares simulated cycles with the reused-instance result. Only a
// cycle mismatch fails the job; a factory error or a failed fresh run
// is inconclusive and changes nothing — the retry policy and the memo
// guard still protect the primary result. RunOn is documented pure, so
// re-invoking it performs no duplicate side effects.
func (p *Pool) verifyReuse(ctx context.Context, t Task, got core.Result) error {
	p.metrics.reuseChecked()
	fresh, err := t.Factory(t.Machine)
	if err != nil {
		return nil
	}
	var vres core.Result
	verr := func() (rerr error) {
		defer func() {
			if r := recover(); r != nil {
				rerr = &panicError{label: t.Label, value: r}
			}
		}()
		var e error
		vres, e = t.RunOn(ctx, fresh)
		return e
	}()
	if verr != nil {
		return nil
	}
	if vres.Cycles != got.Cycles {
		p.metrics.determinismViolation(t.Cell)
		return fmt.Errorf("svc: job %q: reused instance ran to %d cycles but a fresh instance runs to %d: %w",
			t.Label, got.Cycles, vres.Cycles, ErrDeterminism)
	}
	return nil
}
