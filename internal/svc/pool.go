package svc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
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
// optional memoization key, and the function to run on a machine
// instance. RunOn receives a context that is cancelled on pool shutdown
// or per-task timeout; simulator runs cannot be interrupted mid-flight,
// so on timeout the pool abandons the task (its goroutine finishes in
// the background and the result is discarded) and reports ErrTimeout.
type Task struct {
	Label string
	// MemoKey enables result memoization when non-empty: a hit skips
	// RunOn entirely, and a successful RunOn is stored under the key.
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

	// Machine, Factory and RunOn are the one execution path: every
	// attempt builds an instance of Machine with Factory and invokes
	// RunOn with it, and the instance goes when the attempt ends. RunOn
	// must be a pure function of the task's spec and the instance — a
	// retry executes it again on a new instance.
	Machine string
	Factory MachineFactory
	RunOn   func(ctx context.Context, m core.Machine) (core.Result, error)
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
	// Shares, when set, returns a key naming work this task has in
	// common with others (the memory walk of a spec's PPC and AltiVec
	// rows); it is called at pickup, so a memo hit never pays for it. A
	// task picked up while a running task holds its key is set aside,
	// and the worker takes the next task; when the holder ends, the tasks
	// set aside behind it run ahead of their class's queue, in pickup
	// order, and no longer exclude each other.
	Shares func() string
}

// validate checks the task's execution-path invariants before admission.
func (t *Task) validate() error {
	if t.RunOn == nil || t.Machine == "" || t.Factory == nil {
		return errors.New("svc: task needs RunOn, Machine and Factory")
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
	// atSubmit marks a future Submit completed itself; see answered.
	atSubmit bool
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

// answered reports whether Submit completed the task itself (a memo
// hit, a failed memo read or a shed), so no worker ever held it — known
// as soon as Submit returns. A coalesced duplicate may share a future
// that another Submit is still completing, so ready is read first.
func (f *Future) answered() bool { return f.ready() && f.atSubmit }

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
	// Retry governs re-execution of attempts that fail with an error
	// classified transient (resilience.IsTransient). The zero value is
	// resilience.DefaultRetry; set MaxAttempts to 1 to disable.
	Retry resilience.RetryPolicy
	// Faults is the fault-injection registry the pool consults; nil
	// means faults.Default() (armed from SIGKERN_FAULTS, usually off).
	Faults *faults.Registry
}

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
	wg       sync.WaitGroup
	// cancel stops all workers' contexts on Close.
	cancel context.CancelFunc
	ctx    context.Context

	// holdMu guards the Task.Shares state: the tasks set aside behind
	// each held key, the released ones in pickup order, and their count.
	holdMu   sync.Mutex
	holding  map[string][]poolItem
	released []poolItem
	held     int
}

type poolItem struct {
	task Task
	fut  *Future
	// released marks a task set aside by Shares and since released: it
	// runs without its key.
	released bool
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
	if opts.Faults == nil {
		opts.Faults = faults.Default()
	}
	p := &Pool{
		opts:     opts,
		tasks:    make(chan poolItem, opts.QueueDepth),
		batch:    make(chan poolItem, opts.QueueDepth),
		metrics:  NewMetrics(),
		faults:   opts.Faults,
		inflight: make(map[string]*Future),
		holding:  make(map[string][]poolItem),
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

// Metrics returns the pool's metrics.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// QueueDepth returns the number of tasks waiting for a worker across
// both priority queues, held ones (Task.Shares) included.
func (p *Pool) QueueDepth() int {
	p.holdMu.Lock()
	defer p.holdMu.Unlock()
	return len(p.tasks) + len(p.batch) + p.held
}

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
			p.metrics.queued.Inc()
			if raw, ok := p.memo.Peek(t.MemoKey); !ok || raw.Cycles != r.Cycles || raw.Verified != r.Verified {
				p.metrics.determinism.With(t.Cell).Inc()
				p.metrics.jobFinished(t.Cell, false, false, false, false, 0)
				fut.err = fmt.Errorf("svc: job %q: memoized result failed verification: %w", t.Label, ErrDeterminism)
				fut.atSubmit = true
				close(fut.started)
				close(fut.done)
				return fut, false
			}
			p.metrics.cacheHits.With(t.Cell).Inc()
			p.metrics.cyclesServed.Add(r.Cycles)
			p.metrics.jobFinished(t.Cell, false, true, false, false, 0)
			fut.res, fut.fromCache, fut.atSubmit = r, true, true
			close(fut.started)
			close(fut.done)
			return fut, false
		}
		p.metrics.cacheMisses.With(t.Cell).Inc()
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
			p.metrics.coalesced.With(t.Cell).Inc()
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
				p.metrics.queued.Inc()
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
				p.metrics.queued.Inc()
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
	item.fut.atSubmit = true
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
// their current job, and fails the futures of tasks still queued or
// held.
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
	p.holdMu.Lock()
	held := p.released
	for _, behind := range p.holding {
		held = append(held, behind...)
	}
	p.holding, p.released, p.held = map[string][]poolItem{}, nil, 0
	p.holdMu.Unlock()
	for _, item := range held {
		p.fail(item, ErrPoolClosed)
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for p.ctx.Err() == nil {
		// Strict priority: drain every pending interactive task, released
		// ones first, before even looking at batch work.
		if item, ok := p.unhold(PriorityInteractive); ok {
			p.execute(item)
			continue
		}
		select {
		case item := <-p.tasks:
			p.execute(item)
			continue
		default:
		}
		if item, ok := p.unhold(PriorityBatch); ok {
			p.execute(item)
			continue
		}
		select {
		case item := <-p.tasks:
			p.execute(item)
		case item := <-p.batch:
			p.execute(item)
		case <-p.ctx.Done():
		}
	}
}

// hold sets item aside behind the running task that holds key and
// reports true, or makes item key's holder and reports false.
func (p *Pool) hold(key string, item poolItem) bool {
	p.holdMu.Lock()
	defer p.holdMu.Unlock()
	behind, running := p.holding[key]
	if running {
		behind = append(behind, item)
		p.held++
		p.metrics.tasksHeld.Inc()
	}
	p.holding[key] = behind
	return running
}

// release ends key's hold: the tasks set aside behind it join the
// released list, which the releasing worker reads next.
func (p *Pool) release(key string) {
	p.holdMu.Lock()
	defer p.holdMu.Unlock()
	for _, item := range p.holding[key] {
		item.released = true
		p.released = append(p.released, item)
	}
	delete(p.holding, key)
}

// unhold takes the first released task of priority class pr, if any.
func (p *Pool) unhold(pr Priority) (poolItem, bool) {
	p.holdMu.Lock()
	defer p.holdMu.Unlock()
	for i, item := range p.released {
		if (item.task.Priority == PriorityBatch) == (pr == PriorityBatch) {
			p.released = append(p.released[:i], p.released[i+1:]...)
			p.held--
			return item, true
		}
	}
	return poolItem{}, false
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
func (p *Pool) execute(item poolItem) {
	start := time.Now()
	// A task whose deadline budget ran out while it waited is dropped
	// at pickup: the client's deadline has already passed, so running
	// the simulator would burn a worker slot on an answer nobody is
	// waiting for — exactly what the budget exists to prevent.
	if !item.task.Expires.IsZero() && start.After(item.task.Expires) {
		p.metrics.expiredDrops.Inc()
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
	// A task whose Shares key a running task holds waits off-worker
	// until that task ends; otherwise it holds the key while it runs.
	if item.task.Shares != nil && !item.released {
		key := item.task.Shares()
		if p.hold(key, item) {
			return
		}
		defer p.release(key)
	}
	close(item.fut.started)
	p.metrics.running.Add(1)
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
	attempts, err := p.opts.Retry.Do(ctx, func(ctx context.Context) error {
		attempt++
		if attempt > 1 && item.task.OnRetry != nil {
			item.task.OnRetry(attempt, lastErr)
		}
		r, aerr := p.runAttempt(ctx, item.task)
		if aerr == nil {
			res = r
		}
		lastErr = aerr
		return aerr
	})
	if attempts > 1 {
		p.metrics.retries.With(item.task.Cell).Add(uint64(attempts - 1))
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

	if err == nil && p.memo != nil && item.task.MemoKey != "" {
		// Determinism guard: a re-executed (possibly retried) job must
		// reproduce the memoized cycle count for its spec hash bit for
		// bit. The simulators are deterministic, so a mismatch is
		// corruption and is surfaced as a hard error.
		if prev, ok := p.memo.Peek(item.task.MemoKey); ok && prev.Cycles != res.Cycles {
			p.metrics.determinism.With(item.task.Cell).Inc()
			err = fmt.Errorf("svc: job %q: ran to %d cycles but %d are memoized for the same spec: %w",
				item.task.Label, res.Cycles, prev.Cycles, ErrDeterminism)
		} else {
			p.memo.Put(item.task.MemoKey, res)
		}
	}
	if err == nil {
		p.metrics.cyclesServed.Add(res.Cycles)
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

// runAttempt executes one try of the task with panic isolation: the
// execute fault point, then a new instance from the task's Factory, then
// RunOn on it. The build happens inside the attempt, so a slow or hung
// factory is bounded by the attempt's deadline like the run itself, and
// an injected fault costs no build. The simulator cannot be interrupted
// mid-flight: when ctx ends first the attempt is abandoned (its
// goroutine finishes in the background on its own instance, and the
// buffered channel lets it exit) and the deadline is reported as
// ErrTimeout.
func (p *Pool) runAttempt(ctx context.Context, t Task) (core.Result, error) {
	type outcome struct {
		res core.Result
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
		m, err := t.Factory(t.Machine)
		if err != nil {
			ch <- outcome{err: fmt.Errorf("svc: job %q: %w", t.Label, err)}
			return
		}
		p.metrics.machineBuilds.Inc()
		res, err := t.RunOn(ctx, m)
		ch <- outcome{res: res, err: err}
	}()

	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return core.Result{}, fmt.Errorf("svc: job %q: %w", t.Label, ErrTimeout)
		}
		return core.Result{}, fmt.Errorf("svc: job %q: %w", t.Label, ctx.Err())
	}
}
