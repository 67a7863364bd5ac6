package svc

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sigkern/internal/cache"
	"sigkern/internal/obs"
)

// latencyWindow bounds the ring buffers behind the latency quantiles: a
// rolling window of the most recent terminal jobs.
const latencyWindow = 1024

// execQuantileTTL bounds how stale the cached executed-job p50/p99
// served to Retry-After and the budget fast-reject may get before a
// reader recomputes them.
const execQuantileTTL = time.Second

// latRing is a fixed-capacity ring of latency samples. Not
// self-locking; Metrics guards both rings with one small mutex that is
// never shared with the counter hot path.
type latRing struct {
	buf  []time.Duration
	next int
}

func (r *latRing) add(d time.Duration) {
	if len(r.buf) < latencyWindow {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.next] = d
	}
	r.next = (r.next + 1) % latencyWindow
}

// sortedCopy returns the window's samples, sorted ascending.
func (r *latRing) sortedCopy() []time.Duration {
	out := make([]time.Duration, len(r.buf))
	copy(out, r.buf)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Metrics is the service's metrics. Every series is a family of one
// obs.Registry, which renders the flat text and Prometheus formats of
// /metrics; Snapshot reads the same series for the JSON format. Beside
// the registry Metrics keeps only what no family holds: the running-jobs
// and brownout gauges and the two rolling latency windows behind the
// quantiles. All methods are safe for concurrent use. Counters are
// atomics, so the hot path (every queued job, every cache hit) never
// contends with a scrape sorting the latency window.
type Metrics struct {
	reg *obs.Registry

	queued, timeouts, panics, cyclesServed *obs.Counter
	// Admissions refused: shed by a full queue (shedBatch is the batch
	// subset), by an open breaker, or because the remaining deadline
	// budget could not cover the drain estimate; queued tasks dropped at
	// worker pickup because their budget ran out; estimate answers served
	// because the brownout controller was engaged.
	shed, shedBatch, breakerDrops, budgetDrops, expiredDrops, brownoutJobs *obs.Counter
	// Batch fast-path counters (accepted groups and their member
	// cells), machine instances built (one per execution attempt), and
	// tasks set aside behind a running twin.
	batchGroups, batchCells, batchCancels *obs.Counter
	machineBuilds, tasksHeld, journalErrs *obs.Counter

	running    atomic.Int64
	brownoutOn atomic.Bool

	// Per-(machine, kernel) cell series. The unlabeled totals of the
	// counter families are their Totals, so each event is counted once.
	done, failed, cacheHits, cacheMisses, coalesced *obs.CounterVec
	retries, determinism, estimates, modelDrift     *obs.CounterVec
	modelError                                      *obs.GaugeVec
	execLatency                                     *obs.HistogramVec

	// latMu guards the two rolling windows only. all holds every
	// terminal job (cache hits included) and feeds the reported
	// quantiles; exec holds only jobs that actually ran a simulator and
	// feeds the Retry-After drain estimate — µs-scale cache hits in the
	// drain math would collapse the estimate exactly when the queue is
	// full of real work.
	latMu sync.Mutex
	all   latRing
	exec  latRing

	// Cached executed-job p50/p99, refreshed together at most once per
	// execQuantileTTL: Retry-After (p50) and the deadline-budget
	// fast-reject (p99) are computed precisely under overload, where
	// sorting 1024 samples per shed response is the last thing the
	// server needs.
	execP50Nanos atomic.Int64
	execP99Nanos atomic.Int64
	execQStamp   atomic.Int64 // unix nanos of the refresh that owns the values
}

// NewMetrics returns an empty registry. Families are exposed in the
// order they are registered here.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r}
	// total exposes a per-cell family's Total; the family itself is
	// registered further down.
	total := func(name, help string, v **obs.CounterVec) {
		r.Uint(name, help, "counter", func() uint64 { return (*v).Total() })
	}
	gauge := func(name, help string, read func() string) {
		r.Func(name, help, "gauge", func() []obs.Sample { return []obs.Sample{{Value: read()}} })
	}
	seconds := func(name, help string, window *latRing, q float64) {
		gauge(name, help, func() string { return fmt.Sprintf("%.6f", quantile(m.sorted(window), q).Seconds()) })
	}
	m.queued = r.NewCounter("simserved_jobs_queued_total", "Jobs accepted onto the pool queue.")
	r.Uint("simserved_jobs_running", "Jobs currently executing on a worker.", "gauge", m.runningJobs)
	total("simserved_jobs_done_total", "Jobs finished successfully.", &m.done)
	total("simserved_jobs_failed_total", "Jobs finished in error.", &m.failed)
	m.timeouts = r.NewCounter("simserved_jobs_timeout_total", "Jobs that hit the per-job deadline.")
	m.panics = r.NewCounter("simserved_jobs_panicked_total", "Jobs whose simulator panicked (isolated).")
	total("simserved_cache_hits_total", "Jobs answered from the memo table.", &m.cacheHits)
	total("simserved_cache_misses_total", "Memo probes that missed.", &m.cacheMisses)
	gauge("simserved_cache_hit_rate", "Memo hit fraction over all probes.", func() string {
		return fmt.Sprintf("%.4f", hitRate(m.cacheHits.Total(), m.cacheMisses.Total()))
	})
	total("simserved_jobs_coalesced_total", "Submissions attached to an identical in-flight execution.", &m.coalesced)
	m.cyclesServed = r.NewCounter("simserved_simulated_cycles_served_total", "Simulated machine cycles served (run or cached).")
	total("simserved_retries_total", "Transient-failure re-executions.", &m.retries)
	total("simserved_determinism_violations_total", "Determinism-guard trips.", &m.determinism)
	m.shed = r.NewCounter("simserved_jobs_shed_total", "Admissions refused because the queue was full.")
	m.shedBatch = r.NewCounter("simserved_jobs_shed_batch_total", "Batch-priority admissions shed (saturation sheds batch first).")
	m.breakerDrops = r.NewCounter("simserved_breaker_rejected_total", "Admissions refused by an open circuit breaker.")
	m.budgetDrops = r.NewCounter("simserved_budget_rejected_total", "Admissions refused because the remaining deadline budget was below the drain estimate.")
	m.expiredDrops = r.NewCounter("simserved_expired_jobs_dropped_total", "Queued jobs dropped at worker pickup after their deadline budget ran out.")
	m.brownoutJobs = r.NewCounter("simserved_brownout_served_total", "Degraded estimate-tier answers served while browned out.")
	gauge("simserved_brownout_active", "Whether the ?tier=auto brownout controller is engaged (1) or not (0).", func() string {
		if m.brownoutOn.Load() {
			return "1"
		}
		return "0"
	})
	m.batchGroups = r.NewCounter("simserved_batch_groups_total", "Accepted batch groups.")
	m.batchCells = r.NewCounter("simserved_batch_cells_total", "Member cells across accepted batch groups.")
	m.batchCancels = r.NewCounter("simserved_batch_cancels_total", "Batch groups cancelled mid-flight.")
	m.machineBuilds = r.NewCounter("simserved_machine_builds_total", "Machine instances built: one per execution attempt whose factory succeeded.")
	m.tasksHeld = r.NewCounter("simserved_tasks_held_total", "Tasks set aside off-worker until a running task sharing their work ended.")
	m.journalErrs = r.NewCounter("simserved_journal_append_errors_total", "Lifecycle transitions the durability journal failed to persist.")
	total("simserved_estimates_served_total", "Estimate-tier jobs answered from the analytic roofline model.", &m.estimates)
	total("simserved_model_drift_alerts_total", "Simulated results outside the analytic model's error envelope.", &m.modelDrift)
	seconds("simserved_job_latency_p50_seconds", "p50 latency over the rolling terminal-job window (cache hits included).", &m.all, 0.50)
	seconds("simserved_job_latency_p99_seconds", "p99 latency over the rolling terminal-job window (cache hits included).", &m.all, 0.99)
	gauge("simserved_job_latency_samples", "Samples in the rolling terminal-job window.", func() string { return strconv.Itoa(m.samples(&m.all)) })
	seconds("simserved_exec_latency_p50_seconds", "p50 latency over executed jobs only (the Retry-After drain estimate).", &m.exec, 0.50)
	seconds("simserved_exec_latency_p99_seconds", "p99 latency over executed jobs only.", &m.exec, 0.99)
	gauge("simserved_exec_latency_samples", "Samples in the executed-job window.", func() string { return strconv.Itoa(m.samples(&m.exec)) })
	// Priority-labeled shed: one series per admission class, so a
	// dashboard can show "who is being refused" directly.
	r.Func("simserved_jobs_shed_by_priority_total", "Admissions refused under saturation, per priority class.", "counter", func() []obs.Sample {
		batch := m.shedBatch.Value()
		return []obs.Sample{
			{Labels: []string{"priority", string(PriorityInteractive)}, Value: strconv.FormatUint(m.shed.Value()-batch, 10)},
			{Labels: []string{"priority", string(PriorityBatch)}, Value: strconv.FormatUint(batch, 10)},
		}
	})
	// The process-wide memos (cache.NewSizedMemo), one series per memo.
	for _, f := range []struct {
		name, help, typ string
		pick            func(cache.MemoStats) uint64
	}{
		{"simserved_process_memo_hits_total", "Process-wide memo lookups that found an entry since process start, per memo.", "counter",
			func(s cache.MemoStats) uint64 { return s.Hits }},
		{"simserved_process_memo_misses_total", "Process-wide memo lookups that found none and built the value since process start, per memo.", "counter",
			func(s cache.MemoStats) uint64 { return s.Misses }},
		{"simserved_process_memo_bytes", "Bytes each process-wide memo retains.", "gauge",
			func(s cache.MemoStats) uint64 { return uint64(s.Bytes) }},
	} {
		r.Func(f.name, f.help, f.typ, func() []obs.Sample {
			var out []obs.Sample
			for _, s := range cache.ProcessMemoStats() {
				out = append(out, obs.Sample{Labels: []string{"memo", s.Name}, Value: strconv.FormatUint(f.pick(s), 10)})
			}
			return out
		})
	}
	m.done = r.NewCounterVec("simserved_cell_jobs_done_total",
		"Jobs finished successfully, per (machine, kernel) cell.")
	m.failed = r.NewCounterVec("simserved_cell_jobs_failed_total",
		"Jobs finished in error, per (machine, kernel) cell.")
	m.cacheHits = r.NewCounterVec("simserved_cell_cache_hits_total",
		"Jobs answered from the memo table, per (machine, kernel) cell.")
	m.cacheMisses = r.NewCounterVec("simserved_cell_cache_misses_total",
		"Memo probes that missed, per (machine, kernel) cell.")
	m.coalesced = r.NewCounterVec("simserved_cell_jobs_coalesced_total",
		"Submissions attached to an identical in-flight execution, per (machine, kernel) cell.")
	m.retries = r.NewCounterVec("simserved_cell_retries_total",
		"Transient-failure re-executions, per (machine, kernel) cell.")
	m.determinism = r.NewCounterVec("simserved_cell_determinism_violations_total",
		"Determinism-guard trips, per (machine, kernel) cell.")
	m.estimates = r.NewCounterVec("simserved_cell_estimates_total",
		"Estimate-tier jobs answered from the analytic roofline model, per (machine, kernel) cell.")
	m.modelDrift = r.NewCounterVec("simserved_cell_model_drift_total",
		"Simulated results outside the analytic model's error envelope, per (machine, kernel) cell.")
	m.modelError = r.NewGaugeVec("simserved_cell_model_error_ratio",
		"Latest simulated-cycles over analytic-bound ratio, per (machine, kernel) cell.")
	m.execLatency = r.NewHistogramVec("simserved_cell_exec_latency_seconds",
		"Executed-job latency (queue to finish, cache hits excluded), per (machine, kernel) cell.", nil)
	return m
}

// Registry returns the registry that renders /metrics.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// jobFinished records a terminal transition. started is false for jobs
// that never ran (cache hits, rejected submissions after queueing);
// only started jobs enter the executed-latency window behind the
// Retry-After drain estimate.
func (m *Metrics) jobFinished(cell obs.Labels, started, ok, timedOut, panicked bool, latency time.Duration) {
	if started {
		m.running.Add(-1)
	}
	if ok {
		m.done.With(cell).Inc()
	} else {
		m.failed.With(cell).Inc()
	}
	if timedOut {
		m.timeouts.Inc()
	}
	if panicked {
		m.panics.Inc()
	}
	m.latMu.Lock()
	m.all.add(latency)
	if started {
		m.exec.add(latency)
	}
	m.latMu.Unlock()
	if started && !cell.IsZero() {
		m.execLatency.With(cell).Observe(latency)
	}
}

// loadShed records an admission rejected because its priority class's
// queue was full (or, for batch, because interactive traffic had
// claimed the remaining capacity).
func (m *Metrics) loadShed(pr Priority) {
	m.shed.Inc()
	if pr == PriorityBatch {
		m.shedBatch.Inc()
	}
}

// modelObserved publishes one simulated-vs-model comparison: the cell's
// error-ratio gauge is always updated; a ratio outside the envelope
// additionally fires the drift alert counter. Simulator drift from its
// own analytic lower bound is a correctness alarm, not noise.
func (m *Metrics) modelObserved(cell obs.Labels, ratio float64, within bool) {
	m.modelError.With(cell).Set(ratio)
	if !within {
		m.modelDrift.With(cell).Inc()
	}
}

// runningJobs reads the running gauge; a finish racing its start can
// leave it briefly negative.
func (m *Metrics) runningJobs() uint64 { return uint64(max(m.running.Load(), 0)) }

// sorted returns a sorted copy of one latency window.
func (m *Metrics) sorted(window *latRing) []time.Duration {
	m.latMu.Lock()
	defer m.latMu.Unlock()
	return window.sortedCopy()
}

// samples returns the number of samples in one latency window.
func (m *Metrics) samples(window *latRing) int {
	m.latMu.Lock()
	defer m.latMu.Unlock()
	return len(window.buf)
}

func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// ExecP50 returns the rolling executed-job p50 latency from a cached
// value refreshed at most once per second — the cheap read Retry-After
// computation uses on every shed response, instead of copying and
// sorting the full window under load.
func (m *Metrics) ExecP50() time.Duration {
	m.refreshExecQuantiles()
	return time.Duration(m.execP50Nanos.Load())
}

// ExecP99 returns the rolling executed-job p99 latency from the same
// cached refresh as ExecP50 — the drain-estimate input for the
// deadline-budget fast-reject and the brownout controller.
func (m *Metrics) ExecP99() time.Duration {
	m.refreshExecQuantiles()
	return time.Duration(m.execP99Nanos.Load())
}

// refreshExecQuantiles recomputes the cached executed-job p50/p99 when
// the TTL has lapsed. One refresher wins the CAS; everyone else serves
// the (at worst one-TTL-stale) cached values without touching the
// window.
func (m *Metrics) refreshExecQuantiles() {
	now := time.Now().UnixNano()
	stamp := m.execQStamp.Load()
	if stamp != 0 && now-stamp < int64(execQuantileTTL) {
		return
	}
	if !m.execQStamp.CompareAndSwap(stamp, now) {
		return
	}
	window := m.sorted(&m.exec)
	m.execP50Nanos.Store(int64(quantile(window, 0.50)))
	m.execP99Nanos.Store(int64(quantile(window, 0.99)))
}

// invalidateExecQuantiles forces the next ExecP50/ExecP99 call to
// recompute — test hook, so refresh behavior is observable without
// sleeping out the TTL.
func (m *Metrics) invalidateExecQuantiles() { m.execQStamp.Store(0) }

// Snapshot is a point-in-time copy of every metric.
type Snapshot struct {
	Queued       uint64  `json:"jobs_queued"`
	Running      uint64  `json:"jobs_running"`
	Done         uint64  `json:"jobs_done"`
	Failed       uint64  `json:"jobs_failed"`
	Timeouts     uint64  `json:"jobs_timeout"`
	Panics       uint64  `json:"jobs_panicked"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Coalesced counts submissions that attached to an identical
	// in-flight execution (singleflight) instead of running again.
	Coalesced    uint64 `json:"jobs_coalesced"`
	CyclesServed uint64 `json:"simulated_cycles_served"`
	// Retries counts transient-failure re-executions; Determinism
	// counts guard trips (results disagreeing with the memoized spec
	// hash); Shed and BreakerRejected count admissions refused by the
	// full queue and by open circuit breakers.
	Retries     uint64 `json:"retries"`
	Determinism uint64 `json:"determinism_violations"`
	// Shed counts every refused admission; ShedBatch the batch-class
	// subset (saturation sheds batch first, so under mixed overload
	// ShedBatch should dominate).
	Shed            uint64 `json:"jobs_shed"`
	ShedBatch       uint64 `json:"jobs_shed_batch"`
	BreakerRejected uint64 `json:"breaker_rejected"`
	// BudgetRejected counts admissions refused because the remaining
	// deadline budget was below the drain estimate; ExpiredDropped
	// counts queued jobs dropped at worker pickup after their budget
	// ran out (neither ever occupied a worker slot).
	BudgetRejected uint64 `json:"budget_rejected"`
	ExpiredDropped uint64 `json:"expired_jobs_dropped"`
	// BrownoutServed counts degraded estimate answers served while the
	// ?tier=auto controller was engaged; BrownoutActive is its current
	// verdict.
	BrownoutServed uint64 `json:"brownout_served"`
	BrownoutActive bool   `json:"brownout_active"`
	// BatchGroups/BatchCells count accepted /v1/batch groups and their
	// member cells; MachineBuilds counts machine instances built, one per
	// execution attempt whose factory succeeded. MachineReuses is
	// always 0: every attempt builds its own instance, so none is
	// reused. It stays for readers of the JSON format that compute a
	// reuse ratio.
	BatchGroups   uint64 `json:"batch_groups"`
	BatchCells    uint64 `json:"batch_cells"`
	BatchCancels  uint64 `json:"batch_cancels"`
	MachineReuses uint64 `json:"machine_reuses"`
	MachineBuilds uint64 `json:"machine_builds"`
	// TasksHeld counts tasks set aside behind a running task holding
	// their Task.Shares key (the AltiVec twin of a running PPC cell).
	TasksHeld uint64 `json:"tasks_held"`
	// JournalAppendErrors counts job lifecycle transitions the
	// durability journal failed to persist (disk trouble; the health
	// endpoint degrades while it is non-zero).
	JournalAppendErrors uint64 `json:"journal_append_errors"`
	// Estimates counts estimate-tier answers (analytic roofline, no
	// simulator run); ModelDrift counts simulated results that landed
	// outside the analytic model's error envelope.
	Estimates  uint64 `json:"estimates_served"`
	ModelDrift uint64 `json:"model_drift_alerts"`
	// P50 and P99 are latency quantiles over the most recent terminal
	// jobs (a rolling window, cache hits included), in seconds.
	P50Seconds float64 `json:"latency_p50_seconds"`
	P99Seconds float64 `json:"latency_p99_seconds"`
	Samples    int     `json:"latency_samples"`
	// ExecP50Seconds/ExecP99Seconds are the same quantiles over
	// executed jobs only (the window behind the Retry-After drain
	// estimate); cache hits and coalesced completions are excluded.
	ExecP50Seconds float64 `json:"exec_latency_p50_seconds"`
	ExecP99Seconds float64 `json:"exec_latency_p99_seconds"`
	ExecSamples    int     `json:"exec_latency_samples"`
}

// Snapshot returns a copy of every series the JSON format reports.
// Counters are read atomically — concurrent updates may land between
// reads, but each value is itself consistent and monotone.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Queued:       m.queued.Value(),
		Running:      m.runningJobs(),
		Done:         m.done.Total(),
		Failed:       m.failed.Total(),
		Timeouts:     m.timeouts.Value(),
		Panics:       m.panics.Value(),
		CacheHits:    m.cacheHits.Total(),
		CacheMisses:  m.cacheMisses.Total(),
		Coalesced:    m.coalesced.Total(),
		CyclesServed: m.cyclesServed.Value(),

		Retries:         m.retries.Total(),
		Determinism:     m.determinism.Total(),
		Shed:            m.shed.Value(),
		ShedBatch:       m.shedBatch.Value(),
		BreakerRejected: m.breakerDrops.Value(),
		BudgetRejected:  m.budgetDrops.Value(),
		ExpiredDropped:  m.expiredDrops.Value(),
		BrownoutServed:  m.brownoutJobs.Value(),
		BrownoutActive:  m.brownoutOn.Load(),

		BatchGroups:   m.batchGroups.Value(),
		BatchCells:    m.batchCells.Value(),
		BatchCancels:  m.batchCancels.Value(),
		MachineBuilds: m.machineBuilds.Value(),
		TasksHeld:     m.tasksHeld.Value(),

		JournalAppendErrors: m.journalErrs.Value(),

		Estimates:  m.estimates.Total(),
		ModelDrift: m.modelDrift.Total(),
	}
	s.CacheHitRate = hitRate(s.CacheHits, s.CacheMisses)
	all, exec := m.sorted(&m.all), m.sorted(&m.exec)
	s.Samples = len(all)
	s.P50Seconds = quantile(all, 0.50).Seconds()
	s.P99Seconds = quantile(all, 0.99).Seconds()
	s.ExecSamples = len(exec)
	s.ExecP50Seconds = quantile(exec, 0.50).Seconds()
	s.ExecP99Seconds = quantile(exec, 0.99).Seconds()
	return s
}

// quantile returns the q-th quantile of sorted (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
