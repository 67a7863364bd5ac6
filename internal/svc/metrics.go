package svc

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/obs"
	"sigkern/internal/ppc"
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

// Metrics is the service's in-process metrics registry: job lifecycle
// counters, cache effectiveness, total simulated cycles served, rolling
// latency windows for quantiles, and per-(machine, kernel) labeled
// series for every Table 3 cell. All methods are safe for concurrent
// use. Counters are atomics, so the hot path (every queued job, every
// cache hit) never contends with Snapshot sorting the latency window.
type Metrics struct {
	queued       atomic.Uint64
	running      atomic.Int64
	done         atomic.Uint64
	failed       atomic.Uint64
	timeouts     atomic.Uint64
	panics       atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	coalescedJbs atomic.Uint64
	cyclesServed atomic.Uint64
	retries      atomic.Uint64
	determinism  atomic.Uint64
	shed         atomic.Uint64
	shedBatch    atomic.Uint64
	breakerDrops atomic.Uint64
	journalErrs  atomic.Uint64
	estimates    atomic.Uint64
	modelDrift   atomic.Uint64
	// Overload-robustness counters: admissions refused because the
	// remaining deadline budget could not cover the drain estimate,
	// queued tasks dropped at worker pickup because their budget ran
	// out, estimate answers served because the brownout controller was
	// engaged, and the controller's current verdict (gauge).
	budgetDrops  atomic.Uint64
	expiredDrops atomic.Uint64
	brownoutJobs atomic.Uint64
	brownoutOn   atomic.Bool
	// Batch fast-path counters: accepted groups and their member
	// cells, plus the machine-reuse ledger — executions served by a
	// per-worker cached instance, fresh constructions, sampled
	// fresh-instance verifications, and cache evictions (abandoned or
	// failed attempts, determinism trips).
	batchGroups   atomic.Uint64
	batchCells    atomic.Uint64
	batchCancels  atomic.Uint64
	machineReuses atomic.Uint64
	machineBuilds atomic.Uint64
	reuseChecks   atomic.Uint64
	machineEvicts atomic.Uint64
	tasksHeld     atomic.Uint64 // tasks set aside by Task.Shares

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

	// Labeled per-cell series, exposed in the Prometheus format.
	reg            *obs.Registry
	vecDone        *obs.CounterVec
	vecFailed      *obs.CounterVec
	vecCacheHits   *obs.CounterVec
	vecCacheMisses *obs.CounterVec
	vecCoalesced   *obs.CounterVec
	vecRetries     *obs.CounterVec
	vecDeterminism *obs.CounterVec
	vecEstimates   *obs.CounterVec
	vecModelDrift  *obs.CounterVec
	vecModelError  *obs.GaugeVec
	vecExecLatency *obs.HistogramVec
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{reg: obs.NewRegistry()}
	m.vecDone = m.reg.NewCounterVec("simserved_cell_jobs_done_total",
		"Jobs finished successfully, per (machine, kernel) cell.")
	m.vecFailed = m.reg.NewCounterVec("simserved_cell_jobs_failed_total",
		"Jobs finished in error, per (machine, kernel) cell.")
	m.vecCacheHits = m.reg.NewCounterVec("simserved_cell_cache_hits_total",
		"Jobs answered from the memo table, per (machine, kernel) cell.")
	m.vecCacheMisses = m.reg.NewCounterVec("simserved_cell_cache_misses_total",
		"Memo probes that missed, per (machine, kernel) cell.")
	m.vecCoalesced = m.reg.NewCounterVec("simserved_cell_jobs_coalesced_total",
		"Submissions attached to an identical in-flight execution, per (machine, kernel) cell.")
	m.vecRetries = m.reg.NewCounterVec("simserved_cell_retries_total",
		"Transient-failure re-executions, per (machine, kernel) cell.")
	m.vecDeterminism = m.reg.NewCounterVec("simserved_cell_determinism_violations_total",
		"Determinism-guard trips, per (machine, kernel) cell.")
	m.vecEstimates = m.reg.NewCounterVec("simserved_cell_estimates_total",
		"Estimate-tier jobs answered from the analytic roofline model, per (machine, kernel) cell.")
	m.vecModelDrift = m.reg.NewCounterVec("simserved_cell_model_drift_total",
		"Simulated results outside the analytic model's error envelope, per (machine, kernel) cell.")
	m.vecModelError = m.reg.NewGaugeVec("simserved_cell_model_error_ratio",
		"Latest simulated-cycles over analytic-bound ratio, per (machine, kernel) cell.")
	m.vecExecLatency = m.reg.NewHistogramVec("simserved_cell_exec_latency_seconds",
		"Executed-job latency (queue to finish, cache hits excluded), per (machine, kernel) cell.", nil)
	return m
}

// Registry returns the labeled per-cell series for exposition.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

func (m *Metrics) jobQueued() { m.queued.Add(1) }

func (m *Metrics) jobStarted() { m.running.Add(1) }

// jobFinished records a terminal transition. started is false for jobs
// that never ran (cache hits, rejected submissions after queueing);
// only started jobs enter the executed-latency window behind the
// Retry-After drain estimate.
func (m *Metrics) jobFinished(cell obs.Labels, started, ok, timedOut, panicked bool, latency time.Duration) {
	if started {
		m.running.Add(-1)
	}
	if ok {
		m.done.Add(1)
		m.vecDone.With(cell).Inc()
	} else {
		m.failed.Add(1)
		m.vecFailed.With(cell).Inc()
	}
	if timedOut {
		m.timeouts.Add(1)
	}
	if panicked {
		m.panics.Add(1)
	}
	m.latMu.Lock()
	m.all.add(latency)
	if started {
		m.exec.add(latency)
	}
	m.latMu.Unlock()
	if started && !cell.IsZero() {
		m.vecExecLatency.With(cell).Observe(latency)
	}
}

func (m *Metrics) cacheHit(cell obs.Labels, cycles uint64) {
	m.cacheHits.Add(1)
	m.cyclesServed.Add(cycles)
	m.vecCacheHits.With(cell).Inc()
}

func (m *Metrics) cacheMiss(cell obs.Labels) {
	m.cacheMisses.Add(1)
	m.vecCacheMisses.With(cell).Inc()
}

// jobCoalesced records a submission that attached to an identical
// in-flight execution instead of running the simulator again.
func (m *Metrics) jobCoalesced(cell obs.Labels) {
	m.coalescedJbs.Add(1)
	m.vecCoalesced.With(cell).Inc()
}

func (m *Metrics) cyclesRun(cycles uint64) { m.cyclesServed.Add(cycles) }

// jobRetried records n transient-failure re-executions of one job.
func (m *Metrics) jobRetried(cell obs.Labels, n uint64) {
	m.retries.Add(n)
	m.vecRetries.With(cell).Add(n)
}

// determinismViolation records the determinism guard tripping.
func (m *Metrics) determinismViolation(cell obs.Labels) {
	m.determinism.Add(1)
	m.vecDeterminism.With(cell).Inc()
}

// loadShed records an admission rejected because its priority class's
// queue was full (or, for batch, because interactive traffic had
// claimed the remaining capacity).
func (m *Metrics) loadShed(pr Priority) {
	m.shed.Add(1)
	if pr == PriorityBatch {
		m.shedBatch.Add(1)
	}
}

// budgetRejected records an admission refused because the remaining
// deadline budget was below the drain estimate.
func (m *Metrics) budgetRejected() { m.budgetDrops.Add(1) }

// expiredDropped records a queued task dropped at worker pickup because
// its deadline budget ran out while it waited.
func (m *Metrics) expiredDropped() { m.expiredDrops.Add(1) }

// brownoutServed records one degraded (estimate-tier) answer served
// because the brownout controller was engaged.
func (m *Metrics) brownoutServed() { m.brownoutJobs.Add(1) }

// setBrownoutActive publishes the controller's verdict as a gauge.
func (m *Metrics) setBrownoutActive(v bool) { m.brownoutOn.Store(v) }

// BrownoutActive returns the last published brownout verdict.
func (m *Metrics) BrownoutActive() bool { return m.brownoutOn.Load() }

// batchAccepted records one admitted batch group and its cell count.
func (m *Metrics) batchAccepted(cells int) {
	m.batchGroups.Add(1)
	m.batchCells.Add(uint64(cells))
}

// batchCancelled records one batch group cancelled mid-flight (client
// disconnect or explicit BatchRun.Cancel).
func (m *Metrics) batchCancelled() {
	m.batchCancels.Add(1)
}

// machineReused records an execution served by a per-worker cached
// machine instance (rewound, not reconstructed).
func (m *Metrics) machineReused() { m.machineReuses.Add(1) }

// machineBuilt records a fresh machine-instance construction on the
// reuse path (cache miss, non-Resettable machine, or quarantine).
func (m *Metrics) machineBuilt() { m.machineBuilds.Add(1) }

// reuseChecked records one sampled fresh-instance verification of a
// reused-instance result.
func (m *Metrics) reuseChecked() { m.reuseChecks.Add(1) }

// machineEvicted records a worker dropping a cached instance whose
// state is no longer trustworthy.
func (m *Metrics) machineEvicted() { m.machineEvicts.Add(1) }

// taskHeld records a task set aside behind the holder of its Shares key.
func (m *Metrics) taskHeld() { m.tasksHeld.Add(1) }

// breakerRejected records an admission rejected by an open breaker.
func (m *Metrics) breakerRejected() { m.breakerDrops.Add(1) }

// journalAppendError records a lifecycle transition the durability
// journal failed to persist.
func (m *Metrics) journalAppendError() { m.journalErrs.Add(1) }

// estimateServed records one estimate-tier answer.
func (m *Metrics) estimateServed(cell obs.Labels) {
	m.estimates.Add(1)
	m.vecEstimates.With(cell).Inc()
}

// modelObserved publishes one simulated-vs-model comparison: the cell's
// error-ratio gauge is always updated; a ratio outside the envelope
// additionally fires the drift alert counters. Simulator drift from its
// own analytic lower bound is a correctness alarm, not noise.
func (m *Metrics) modelObserved(cell obs.Labels, ratio float64, within bool) {
	m.vecModelError.With(cell).Set(ratio)
	if !within {
		m.modelDrift.Add(1)
		m.vecModelDrift.With(cell).Inc()
	}
}

// ModelDriftAlerts returns the drift-alert count — a single atomic
// read, for tests and health probes.
func (m *Metrics) ModelDriftAlerts() uint64 { return m.modelDrift.Load() }

// JournalAppendErrors returns the journal append-error count — a
// single atomic read, for callers (health checks) that do not need the
// full quantile-sorting Snapshot.
func (m *Metrics) JournalAppendErrors() uint64 { return m.journalErrs.Load() }

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
	m.latMu.Lock()
	window := m.exec.sortedCopy()
	m.latMu.Unlock()
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
	// member cells; MachineReuses/MachineBuilds are the per-worker
	// instance-cache ledger (reused vs freshly constructed);
	// ReuseChecks counts sampled fresh-instance verifications and
	// MachineEvictions cache entries dropped as untrustworthy.
	BatchGroups      uint64 `json:"batch_groups"`
	BatchCells       uint64 `json:"batch_cells"`
	BatchCancels     uint64 `json:"batch_cancels"`
	MachineReuses    uint64 `json:"machine_reuses"`
	MachineBuilds    uint64 `json:"machine_builds"`
	ReuseChecks      uint64 `json:"reuse_checks"`
	MachineEvictions uint64 `json:"machine_evictions"`
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

// Snapshot returns a copy of the registry. Counters are read
// atomically — concurrent updates may land between reads, but each
// value is itself consistent and monotone.
func (m *Metrics) Snapshot() Snapshot {
	running := m.running.Load()
	if running < 0 {
		running = 0
	}
	s := Snapshot{
		Queued:       m.queued.Load(),
		Running:      uint64(running),
		Done:         m.done.Load(),
		Failed:       m.failed.Load(),
		Timeouts:     m.timeouts.Load(),
		Panics:       m.panics.Load(),
		CacheHits:    m.cacheHits.Load(),
		CacheMisses:  m.cacheMisses.Load(),
		Coalesced:    m.coalescedJbs.Load(),
		CyclesServed: m.cyclesServed.Load(),

		Retries:         m.retries.Load(),
		Determinism:     m.determinism.Load(),
		Shed:            m.shed.Load(),
		ShedBatch:       m.shedBatch.Load(),
		BreakerRejected: m.breakerDrops.Load(),
		BudgetRejected:  m.budgetDrops.Load(),
		ExpiredDropped:  m.expiredDrops.Load(),
		BrownoutServed:  m.brownoutJobs.Load(),
		BrownoutActive:  m.brownoutOn.Load(),

		BatchGroups:      m.batchGroups.Load(),
		BatchCells:       m.batchCells.Load(),
		BatchCancels:     m.batchCancels.Load(),
		MachineReuses:    m.machineReuses.Load(),
		MachineBuilds:    m.machineBuilds.Load(),
		ReuseChecks:      m.reuseChecks.Load(),
		MachineEvictions: m.machineEvicts.Load(),
		TasksHeld:        m.tasksHeld.Load(),

		JournalAppendErrors: m.journalErrs.Load(),

		Estimates:  m.estimates.Load(),
		ModelDrift: m.modelDrift.Load(),
	}
	if probes := s.CacheHits + s.CacheMisses; probes > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(probes)
	}
	m.latMu.Lock()
	all := m.all.sortedCopy()
	exec := m.exec.sortedCopy()
	m.latMu.Unlock()
	s.Samples = len(all)
	if len(all) > 0 {
		s.P50Seconds = quantile(all, 0.50).Seconds()
		s.P99Seconds = quantile(all, 0.99).Seconds()
	}
	s.ExecSamples = len(exec)
	if len(exec) > 0 {
		s.ExecP50Seconds = quantile(exec, 0.50).Seconds()
		s.ExecP99Seconds = quantile(exec, 0.99).Seconds()
	}
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

// metricDesc describes one unlabeled metric for both text formats.
type metricDesc struct {
	name  string
	typ   string // counter or gauge
	help  string
	value string
}

// describe lists every unlabeled metric in stable order.
func (s Snapshot) describe() []metricDesc {
	return []metricDesc{
		{"simserved_jobs_queued_total", "counter", "Jobs accepted onto the pool queue.", fmt.Sprintf("%d", s.Queued)},
		{"simserved_jobs_running", "gauge", "Jobs currently executing on a worker.", fmt.Sprintf("%d", s.Running)},
		{"simserved_jobs_done_total", "counter", "Jobs finished successfully.", fmt.Sprintf("%d", s.Done)},
		{"simserved_jobs_failed_total", "counter", "Jobs finished in error.", fmt.Sprintf("%d", s.Failed)},
		{"simserved_jobs_timeout_total", "counter", "Jobs that hit the per-job deadline.", fmt.Sprintf("%d", s.Timeouts)},
		{"simserved_jobs_panicked_total", "counter", "Jobs whose simulator panicked (isolated).", fmt.Sprintf("%d", s.Panics)},
		{"simserved_cache_hits_total", "counter", "Jobs answered from the memo table.", fmt.Sprintf("%d", s.CacheHits)},
		{"simserved_cache_misses_total", "counter", "Memo probes that missed.", fmt.Sprintf("%d", s.CacheMisses)},
		{"simserved_cache_hit_rate", "gauge", "Memo hit fraction over all probes.", fmt.Sprintf("%.4f", s.CacheHitRate)},
		{"simserved_jobs_coalesced_total", "counter", "Submissions attached to an identical in-flight execution.", fmt.Sprintf("%d", s.Coalesced)},
		{"simserved_simulated_cycles_served_total", "counter", "Simulated machine cycles served (run or cached).", fmt.Sprintf("%d", s.CyclesServed)},
		{"simserved_retries_total", "counter", "Transient-failure re-executions.", fmt.Sprintf("%d", s.Retries)},
		{"simserved_determinism_violations_total", "counter", "Determinism-guard trips.", fmt.Sprintf("%d", s.Determinism)},
		{"simserved_jobs_shed_total", "counter", "Admissions refused because the queue was full.", fmt.Sprintf("%d", s.Shed)},
		{"simserved_jobs_shed_batch_total", "counter", "Batch-priority admissions shed (saturation sheds batch first).", fmt.Sprintf("%d", s.ShedBatch)},
		{"simserved_breaker_rejected_total", "counter", "Admissions refused by an open circuit breaker.", fmt.Sprintf("%d", s.BreakerRejected)},
		{"simserved_budget_rejected_total", "counter", "Admissions refused because the remaining deadline budget was below the drain estimate.", fmt.Sprintf("%d", s.BudgetRejected)},
		{"simserved_expired_jobs_dropped_total", "counter", "Queued jobs dropped at worker pickup after their deadline budget ran out.", fmt.Sprintf("%d", s.ExpiredDropped)},
		{"simserved_brownout_served_total", "counter", "Degraded estimate-tier answers served while browned out.", fmt.Sprintf("%d", s.BrownoutServed)},
		{"simserved_brownout_active", "gauge", "Whether the ?tier=auto brownout controller is engaged (1) or not (0).", boolToMetric(s.BrownoutActive)},
		{"simserved_batch_groups_total", "counter", "Accepted batch groups.", fmt.Sprintf("%d", s.BatchGroups)},
		{"simserved_batch_cells_total", "counter", "Member cells across accepted batch groups.", fmt.Sprintf("%d", s.BatchCells)},
		{"simserved_batch_cancels_total", "counter", "Batch groups cancelled mid-flight.", fmt.Sprintf("%d", s.BatchCancels)},
		{"simserved_machine_reuses_total", "counter", "Executions served by a per-worker cached machine instance.", fmt.Sprintf("%d", s.MachineReuses)},
		{"simserved_machine_builds_total", "counter", "Fresh machine-instance constructions on the reuse path.", fmt.Sprintf("%d", s.MachineBuilds)},
		{"simserved_reuse_checks_total", "counter", "Sampled fresh-instance verifications of reused-instance results.", fmt.Sprintf("%d", s.ReuseChecks)},
		{"simserved_machine_evictions_total", "counter", "Cached machine instances dropped as untrustworthy.", fmt.Sprintf("%d", s.MachineEvictions)},
		{"simserved_tasks_held_total", "counter", "Tasks set aside off-worker until a running task sharing their work ended.", fmt.Sprintf("%d", s.TasksHeld)},
		{"simserved_journal_append_errors_total", "counter", "Lifecycle transitions the durability journal failed to persist.", fmt.Sprintf("%d", s.JournalAppendErrors)},
		{"simserved_estimates_served_total", "counter", "Estimate-tier jobs answered from the analytic roofline model.", fmt.Sprintf("%d", s.Estimates)},
		{"simserved_model_drift_alerts_total", "counter", "Simulated results outside the analytic model's error envelope.", fmt.Sprintf("%d", s.ModelDrift)},
		{"simserved_job_latency_p50_seconds", "gauge", "p50 latency over the rolling terminal-job window (cache hits included).", fmt.Sprintf("%.6f", s.P50Seconds)},
		{"simserved_job_latency_p99_seconds", "gauge", "p99 latency over the rolling terminal-job window (cache hits included).", fmt.Sprintf("%.6f", s.P99Seconds)},
		{"simserved_job_latency_samples", "gauge", "Samples in the rolling terminal-job window.", fmt.Sprintf("%d", s.Samples)},
		{"simserved_exec_latency_p50_seconds", "gauge", "p50 latency over executed jobs only (the Retry-After drain estimate).", fmt.Sprintf("%.6f", s.ExecP50Seconds)},
		{"simserved_exec_latency_p99_seconds", "gauge", "p99 latency over executed jobs only.", fmt.Sprintf("%.6f", s.ExecP99Seconds)},
		{"simserved_exec_latency_samples", "gauge", "Samples in the executed-job window.", fmt.Sprintf("%d", s.ExecSamples)},
	}
}

func boolToMetric(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// WriteText renders the snapshot in the flat `name value` text format
// of the /metrics endpoint.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, d := range s.describe() {
		if _, err := fmt.Fprintf(w, "%s %s\n", d.name, d.value); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the full registry — the unlabeled snapshot
// totals plus every per-(machine, kernel) labeled series — in the
// Prometheus text exposition format (HELP/TYPE comments, escaped
// labels, histogram buckets).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	for _, d := range s.describe() {
		if err := obs.WritePromHeader(w, d.name, d.help, d.typ); err != nil {
			return err
		}
		if err := obs.WritePromSample(w, d.name, obs.Labels{}, "", "", d.value); err != nil {
			return err
		}
	}
	// Priority-labeled shed: one family, one series per admission class,
	// so a dashboard can show "who is being refused" directly.
	const shedByPriority = "simserved_jobs_shed_by_priority_total"
	if err := obs.WritePromHeader(w, shedByPriority,
		"Admissions refused under saturation, per priority class.", "counter"); err != nil {
		return err
	}
	if err := obs.WritePromSampleKV(w, shedByPriority,
		fmt.Sprintf("%d", s.Shed-s.ShedBatch), "priority", string(PriorityInteractive)); err != nil {
		return err
	}
	if err := obs.WritePromSampleKV(w, shedByPriority,
		fmt.Sprintf("%d", s.ShedBatch), "priority", string(PriorityBatch)); err != nil {
		return err
	}
	if err := writeReferenceMemos(w); err != nil {
		return err
	}
	if err := writeTraceMemo(w); err != nil {
		return err
	}
	return m.reg.WritePrometheus(w)
}

// writeTraceMemo renders the process-wide G4 trace memo (package ppc):
// hits, misses and retained bytes.
func writeTraceMemo(w io.Writer) error {
	hits, misses, bytes := ppc.TraceMemoStats()
	for _, f := range []struct {
		name, help, typ string
		v               uint64
	}{
		{"simserved_ppc_trace_memo_hits_total", "G4 trace memo lookups that found an entry since process start.", "counter", hits},
		{"simserved_ppc_trace_memo_misses_total", "G4 trace memo lookups that found none and walked the hierarchy since process start.", "counter", misses},
		{"simserved_ppc_trace_memo_bytes", "Bytes the G4 trace memo retains.", "gauge", uint64(bytes)},
	} {
		if err := obs.WritePromHeader(w, f.name, f.help, f.typ); err != nil {
			return err
		}
		if err := obs.WritePromSample(w, f.name, obs.Labels{}, "", "", fmt.Sprintf("%d", f.v)); err != nil {
			return err
		}
	}
	return nil
}

// writeReferenceMemos renders the kernels' process-wide golden-reference
// memos: hits, misses and retained bytes, one series per kernel.
func writeReferenceMemos(w io.Writer) error {
	ctHits, ctMisses, ctBytes := cornerturn.ReferenceStats()
	csHits, csMisses, csBytes := cslc.ReferenceStats()
	for _, f := range []struct {
		name, help, typ string
		ct, cs          uint64
	}{
		{"simserved_kernel_reference_memo_hits_total",
			"Golden-reference memo hits since process start, per kernel.", "counter", ctHits, csHits},
		{"simserved_kernel_reference_memo_misses_total",
			"Golden-reference memo misses (references computed) since process start, per kernel.", "counter", ctMisses, csMisses},
		{"simserved_kernel_reference_memo_bytes",
			"Bytes the golden-reference memo retains, per kernel.", "gauge", uint64(ctBytes), uint64(csBytes)},
	} {
		if err := obs.WritePromHeader(w, f.name, f.help, f.typ); err != nil {
			return err
		}
		if err := obs.WritePromSampleKV(w, f.name, fmt.Sprintf("%d", f.ct), "kernel", string(core.CornerTurn)); err != nil {
			return err
		}
		if err := obs.WritePromSampleKV(w, f.name, fmt.Sprintf("%d", f.cs), "kernel", string(core.CSLC)); err != nil {
			return err
		}
	}
	return nil
}
