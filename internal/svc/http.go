package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
	"sigkern/internal/obs"
	"sigkern/internal/report"
	"sigkern/internal/resilience"
)

// MaxBodyBytes bounds job bodies and NDJSON batch lines; specs are small.
const MaxBodyBytes = 1 << 20

// maxRequestTimeout clamps client-supplied ?timeout= values.
const maxRequestTimeout = 10 * time.Minute

// DefaultPageLimit and MaxPageLimit bound GET /v1/jobs pages: the
// registry holds up to MaxJobs (4096 by default) jobs, far too many
// for one unbounded response.
const (
	DefaultPageLimit = 256
	MaxPageLimit     = 1000
)

// StatusClientClosedRequest is the nginx-convention 499 status used
// when the client went away mid-request; Go's net/http cannot actually
// deliver it to a disconnected client, but it makes logs and tests
// unambiguous about who aborted.
const StatusClientClosedRequest = 499

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs            submit a job (JobSpec JSON); ?wait=1 blocks,
//	                         ?timeout=30s bounds the wait. Saturation is
//	                         shed with 429 + Retry-After; an open machine
//	                         breaker answers 503 + Retry-After.
//	                         ?tier=estimate answers synchronously from
//	                         the analytic roofline model (µs, no pool
//	                         admission, no journal append); ?tier=auto
//	                         lets the brownout controller pick — degraded
//	                         answers carry Degraded:true and X-Degraded:
//	                         brownout. ?priority=batch queues behind (and
//	                         is shed before) interactive work. An
//	                         X-Deadline-Budget header bounds the whole
//	                         attempt: admission fails fast with 504 when
//	                         the remaining budget cannot cover the
//	                         predicted queue drain, and a queued job whose
//	                         budget expires is dropped at pickup, never
//	                         burning a worker slot. Bad parameter values
//	                         are 400 with a structured ParamError body.
//	POST /v1/batch           submit a whole grid as one group. The body
//	                         is either NDJSON (one JobSpec per line,
//	                         optional "index" field echoed back) or,
//	                         with Content-Type: application/json, a
//	                         compact grid form {machines, kernels,
//	                         workloads} expanded row-major server-side.
//	                         Admission (deadline budget, breakers) is
//	                         checked once for the group; results stream
//	                         back as application/x-ndjson in completion
//	                         order, each line a job snapshot with its
//	                         cell index, then a final summary line.
//	                         Malformed lines are 400 with the 1-based
//	                         line number; more than MaxBatchCells cells
//	                         or a body over 16 MiB is 413. Disconnecting
//	                         cancels only cells that have not started.
//	POST /v1/dse             design-space exploration: one base spec
//	                         plus config deltas and/or named sweep axes
//	                         (see DSERequest), expanded server-side and
//	                         admitted as one batch group. Per-point
//	                         results stream back as application/x-ndjson
//	                         in completion order; the final summary line
//	                         carries the Pareto frontier over simulated
//	                         cycles vs the machine's area proxy. More
//	                         than MaxDSEPoints points is 413.
//	GET  /v1/jobs            list tracked jobs
//	GET  /v1/jobs/{id}       one job's status and result
//	GET  /v1/jobs/{id}/trace the job's lifecycle trace (span events)
//	GET  /v1/tables/3        regenerate the paper's Table 3 (?format=text)
//	GET  /v1/roofline        the predicted-cycles grid with per-cell
//	                         model-vs-simulated error (regenerated and
//	                         extended Table 4); ?sim=0 skips simulation,
//	                         ?format=text renders the report table
//	GET  /metrics            metrics: flat text (default), ?format=prometheus,
//	                         or ?format=json
//	GET  /healthz            liveness: queue depth, breaker states, degraded
//	                         flag (503 while degraded, same body)
//	GET  /readyz             readiness: 503 while draining or degraded, so a
//	                         gateway stops routing new work without the
//	                         prober declaring the process dead
//	POST /v1/replay          cluster rebalance ingest: jobs + memoized
//	                         results recovered from a departed shard's
//	                         journal, folded into this service
//
// Every response carries an X-Request-Id (echoed from the request, or
// generated); the handler logs each request through the service's
// structured logger when one is configured.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/dse", s.handleDSE)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/tables/3", s.handleTable3)
	mux.HandleFunc("GET /v1/roofline", s.handleRoofline)
	mux.HandleFunc("GET /metrics", s.Metrics().Registry().Handler(func() any { return s.Metrics().Snapshot() }))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/replay", s.handleReplay)
	return obs.Instrument(s.logger, mux)
}

// ParamError is the structured 400 body for a rejected query
// parameter: the offending parameter and value, and the accepted
// values, as machine-readable fields next to the human message.
type ParamError struct {
	Error     string   `json:"error"`
	Parameter string   `json:"parameter"`
	Value     string   `json:"value"`
	Want      []string `json:"want"`
}

type httpError struct {
	status int
	msg    string
}

func (e httpError) Error() string { return e.msg }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps service errors onto HTTP statuses: explicit
// httpErrors pass through; an empty batch is 400; an oversized batch
// 413; a shed admission 429; deadline expiry is the gateway's fault
// (504); a cancelled context means the client hung up (499); a job
// evicted from the registry is gone (410); a closed pool, an
// unavailable journal or an open breaker is 503; everything else is
// 500.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, ErrBatchEmpty):
		status = http.StatusBadRequest
	case errors.Is(err, ErrBatchTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrTimeout), errors.Is(err, ErrBudgetExhausted):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = StatusClientClosedRequest
	case errors.Is(err, ErrJobEvicted):
		status = http.StatusGone
	case errors.Is(err, ErrPoolClosed), errors.Is(err, ErrDurability), errors.Is(err, resilience.ErrBreakerOpen):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// admissionParams parses what every write endpoint shares: the
// ?priority= class and the X-Deadline-Budget header (the remaining
// end-to-end deadline, set by the gateway — decremented across
// reroutes — or by the client directly). A bad value is answered with a
// structured 400 and ok=false.
func admissionParams(w http.ResponseWriter, r *http.Request) (opts BatchOptions, ok bool) {
	prParam := r.URL.Query().Get("priority")
	priority, err := ParsePriority(prParam)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ParamError{
			Error:     err.Error(),
			Parameter: "priority",
			Value:     prParam,
			Want:      []string{string(PriorityBatch), string(PriorityInteractive)},
		})
		return opts, false
	}
	budgetHdr := r.Header.Get("X-Deadline-Budget")
	budget, err := resilience.ParseTimeout(budgetHdr, maxRequestTimeout)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ParamError{
			Error:     err.Error(),
			Parameter: "X-Deadline-Budget",
			Value:     budgetHdr,
			Want:      []string{"a Go duration, e.g. 5s or 500ms, at most " + maxRequestTimeout.String()},
		})
		return opts, false
	}
	return BatchOptions{Priority: priority, Budget: budget}, true
}

// writeAdmitError answers a refused admission the same way on every
// write endpoint, through writeError's statuses. A bad spec is pointed
// at by badSpec when the endpoint can name it (an NDJSON line, a
// design point); a shed or a spent budget carries a Retry-After from
// the queue drain, and an open breaker the breaker's own.
func (s *Service) writeAdmitError(w http.ResponseWriter, err error, pr Priority, badSpec func(*BatchSpecError) ParamError) {
	var bse *BatchSpecError
	var open *breakerRefusal
	switch {
	case errors.As(err, &bse) && badSpec != nil:
		writeJSON(w, http.StatusBadRequest, badSpec(bse))
		return
	case errors.As(err, &bse):
		err = httpError{http.StatusBadRequest, bse.Err.Error()}
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrBudgetExhausted):
		setRetryAfter(w, s.retryAfter(pr))
	case errors.As(err, &open):
		setRetryAfter(w, s.breakers.Get(open.machine).RetryAfter())
	}
	writeError(w, err)
}

// retryAfter estimates how long a shed client should back off: the
// work queued ahead of its priority class drained at the pool's recent
// executed-job p50 latency per worker, floored at one second so the
// header is always actionable. Interactive clients wait only behind
// the interactive queue (they jump batch); batch clients wait behind
// both. Two deliberate choices for the overload path this runs on: the
// p50 comes from the executed-job window (µs-scale cache hits must not
// collapse the drain estimate exactly when the queue is full of real
// simulator work), and it is a cached atomic read refreshed at most
// once a second (never a copy-and-sort of the full window per shed
// response).
func (s *Service) retryAfter(pr Priority) time.Duration {
	p50 := s.Metrics().ExecP50().Seconds()
	if p50 <= 0 {
		p50 = 0.1
	}
	workers := s.pool.Workers()
	if workers < 1 {
		workers = 1
	}
	depth := s.pool.QueueDepthFor(PriorityInteractive)
	if pr == PriorityBatch {
		depth += s.pool.QueueDepthFor(PriorityBatch)
	}
	est := time.Duration(float64(depth) * p50 / float64(workers) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	return est
}

// setRetryAfter writes the Retry-After header as integral seconds,
// rounded up.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, httpError{http.StatusBadRequest, "bad job spec: " + err.Error()})
		return
	}
	timeoutParam := r.URL.Query().Get("timeout")
	reqTimeout, err := resilience.ParseTimeout(timeoutParam, maxRequestTimeout)
	if err != nil {
		// Structured like every other rejected parameter: the offending
		// value and the accepted shape as machine-readable fields.
		writeJSON(w, http.StatusBadRequest, ParamError{
			Error:     err.Error(),
			Parameter: "timeout",
			Value:     timeoutParam,
			Want:      []string{"a Go duration, e.g. 30s or 2m, at most " + maxRequestTimeout.String()},
		})
		return
	}
	opts, ok := admissionParams(w, r)
	if !ok {
		return
	}
	// Without a deadline budget the wait timeout doubles as one — a
	// client waiting 30s has no use for an answer admitted later — plus
	// a grace second so the budget can never beat the wait itself to
	// the deadline: the client's expiry must surface as the wait's 504,
	// not as a job the budget clamp killed first.
	if opts.Budget <= 0 && reqTimeout > 0 {
		opts.Budget = reqTimeout + time.Second
	}
	tierParam := r.URL.Query().Get("tier")
	tier, err := ParseTier(tierParam)
	if err != nil {
		// A structured body, not just a message: clients selecting a tier
		// programmatically get the offending parameter and the accepted
		// values as fields.
		writeJSON(w, http.StatusBadRequest, ParamError{
			Error:     err.Error(),
			Parameter: "tier",
			Value:     tierParam,
			Want:      []string{string(TierAuto), string(TierEstimate), string(TierSimulate)},
		})
		return
	}
	// Resolve ?tier=auto exactly once, here: the brownout controller may
	// flip at any instant, and a response assembled from two resolutions
	// could mix a simulated status with an estimated result.
	tier, degraded := s.ResolveTier(tier)
	if tier == TierEstimate {
		// The estimate tier is synchronous and microsecond-cheap: no pool
		// admission, no journal append, no job registration — the answer
		// is complete before the response is written, so ?wait= and
		// Idempotency-Key have nothing to do.
		job, err := s.Estimate(spec)
		if err != nil {
			writeError(w, httpError{http.StatusBadRequest, err.Error()})
			return
		}
		if degraded {
			// The client asked ?tier=auto for a simulation and got the
			// analytic bound: flag it in the body and the header so no
			// degraded answer is ever mistaken for a simulated one.
			job.Degraded = true
			w.Header().Set("X-Degraded", "brownout")
			s.Metrics().brownoutJobs.Inc()
		}
		writeJSON(w, http.StatusOK, job)
		return
	}

	job, replayed, err := s.Admit(spec, r.Header.Get("Idempotency-Key"), opts)
	if replayed {
		// The key (or, on a durable service, the spec hash) is already
		// bound to a job — typically a client retrying after a crash or
		// timeout. Serve the original instead of duplicate work.
		w.Header().Set("Idempotency-Replayed", "true")
	}
	if err != nil {
		s.writeAdmitError(w, err, opts.Priority, nil)
		return
	}
	if wantWait(r) {
		waitFor := reqTimeout
		if opts.Budget > 0 && (waitFor <= 0 || opts.Budget < waitFor) {
			waitFor = opts.Budget
		}
		ctx, cancel := resilience.WithTimeout(r.Context(), waitFor)
		defer cancel()
		final, werr := s.Wait(ctx, job.ID)
		if werr != nil {
			writeError(w, werr)
			return
		}
		writeJSON(w, http.StatusOK, final)
		return
	}
	// job is the snapshot at admission: terminal only when admission
	// answered it (a memo hit, or a replayed key's finished job), never
	// because a worker happened to finish it before this line.
	status := http.StatusAccepted
	if job.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, job)
}

func wantWait(r *http.Request) bool {
	v := strings.ToLower(r.URL.Query().Get("wait"))
	return v == "1" || v == "true" || v == "yes"
}

// JobListPage is the GET /v1/jobs response: one page of jobs in
// submission order plus the cursor for the next page.
type JobListPage struct {
	Jobs  []Job `json:"jobs"`
	Count int   `json:"count"`
	Total int   `json:"total"`
	// NextAfter, when present, is the ?after= cursor for the next
	// page; absent on the last page.
	NextAfter string `json:"next_after,omitempty"`
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := DefaultPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, httpError{http.StatusBadRequest, fmt.Sprintf("bad limit %q: want a positive integer", v)})
			return
		}
		if n > MaxPageLimit {
			n = MaxPageLimit
		}
		limit = n
	}
	jobs, next, total, err := s.JobsPage(q.Get("after"), limit)
	if err != nil {
		writeError(w, httpError{http.StatusBadRequest, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, JobListPage{Jobs: jobs, Count: len(jobs), Total: total, NextAfter: next})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		if s.wasEvicted(id) {
			writeError(w, httpError{http.StatusGone, fmt.Sprintf("job %q evicted from registry", id)})
			return
		}
		writeError(w, httpError{http.StatusNotFound, fmt.Sprintf("unknown job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Service) handleTable3(w http.ResponseWriter, r *http.Request) {
	td, err := s.Table3(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	if strings.EqualFold(r.URL.Query().Get("format"), "text") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := report.Table(w, td.Title, td.Headers, td.Rows); err != nil {
			writeError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, td)
}

// handleRoofline serves the predicted-cycles grid. ?sim=0 (or false/no)
// answers model-only without touching the pool; the default also runs
// every simulatable cell (memoized) and annotates model error.
func (s *Service) handleRoofline(w http.ResponseWriter, r *http.Request) {
	simulate := true
	simParam := r.URL.Query().Get("sim")
	switch strings.ToLower(simParam) {
	case "", "1", "true", "yes":
	case "0", "false", "no":
		simulate = false
	default:
		writeJSON(w, http.StatusBadRequest, ParamError{
			Error:     fmt.Sprintf("svc: bad sim value %q", simParam),
			Parameter: "sim",
			Value:     simParam,
			Want:      []string{"0", "1", "false", "true", "no", "yes"},
		})
		return
	}
	rd, err := s.Roofline(r.Context(), simulate)
	if err != nil {
		writeError(w, err)
		return
	}
	if strings.EqualFold(r.URL.Query().Get("format"), "text") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := report.RenderRoofline(w, rd.Title, rd.Cells); err != nil {
			writeError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, rd)
}

// TraceResponse is the GET /v1/jobs/{id}/trace payload.
type TraceResponse struct {
	ID     string      `json:"id"`
	State  State       `json:"state"`
	Events []obs.Event `json:"events"`
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, state, ok := s.JobTrace(id)
	if !ok {
		if s.wasEvicted(id) {
			writeError(w, httpError{http.StatusGone, fmt.Sprintf("job %q evicted from registry", id)})
			return
		}
		writeError(w, httpError{http.StatusNotFound, fmt.Sprintf("unknown job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{ID: id, State: state, Events: events})
}

// Health is the /healthz payload: admission and breaker visibility for
// load balancers and chaos drivers.
type Health struct {
	Status   string `json:"status"` // "ok" or "degraded"
	Degraded bool   `json:"degraded"`
	Workers  int    `json:"workers"`
	// QueueDepth/QueueCap expose admission headroom; shedding begins
	// when depth reaches cap.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Breakers maps machine name -> circuit state for every backend
	// exercised so far.
	Breakers map[string]resilience.BreakerState `json:"breakers,omitempty"`
	// Brownout reports the ?tier=auto admission controller: whether it
	// is currently serving degraded (estimate-tier) answers, and how
	// often it has flipped. Informational — a browned-out service is
	// still answering, so brownout alone does not degrade /healthz.
	Brownout resilience.BrownoutStats `json:"brownout"`
	// Faults reports fired fault-injection counts when chaos is armed.
	Faults map[string]uint64 `json:"faults_fired,omitempty"`
	// ConfigHash identifies the hardware config-set this process was
	// started with (machines.ConfigSet.Hash of the -config file, or the
	// paper-default hash). The cluster gateway compares it across shards:
	// two shards answering the same spec hash with different hardware
	// would silently disagree on cycles.
	ConfigHash string `json:"config_hash,omitempty"`
	// Journal reports the durability state when the service journals
	// (nil otherwise): append lag, last-fsync age, truncated-frame
	// counts, and what startup replay restored.
	Journal *JournalHealth `json:"journal,omitempty"`
	Time    string         `json:"time"`
}

// JournalHealth is the /healthz durability section.
type JournalHealth struct {
	journal.Stats
	// AppendErrors counts lifecycle transitions the journal failed to
	// persist; non-zero degrades the service.
	AppendErrors uint64      `json:"append_errors"`
	Replay       ReplayStats `json:"replay"`
}

// Healthz assembles the health snapshot: degraded when the queue is at
// least 80% full or any breaker is not closed.
func (s *Service) Healthz() Health {
	h := Health{
		Status:     "ok",
		Workers:    s.pool.Workers(),
		QueueDepth: s.pool.QueueDepth(),
		QueueCap:   s.pool.QueueCap(),
		Breakers:   s.breakers.States(),
		Faults:     s.pool.Faults().Snapshot(),
		ConfigHash: s.configHash,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	// Feed the brownout controller from the health probe too: a service
	// receiving only ?tier=simulate traffic still keeps the controller's
	// view (and the brownout gauge) current.
	s.Metrics().brownoutOn.Store(s.brownout.Observe(s.brownoutInputs()))
	h.Brownout = s.brownout.Stats()
	if s.journal != nil {
		h.Journal = &JournalHealth{
			Stats:        s.journal.Stats(),
			AppendErrors: s.Metrics().journalErrs.Value(),
			Replay:       s.ReplayStats(),
		}
		if h.Journal.AppendErrors > 0 {
			h.Degraded = true
		}
	}
	if h.QueueCap > 0 && h.QueueDepth*5 >= h.QueueCap*4 {
		h.Degraded = true
	}
	for _, st := range h.Breakers {
		if st != resilience.Closed {
			h.Degraded = true
		}
	}
	if h.Degraded {
		h.Status = "degraded"
	}
	return h
}

// handleHealthz answers 200 when healthy and 503 when degraded — the
// same JSON body either way — so load balancers acting on the status
// code alone pull a degraded replica out of rotation.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Healthz()
	status := http.StatusOK
	if h.Degraded {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Readiness is the GET /readyz payload: liveness minus the states
// where new work should go elsewhere. A draining process (SIGTERM
// received, finishing in-flight jobs) and a degraded one are both
// not-ready; only drain leaves /healthz untouched, which is the point
// of the split — a gateway stops routing to a draining shard without
// the health prober declaring it dead.
type Readiness struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	Degraded bool `json:"degraded"`
	// Brownout is true while ?tier=auto requests are being answered
	// from the estimate tier. A browned-out shard stays ready — it is
	// answering, just at reduced fidelity — so gateways keep routing to
	// it instead of concentrating load on the remaining shards.
	Brownout bool   `json:"brownout,omitempty"`
	Shard    string `json:"shard,omitempty"`
	// ConfigHash identifies the hardware config-set this process was
	// started with; the gateway's prober records it and refuses to route
	// while ready shards disagree (a split-config cluster would return
	// different cycles for the same job depending on routing).
	ConfigHash string `json:"config_hash,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// Readiness assembles the readiness snapshot.
func (s *Service) Readiness() Readiness {
	rd := Readiness{
		Draining:   s.Draining(),
		Degraded:   s.Healthz().Degraded,
		Brownout:   s.Metrics().brownoutOn.Load(),
		Shard:      s.shardID,
		ConfigHash: s.configHash,
	}
	switch {
	case rd.Draining:
		rd.Reason = "draining"
	case rd.Degraded:
		rd.Reason = "degraded"
	default:
		rd.Ready = true
	}
	return rd
}

// handleReadyz answers 200 when the service should receive new work
// and 503 when it should not (draining or degraded), with the same
// JSON body either way. /healthz keeps its liveness semantics and its
// body unchanged.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := s.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}

// maxReplayBodyBytes bounds POST /v1/replay bodies: a rebalance ships
// a whole registry (up to MaxJobs jobs plus the memo table), far
// bigger than one job spec.
const maxReplayBodyBytes = 64 << 20

// ReplayRequest is the POST /v1/replay body: jobs and memoized
// results recovered from a departed shard's journal (journal.Export +
// RecoverJobs), shipped here by the gateway's rebalance path.
type ReplayRequest struct {
	Jobs []Job                  `json:"jobs,omitempty"`
	Memo map[string]core.Result `json:"memo,omitempty"`
}

// handleReplay folds a rebalance payload into the service via
// IngestJobs. A journal append failure mid-ingest answers 503 with
// the partial stats — the rebalance must be driven again; everything
// that landed dedups on the retry.
func (s *Service) handleReplay(w http.ResponseWriter, r *http.Request) {
	var req ReplayRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReplayBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, httpError{http.StatusBadRequest, "bad replay payload: " + err.Error()})
		return
	}
	st, err := s.IngestJobs(req.Jobs, req.Memo)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": err.Error(),
			"stats": st,
		})
		return
	}
	writeJSON(w, http.StatusOK, st)
}
