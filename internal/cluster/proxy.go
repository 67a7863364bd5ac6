package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sigkern/internal/obs"
	"sigkern/internal/resilience"
	"sigkern/internal/svc"
)

// DefaultHedgeDelay is how long a read waits on one shard before a
// hedge fires at the next: long enough that the common fast path never
// hedges, short enough to cut a stuck shard out of the tail.
const DefaultHedgeDelay = 30 * time.Millisecond

// maxUpstreamBody bounds buffered upstream responses (the table and
// roofline grids are the largest legitimate bodies).
const maxUpstreamBody = 32 << 20

// Options configures a Gateway.
type Options struct {
	// Shards is the static membership (ParseShards / ResolveAddrFiles).
	Shards []Shard
	// Replicas is the virtual-node count per shard (<= 0 means
	// DefaultReplicas).
	Replicas int
	// ProbeInterval is the health-sweep period (<= 0 means
	// DefaultProbeInterval).
	ProbeInterval time.Duration
	// HedgeDelay is how long an idempotent read waits before hedging to
	// the next shard (<= 0 means DefaultHedgeDelay).
	HedgeDelay time.Duration
	// MaxHedges bounds hedges in flight across all requests (<= 0 means
	// 32): hedging is a tail-latency tool, not a load doubler.
	MaxHedges int
	// JournalDirs maps shard name -> journal directory, enabling the
	// rebalance path for shards whose WAL the gateway can reach.
	JournalDirs map[string]string
	// Breaker configures the per-shard circuit breakers (zero value =
	// resilience defaults).
	Breaker resilience.BreakerConfig
	// Logger receives structured request logs; nil disables them.
	Logger *slog.Logger
}

// Gateway consistent-hashes jobs across simserved shards and survives
// their failures: rerouting to ring successors, breaking circuits on
// repeat offenders, hedging idempotent reads, and rebalancing a dead
// shard's WAL into its successors.
type Gateway struct {
	ring       *Ring
	shards     map[string]Shard
	prober     *Prober
	breakers   *resilience.BreakerSet
	client     *http.Client
	metrics    *Metrics
	hedgeDelay time.Duration
	hedgeSem   chan struct{}
	journals   map[string]string
	logger     *slog.Logger
}

// NewGateway builds a gateway over the shard set. Call Start to begin
// probing and Close to stop.
func NewGateway(opts Options) (*Gateway, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one shard")
	}
	names := make([]string, 0, len(opts.Shards))
	byName := make(map[string]Shard, len(opts.Shards))
	for _, s := range opts.Shards {
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard %q", s.Name)
		}
		byName[s.Name] = s
		names = append(names, s.Name)
	}
	ring, err := NewRing(names, opts.Replicas)
	if err != nil {
		return nil, err
	}
	if opts.HedgeDelay <= 0 {
		opts.HedgeDelay = DefaultHedgeDelay
	}
	if opts.MaxHedges <= 0 {
		opts.MaxHedges = 32
	}
	prober := NewProber(opts.Shards, opts.ProbeInterval)
	g := &Gateway{
		ring:     ring,
		shards:   byName,
		prober:   prober,
		breakers: resilience.NewBreakerSet(opts.Breaker),
		// Proxied requests get a long timeout: simulations are
		// seconds-long under ?wait=1.
		client:     &http.Client{Timeout: 2 * time.Minute},
		metrics:    newMetrics(prober),
		hedgeDelay: opts.HedgeDelay,
		hedgeSem:   make(chan struct{}, opts.MaxHedges),
		journals:   opts.JournalDirs,
		logger:     opts.Logger,
	}
	return g, nil
}

// Start begins active health probing (one synchronous sweep first).
func (g *Gateway) Start() { g.prober.Start() }

// Close stops the probe loop.
func (g *Gateway) Close() { g.prober.Stop() }

// Metrics returns the gateway's metric registry.
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Prober returns the health prober (tests and the rebalance guard).
func (g *Gateway) Prober() *Prober { return g.prober }

// Handler returns the gateway's HTTP API — the shard API plus cluster
// control:
//
//	POST /v1/jobs            route by canonical spec hash; reroute to ring
//	                         successors on shard failure, forwarding the
//	                         Idempotency-Key (defaulted to the spec hash)
//	                         so replays dedup
//	POST /v1/batch           split a batch (NDJSON or grid form) across
//	                         the ring by spec hash: one sub-batch per
//	                         owning shard, streams merged back line by
//	                         line in completion order with client
//	                         indices preserved; a failed sub-batch
//	                         reroutes its unanswered cells to ring
//	                         successors, and cells no shard could run
//	                         come back as failed lines, never dropped
//	POST /v1/dse             a design-space exploration through the batch
//	                         split/merge: the request is expanded at the
//	                         gateway, each design point routed as a cell
//	                         to the shards' /v1/batch by its canonical
//	                         spec hash, and the merged cells written as
//	                         point lines with one gateway-computed Pareto
//	                         frontier in the final summary line
//	GET  /v1/jobs/{id}       routed by the ID's shard prefix and hash
//	GET  /v1/jobs/{id}/trace suffix; hedged across successors
//	GET  /v1/jobs            forwarded to the first ready shard
//	GET  /v1/tables/3        forwarded to the first ready shard
//	GET  /v1/roofline        forwarded to the first ready shard
//	POST /v1/rebalance       ?shard=NAME: replay a dead shard's WAL into
//	                         its ring successors (409 unless it is down,
//	                         ?force=1 overrides)
//	GET  /metrics            gateway metrics (text, ?format=prometheus|json)
//	GET  /healthz            gateway + per-shard probe state (503 when no
//	GET  /readyz             shard is ready)
//
// Write paths (/v1/jobs, /v1/batch, /v1/dse) additionally refuse with
// 503 — counting simgate_config_mismatch_total — while ready shards
// report different hardware config-set hashes: a split-config cluster
// would answer the same spec with different cycle counts depending on
// routing.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	mux.HandleFunc("POST /v1/batch", g.handleBatch)
	mux.HandleFunc("POST /v1/dse", g.handleDSE)
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		g.handleJobGet(w, r, "")
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		g.handleJobGet(w, r, "/trace")
	})
	mux.HandleFunc("GET /v1/jobs", g.forwardAnyReady)
	mux.HandleFunc("GET /v1/tables/3", g.forwardAnyReady)
	mux.HandleFunc("GET /v1/roofline", g.forwardAnyReady)
	mux.HandleFunc("POST /v1/rebalance", g.handleRebalance)
	mux.HandleFunc("GET /metrics", g.metrics.reg.Handler(func() any { return g.metrics.Snapshot() }))
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /readyz", g.handleHealth)
	return obs.Instrument(g.logger, mux)
}

// routeOrder returns the shards to try for a key, owner first: ready
// shards in ring-successor order, then alive-but-not-ready ones (a
// draining shard still answers reads and dedups submits), then — last
// resort, so a fully-failed probe sweep cannot black-hole traffic —
// everything else.
func (g *Gateway) routeOrder(key string) []string {
	succ := g.ring.Successors(key)
	order := make([]string, 0, len(succ))
	for _, name := range succ {
		if g.prober.Ready(name) {
			order = append(order, name)
		}
	}
	for _, name := range succ {
		if !g.prober.Ready(name) && g.prober.Alive(name) {
			order = append(order, name)
		}
	}
	for _, name := range succ {
		if !g.prober.Ready(name) && !g.prober.Alive(name) {
			order = append(order, name)
		}
	}
	return order
}

// bufferedResponse is one upstream answer, fully read so it can be
// compared against other attempts before anything is written back.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

// do proxies one request to one shard and buffers the answer.
func (g *Gateway) do(ctx context.Context, shard, method, pathAndQuery string, body []byte, hdr http.Header) (*bufferedResponse, error) {
	s, ok := g.shards[shard]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown shard %q", shard)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.URL+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"Content-Type", "Idempotency-Key", "X-Request-Id", "X-Deadline-Budget", "Accept"} {
		if v := hdr.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody))
	if err != nil {
		return nil, err
	}
	return &bufferedResponse{status: resp.StatusCode, header: resp.Header.Clone(), body: data}, nil
}

// writeBuffered relays one upstream answer to the client. Shard-set
// response headers (Content-Type, Retry-After, Idempotency-Replayed,
// X-Request-Id, ...) pass through; when overrideRetryAfter > 0 it
// replaces whatever the upstream sent — the largest value seen across
// attempts, never a synthesized zero.
func writeBuffered(w http.ResponseWriter, br *bufferedResponse, shard string, overrideRetryAfter int) {
	for k, vals := range br.header {
		switch k {
		case "Connection", "Transfer-Encoding", "Content-Length":
			continue
		}
		for _, v := range vals {
			w.Header().Add(k, v)
		}
	}
	if overrideRetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(overrideRetryAfter))
	}
	w.Header().Set("X-Simgate-Shard", shard)
	w.WriteHeader(br.status)
	_, _ = w.Write(br.body)
}

// retryAfterSeconds parses a Retry-After header as integral seconds
// (the only form the shards emit); 0 means absent or unparseable.
func retryAfterSeconds(h http.Header) int {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func writeGatewayError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// submitBudget extracts the request's deadline budget: the client's
// X-Deadline-Budget header, or — the common case — the ?timeout= the
// client is already waiting with. Zero means unbounded (the pre-budget
// behavior).
func submitBudget(r *http.Request) (time.Duration, error) {
	v := r.Header.Get("X-Deadline-Budget")
	if v == "" {
		v = r.URL.Query().Get("timeout")
	}
	return resilience.ParseTimeout(v, 0)
}

// handleSubmit routes a job submission by its canonical spec hash and
// reroutes along the hash ring when the owner fails. The
// Idempotency-Key — the client's, or the spec hash when the client
// sent none — is forwarded on every attempt, so a shard that already
// journaled the job from an earlier (timed-out but delivered) attempt
// answers with the original instead of duplicate work: every rerouted
// job is answered exactly once.
//
// The deadline budget (X-Deadline-Budget, defaulted from ?timeout=)
// is spent down across attempts: each shard gets an even slice of
// what remains — its per-attempt context and the decremented budget
// header it sees — and when the budget runs out mid-route the gateway
// answers 504 instead of burning more attempts on a client that has
// already given up.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !g.guardConfigConsensus(w) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var spec svc.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		writeGatewayError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		// Invalid specs are refused here — no shard would accept them,
		// so rerouting through the ring would just triple the error.
		writeGatewayError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash, err := norm.Hash()
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, err.Error())
		return
	}
	hdr := r.Header.Clone()
	if hdr.Get("Idempotency-Key") == "" {
		hdr.Set("Idempotency-Key", hash)
	}
	budget, err := submitBudget(r)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, err.Error())
		return
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}

	g.metrics.proxied.Inc()
	order := g.routeOrder(hash)
	owner := g.ring.Owner(hash)
	path := "/v1/jobs"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	maxRetryAfter := 0
	budgetSpent := false
	var last *bufferedResponse
	lastShard := ""
	for i, name := range order {
		br := g.breakers.Get(name)
		if err := br.Allow(); err != nil {
			g.metrics.breakerRejected.Inc()
			if ra := int(br.RetryAfter().Seconds()) + 1; ra > maxRetryAfter {
				maxRetryAfter = ra
			}
			continue
		}
		// Each attempt gets an even slice of the remaining budget — its
		// own context deadline, and the decremented X-Deadline-Budget the
		// shard sees — so a slow first shard cannot eat the whole budget
		// and leave the reroute a guaranteed failure.
		attemptCtx := r.Context()
		cancel := func() {}
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				budgetSpent = true
				break
			}
			slice := remaining
			if left := len(order) - i; left > 1 {
				slice = remaining / time.Duration(left)
			}
			hdr.Set("X-Deadline-Budget", slice.String())
			attemptCtx, cancel = context.WithTimeout(r.Context(), slice)
		}
		resp, err := g.do(attemptCtx, name, http.MethodPost, path, body, hdr)
		cancel()
		if err != nil {
			g.metrics.upstreamErrors.Inc()
			br.Record(false)
			g.prober.ObserveFailure(name, err)
			continue
		}
		if ra := retryAfterSeconds(resp.header); ra > maxRetryAfter {
			maxRetryAfter = ra
		}
		if resp.status >= 500 {
			// Including 503: an open upstream breaker or failing journal
			// means this shard cannot take the job now — a successor can,
			// and the forwarded Idempotency-Key dedups if the shard in
			// fact accepted before failing.
			br.Record(false)
			last, lastShard = resp, name
			continue
		}
		br.Record(true)
		if name != owner {
			g.metrics.reroutes.Inc()
		}
		// 429 passes through with the shard's own Retry-After: queue
		// saturation is backpressure to honor, not a failure to hide —
		// rerouting overload would melt the next shard too.
		writeBuffered(w, resp, name, 0)
		return
	}
	if !deadline.IsZero() && !budgetSpent && time.Now().After(deadline) {
		// Every attempt slice timed out: the budget died inside do(),
		// not at the top of the loop.
		budgetSpent = true
	}
	if budgetSpent {
		g.metrics.budgetExhausted.Inc()
		if maxRetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(maxRetryAfter))
		}
		writeGatewayError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("cluster: deadline budget %s exhausted routing job", budget))
		return
	}
	if last != nil {
		writeBuffered(w, last, lastShard, maxRetryAfter)
		return
	}
	if maxRetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(maxRetryAfter))
	}
	writeGatewayError(w, http.StatusBadGateway, "cluster: no shard reachable for job")
}

// jobCandidates orders shards for a job-ID read: the ID's shard prefix
// first (the issuer), then ring successors derived from the ID's
// 8-hex-char spec-hash suffix (where a rebalance would have moved it),
// then everything else — filtered to alive shards first. Reads route
// to alive-but-draining shards too: drain means "no new work", not "no
// answers".
func (g *Gateway) jobCandidates(id string) []string {
	var order []string
	seen := make(map[string]bool)
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			order = append(order, name)
		}
	}
	if prefix, _, ok := strings.Cut(id, "-"); ok {
		if _, known := g.shards[prefix]; known {
			add(prefix)
		}
	}
	if i := strings.LastIndex(id, "-"); i >= 0 && len(id)-i-1 == 8 {
		for _, name := range g.ring.Successors(id[i+1:]) {
			add(name)
		}
	}
	for _, name := range g.ring.Shards() {
		add(name)
	}
	alive := make([]string, 0, len(order))
	var dead []string
	for _, name := range order {
		if g.prober.Alive(name) {
			alive = append(alive, name)
		} else {
			dead = append(dead, name)
		}
	}
	return append(alive, dead...)
}

// handleJobGet answers GET /v1/jobs/{id}(/trace) with bounded hedging:
// the primary candidate gets HedgeDelay to answer before the next
// candidate is tried in parallel, and the first definitive answer
// (anything but a 404 miss or a failure) wins. Misses walk the
// candidate list — a rebalanced job lives on the origin's ring
// successor, not the shard its ID names.
func (g *Gateway) handleJobGet(w http.ResponseWriter, r *http.Request, suffix string) {
	id := r.PathValue("id")
	candidates := g.jobCandidates(id)
	path := "/v1/jobs/" + id + suffix
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	g.metrics.proxied.Inc()
	budget, err := submitBudget(r)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, err.Error())
		return
	}

	type attempt struct {
		shard  string
		hedged bool
		resp   *bufferedResponse
		err    error
	}
	results := make(chan attempt, len(candidates))
	ctx, cancel := context.WithCancel(r.Context())
	if budget > 0 {
		// The whole candidate walk — hedges included — shares the one
		// deadline budget.
		ctx, cancel = context.WithTimeout(r.Context(), budget)
	}
	defer cancel()
	fire := func(shard string, hedged bool) {
		go func() {
			resp, err := g.do(ctx, shard, http.MethodGet, path, nil, r.Header)
			results <- attempt{shard: shard, hedged: hedged, resp: resp, err: err}
		}()
	}

	launched := 1
	pending := 1
	fire(candidates[0], false)
	var miss *bufferedResponse
	missShard := ""
	timer := time.NewTimer(g.hedgeDelay)
	defer timer.Stop()
	for pending > 0 {
		select {
		case a := <-results:
			pending--
			if a.err != nil {
				g.metrics.upstreamErrors.Inc()
				g.prober.ObserveFailure(a.shard, a.err)
				if ctx.Err() == nil && launched < len(candidates) {
					fire(candidates[launched], false)
					launched++
					pending++
				}
				continue
			}
			if a.resp.status < 500 && a.resp.status != http.StatusNotFound {
				if a.hedged {
					g.metrics.hedgeWins.Inc()
				}
				writeBuffered(w, a.resp, a.shard, 0)
				return
			}
			if a.resp.status == http.StatusNotFound && miss == nil {
				miss, missShard = a.resp, a.shard
			}
			if launched < len(candidates) {
				fire(candidates[launched], false)
				launched++
				pending++
			}
		case <-timer.C:
			// The primary is slow, not failed: hedge to the next
			// candidate if the global budget allows.
			if launched < len(candidates) {
				select {
				case g.hedgeSem <- struct{}{}:
					g.metrics.hedges.Inc()
					shard := candidates[launched]
					launched++
					pending++
					go func() {
						defer func() { <-g.hedgeSem }()
						resp, err := g.do(ctx, shard, http.MethodGet, path, nil, r.Header)
						results <- attempt{shard: shard, hedged: true, resp: resp, err: err}
					}()
				default:
					// Budget exhausted: wait for the primary.
				}
			}
		}
	}
	if miss != nil {
		writeBuffered(w, miss, missShard, 0)
		return
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		g.metrics.budgetExhausted.Inc()
		writeGatewayError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("cluster: deadline budget %s exhausted reading job %q", budget, id))
		return
	}
	writeGatewayError(w, http.StatusBadGateway, fmt.Sprintf("cluster: no shard could answer for job %q", id))
}

// forwardAnyReady proxies a read to the first shard accepting work
// (falling back to any alive shard), trying the next on failure.
func (g *Gateway) forwardAnyReady(w http.ResponseWriter, r *http.Request) {
	g.metrics.proxied.Inc()
	path := r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	var order []string
	for _, name := range g.ring.Shards() {
		if g.prober.Ready(name) {
			order = append(order, name)
		}
	}
	for _, name := range g.ring.Shards() {
		if !g.prober.Ready(name) && g.prober.Alive(name) {
			order = append(order, name)
		}
	}
	for _, name := range order {
		resp, err := g.do(r.Context(), name, http.MethodGet, path, nil, r.Header)
		if err != nil {
			g.metrics.upstreamErrors.Inc()
			g.prober.ObserveFailure(name, err)
			continue
		}
		writeBuffered(w, resp, name, 0)
		return
	}
	writeGatewayError(w, http.StatusBadGateway, "cluster: no shard reachable")
}

// GatewayHealth is the gateway's /healthz and /readyz payload.
type GatewayHealth struct {
	Status string `json:"status"` // "ok" or "degraded"
	// ReadyShards / AliveShards count the probe verdicts; the gateway
	// itself is unready only when no shard is ready.
	ReadyShards int                   `json:"ready_shards"`
	AliveShards int                   `json:"alive_shards"`
	TotalShards int                   `json:"total_shards"`
	Shards      map[string]ProbeState `json:"shards"`
	// ConfigHash is the hardware config-set hash the ready shards agree
	// on (empty until a probe sweep reports one). ConfigConsensus is
	// false when ready shards disagree — the state in which the write
	// paths answer 503 and simgate_config_mismatch_total counts up.
	ConfigHash      string `json:"config_hash,omitempty"`
	ConfigConsensus bool   `json:"config_consensus"`
	Time            string `json:"time"`
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := GatewayHealth{
		Status:      "ok",
		Shards:      g.prober.States(),
		TotalShards: len(g.shards),
		Time:        time.Now().UTC().Format(time.RFC3339),
	}
	h.ConfigHash, h.ConfigConsensus = g.prober.ConfigConsensus()
	for _, st := range h.Shards {
		if st.Alive {
			h.AliveShards++
		}
		if st.Ready {
			h.ReadyShards++
		}
	}
	status := http.StatusOK
	if h.ReadyShards == 0 || !h.ConfigConsensus {
		h.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}
