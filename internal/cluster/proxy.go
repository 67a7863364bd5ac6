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
		breakers: resilience.NewBreakerSet(resilience.BreakerConfig{}),
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
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", g.handleJobGet)
	mux.HandleFunc("GET /v1/jobs", g.forwardAnyReady)
	mux.HandleFunc("GET /v1/tables/3", g.forwardAnyReady)
	mux.HandleFunc("GET /v1/roofline", g.forwardAnyReady)
	mux.HandleFunc("POST /v1/rebalance", g.handleRebalance)
	mux.HandleFunc("GET /metrics", g.metrics.reg.Handler(func() any { return g.metrics.Snapshot() }))
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /readyz", g.handleHealth)
	return obs.Instrument(g.logger, mux)
}

// bufferedResponse is one upstream answer, fully read so it can be
// compared against other attempts before anything is written back.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

// send makes one request to one shard, forwarding the request headers
// a shard reads. The caller owns the response body.
func (g *Gateway) send(ctx context.Context, shard, method, pathAndQuery string, body []byte, hdr http.Header) (*http.Response, error) {
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
	return g.client.Do(req)
}

// do proxies one request to one shard and buffers the answer.
func (g *Gateway) do(ctx context.Context, shard, method, pathAndQuery string, body []byte, hdr http.Header) (*bufferedResponse, error) {
	resp, err := g.send(ctx, shard, method, pathAndQuery, body, hdr)
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

// handleSubmit routes a job by its canonical spec hash through route,
// buffering each attempt's answer. The Idempotency-Key — the client's,
// or the spec hash — goes with every attempt, so a shard that journaled
// the job from an earlier attempt (timed out but delivered, or 5xx
// after accepting) answers with the original: every rerouted job is
// answered exactly once. A 429 passes through with the shard's own
// Retry-After: overload is backpressure to honor, and rerouting it
// would melt the next shard too. With no answer below 500 the client
// gets the last 5xx, or 502, or 504 once the budget ran out, with the
// largest Retry-After seen.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !g.guardConfigConsensus(w) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, svc.MaxBodyBytes))
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
	b, err := submitBudget(r)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, err.Error())
		return
	}

	g.metrics.proxied.Inc()
	path := r.URL.RequestURI()
	seenRetryAfter := 0
	var last *bufferedResponse
	lastShard := ""
	breakerRetryAfter, err := g.route(r.Context(), hash, b, hdr, func(ctx context.Context, shard string, hdr http.Header) (int, error) {
		resp, err := g.do(ctx, shard, http.MethodPost, path, body, hdr)
		if err != nil {
			return 0, err
		}
		seenRetryAfter = max(seenRetryAfter, retryAfterSeconds(resp.header))
		last, lastShard = resp, shard
		return resp.status, nil
	})
	retryAfter := max(seenRetryAfter, breakerRetryAfter)
	exhausted := errors.Is(err, errBudgetExhausted)
	switch {
	case err == nil:
		writeBuffered(w, last, lastShard, 0)
	case last != nil && !exhausted:
		writeBuffered(w, last, lastShard, retryAfter)
	default:
		status := http.StatusBadGateway
		if exhausted {
			status = http.StatusGatewayTimeout
		}
		if retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		}
		writeGatewayError(w, status, "cluster: "+err.Error()+" routing job")
	}
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
// successor, not the shard its ID names. A failed read moves on only
// when it was the shard's fault (shardFault).
func (g *Gateway) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	candidates := g.jobCandidates(id)
	path := r.URL.RequestURI()
	g.metrics.proxied.Inc()
	b, err := submitBudget(r)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, err.Error())
		return
	}

	type read struct {
		shard  string
		hedged bool
		resp   *bufferedResponse
		err    error
	}
	results := make(chan read, len(candidates))
	ctx, cancel := context.WithCancel(r.Context())
	if !b.deadline.IsZero() {
		// The whole candidate walk — hedges included — shares the one
		// deadline budget.
		ctx, cancel = context.WithDeadline(r.Context(), b.deadline)
	}
	defer cancel()
	launched, pending := 0, 0
	// fire reads from the next candidate; a hedged read holds a hedgeSem
	// slot, which it releases when it ends.
	fire := func(hedged bool) {
		shard := candidates[launched]
		launched++
		pending++
		go func() {
			if hedged {
				defer func() { <-g.hedgeSem }()
			}
			resp, err := g.do(ctx, shard, http.MethodGet, path, nil, r.Header)
			results <- read{shard: shard, hedged: hedged, resp: resp, err: err}
		}()
	}

	fire(false)
	var miss *bufferedResponse
	missShard := ""
	timer := time.NewTimer(g.hedgeDelay)
	defer timer.Stop()
	for pending > 0 {
		select {
		case a := <-results:
			pending--
			if a.err != nil {
				if g.shardFault(ctx, a.shard, a.err) && launched < len(candidates) {
					fire(false)
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
				fire(false)
			}
		case <-timer.C:
			// The primary is slow, not failed: hedge to the next
			// candidate if the global hedge budget allows.
			if launched < len(candidates) {
				select {
				case g.hedgeSem <- struct{}{}:
					g.metrics.hedges.Inc()
					fire(true)
				default:
					// No hedge slot: wait for the primary.
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
			fmt.Sprintf("cluster: deadline budget %s exhausted reading job %q", b.d, id))
		return
	}
	writeGatewayError(w, http.StatusBadGateway, fmt.Sprintf("cluster: no shard could answer for job %q", id))
}

// forwardAnyReady proxies a read to the shards in byHealth order,
// trying the next when a call fails by the shard's fault.
func (g *Gateway) forwardAnyReady(w http.ResponseWriter, r *http.Request) {
	g.metrics.proxied.Inc()
	path := r.URL.RequestURI()
	for _, name := range g.byHealth(g.ring.Shards()) {
		resp, err := g.do(r.Context(), name, http.MethodGet, path, nil, r.Header)
		if err == nil {
			writeBuffered(w, resp, name, 0)
			return
		}
		if !g.shardFault(r.Context(), name, err) {
			return // the caller left
		}
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
