package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"sigkern/internal/core"
	"sigkern/internal/journal"
	"sigkern/internal/svc"
)

// RebalanceResult describes one completed WAL rebalance: what was
// recovered from the departed shard's journal and what each successor
// ingested.
type RebalanceResult struct {
	Shard string `json:"shard"`
	// Jobs/Results recovered from the exported log; Shipped is the
	// total records (jobs + memo entries) posted to successors.
	Jobs    int             `json:"jobs"`
	Results int             `json:"results"`
	Shipped int             `json:"shipped"`
	Replay  svc.ReplayStats `json:"replay"`
	// Targets maps successor shard -> what it ingested.
	Targets map[string]svc.IngestStats `json:"targets"`
}

// successorFor returns the first shard of routeOrder(key) that is not
// the departed shard and is alive: ready first, since routeOrder puts
// ready shards ahead. Per-key routing on purpose: a rerouted client
// resubmitting the same spec lands on the same successor the rebalance
// ships the original job to, so the idempotency key meets its job.
func (g *Gateway) successorFor(key, departed string) string {
	for _, name := range g.routeOrder(key) {
		if name != departed && g.prober.Alive(name) {
			return name
		}
	}
	return ""
}

// Rebalance exports the departed shard's journal (read-only — the
// shard may restart and replay its own log later) and replays the
// recovered jobs and memoized results into the hash-ring successors,
// each key to the shard that now owns it. Every job keeps its ID,
// idempotency key, and byte-identical result; successors journal the
// ingest to their own WAL before acknowledging, so the handoff
// survives a second crash.
func (g *Gateway) Rebalance(departed string) (*RebalanceResult, error) {
	dir := g.journals[departed]
	if dir == "" {
		return nil, fmt.Errorf("cluster: no journal directory configured for shard %q", departed)
	}
	rec, err := journal.Export(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: exporting %s journal: %w", departed, err)
	}
	jobs, memo, stats := svc.RecoverJobs(rec)
	res := &RebalanceResult{
		Shard:   departed,
		Jobs:    len(jobs),
		Results: len(memo),
		Replay:  stats,
		Targets: make(map[string]svc.IngestStats),
	}

	jobsByTarget := make(map[string][]svc.Job)
	for _, j := range jobs {
		key := j.Hash
		if key == "" {
			key = j.ID
		}
		target := g.successorFor(key, departed)
		if target == "" {
			return res, fmt.Errorf("cluster: no live successor for job %s", j.ID)
		}
		jobsByTarget[target] = append(jobsByTarget[target], j)
	}
	memoByTarget := make(map[string]map[string]core.Result)
	for hash, r := range memo {
		target := g.successorFor(hash, departed)
		if target == "" {
			return res, fmt.Errorf("cluster: no live successor for result %s", hash[:8])
		}
		if memoByTarget[target] == nil {
			memoByTarget[target] = make(map[string]core.Result)
		}
		memoByTarget[target][hash] = r
	}

	targets := make(map[string]bool)
	for t := range jobsByTarget {
		targets[t] = true
	}
	for t := range memoByTarget {
		targets[t] = true
	}
	names := make([]string, 0, len(targets))
	for t := range targets {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, target := range names {
		payload, err := json.Marshal(svc.ReplayRequest{
			Jobs: jobsByTarget[target],
			Memo: memoByTarget[target],
		})
		if err != nil {
			return res, fmt.Errorf("cluster: marshal replay for %s: %w", target, err)
		}
		st, err := g.postReplay(target, payload)
		if err != nil {
			return res, fmt.Errorf("cluster: replay into %s: %w", target, err)
		}
		res.Targets[target] = st
		res.Shipped += len(jobsByTarget[target]) + len(memoByTarget[target])
	}
	g.metrics.rebalances.Inc()
	g.metrics.rebalanceRecords.Add(uint64(res.Shipped))
	return res, nil
}

func (g *Gateway) postReplay(target string, payload []byte) (svc.IngestStats, error) {
	ctx := context.TODO()
	resp, err := g.send(ctx, target, http.MethodPost, "/v1/replay", payload, http.Header{"Content-Type": {"application/json"}})
	if err != nil {
		g.shardFault(ctx, target, err)
		return svc.IngestStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return svc.IngestStats{}, fmt.Errorf("replay status %d", resp.StatusCode)
	}
	var st svc.IngestStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return svc.IngestStats{}, err
	}
	return st, nil
}

// handleRebalance drives Rebalance over HTTP: POST
// /v1/rebalance?shard=NAME. A shard that still answers probes is
// refused with 409 — a live shard replays its own WAL on restart, and
// exporting under its feet would fork its history — unless ?force=1.
func (g *Gateway) handleRebalance(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("shard")
	if name == "" {
		writeGatewayError(w, http.StatusBadRequest, "missing shard parameter")
		return
	}
	if _, ok := g.shards[name]; !ok {
		writeGatewayError(w, http.StatusNotFound, fmt.Sprintf("unknown shard %q", name))
		return
	}
	force := r.URL.Query().Get("force") == "1"
	// Probe right now rather than trusting the last sweep: the operator
	// is asserting this shard is dead, so check.
	g.prober.Sweep()
	if g.prober.Alive(name) && !force {
		writeGatewayError(w, http.StatusConflict,
			fmt.Sprintf("shard %q still answers probes; it will replay its own journal on restart (use force=1 to rebalance anyway)", name))
		return
	}
	res, err := g.Rebalance(name)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "partial": res})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
}
