// Command simgate runs the cluster gateway: it consistent-hashes job
// submissions across a set of simserved shards and keeps the cluster
// answering through shard failures.
//
// Usage:
//
//	simgate -addr :8090 \
//	    -shards s1=http://127.0.0.1:8081,s2=http://127.0.0.1:8082,s3=http://127.0.0.1:8083 \
//	    -journals s1=/var/lib/sim/s1,s2=/var/lib/sim/s2,s3=/var/lib/sim/s3
//
// Shard membership comes from -shards (static name=url pairs) and/or
// -shardfiles (name=addrfile pairs, each file written by a simserved
// started with -addrfile — handy for ":0" test clusters). At least one
// shard is required.
//
// Routing: POST /v1/jobs hashes the canonical spec onto the ring, so
// the same spec always lands on the same shard and the cluster dedups
// via that shard's memo and idempotency index. The gateway forwards
// the client's Idempotency-Key — or injects the spec hash when the
// client sent none — so retries and reroutes are answered exactly
// once. Shard failure reroutes along the ring; per-shard circuit
// breakers stop hammering a dead backend; idempotent reads hedge to
// the next candidate after -hedge-delay. POST /v1/batch splits a grid
// across the ring cell by cell; POST /v1/dse expands a design-space
// exploration at the gateway, routes each design point by its
// canonical spec hash, and merges the shard streams under one
// gateway-computed Pareto frontier. Jobs and every batch or DSE
// sub-batch go through one routing loop with one rule for what counts
// against a shard: a 5xx, a transport error or a broken stream does;
// a caller that hangs up, or a deadline budget that runs out at the
// gateway or at the shard (its 504), never does.
//
// Config safety: every /readyz probe records the shard's hardware
// config-set hash. While ready shards disagree — say, one restarted
// with a different -config — the write paths refuse with 503 (counted
// as simgate_config_mismatch_total) rather than let the ring decide
// which hardware answers a spec; reads keep flowing.
//
// Deadline budgets: an X-Deadline-Budget header (or, absent one, the
// ?timeout= query) bounds the gateway's whole routing effort on jobs,
// batches and explorations — reroutes, hedges and all. The remaining
// budget is sliced evenly across the attempts left, forwarded to each
// shard as a decremented X-Deadline-Budget, and drives the per-attempt
// request context; all sub-batches of one request share its deadline.
// When it runs out mid-route a job gets 504 and a sub-batch's
// unanswered cells come back as failed lines naming the budget (either
// counted as simgate_budget_exhausted_total) instead of an open-ended
// wait.
// ?tier=, ?priority= and X-Degraded pass through untouched: degrading
// to an analytic estimate is the shard's brownout decision, and the
// gateway never masks the flag. A dead shard's WAL can be
// replayed into its ring successors with POST /v1/rebalance?shard=NAME
// when -journals maps that shard to a directory the gateway can read.
//
// GET /healthz and /readyz report per-shard probe state (503 when no
// shard is ready); GET /metrics serves gateway counters (flat text,
// ?format=prometheus, ?format=json).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sigkern/internal/cluster"
	"sigkern/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	addrFile := flag.String("addrfile", "", "write the bound listen address to this file (useful with -addr :0)")
	shardsSpec := flag.String("shards", "", "static shard membership: name=url,name=url")
	shardFiles := flag.String("shardfiles", "", "shard membership from simserved addrfiles: name=path,name=path")
	shardWait := flag.Duration("shardfile-wait", 10*time.Second, "how long to wait for -shardfiles to be written")
	journals := flag.String("journals", "", "shard journal directories for /v1/rebalance: name=dir,name=dir")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "virtual nodes per shard on the hash ring")
	probeInterval := flag.Duration("probe-interval", cluster.DefaultProbeInterval, "shard health-probe period")
	hedgeDelay := flag.Duration("hedge-delay", cluster.DefaultHedgeDelay, "idempotent reads hedge to the next shard after this long")
	maxHedges := flag.Int("max-hedges", 32, "hedged requests allowed in flight across all reads")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()

	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "simgate: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	if err := run(gateConfig{
		addr: *addr, addrFile: *addrFile,
		shards: *shardsSpec, shardFiles: *shardFiles, shardWait: *shardWait,
		journals: *journals, replicas: *replicas,
		probeInterval: *probeInterval, hedgeDelay: *hedgeDelay, maxHedges: *maxHedges,
		drain: *drain, logFormat: *logFormat,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "simgate: %v\n", err)
		os.Exit(1)
	}
}

type gateConfig struct {
	addr, addrFile string
	shards         string
	shardFiles     string
	shardWait      time.Duration
	journals       string
	replicas       int
	probeInterval  time.Duration
	hedgeDelay     time.Duration
	maxHedges      int
	drain          time.Duration
	logFormat      string
}

// membership merges -shards and -shardfiles into one shard set,
// refusing a name defined by both.
func membership(cfg gateConfig) ([]cluster.Shard, error) {
	shards, err := cluster.ParseShards(cfg.shards)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		seen[s.Name] = true
	}
	if cfg.shardFiles != "" {
		files, err := cluster.ParseKVSpec(cfg.shardFiles)
		if err != nil {
			return nil, err
		}
		for name := range files {
			if seen[name] {
				return nil, fmt.Errorf("shard %q defined by both -shards and -shardfiles", name)
			}
		}
		resolved, err := cluster.ResolveAddrFiles(files, cfg.shardWait)
		if err != nil {
			return nil, err
		}
		shards = append(shards, resolved...)
	}
	if len(shards) == 0 {
		return nil, errors.New("no shards: pass -shards and/or -shardfiles")
	}
	return shards, nil
}

func run(cfg gateConfig) error {
	logger := obs.NewLogger(os.Stderr, cfg.logFormat)
	shards, err := membership(cfg)
	if err != nil {
		return err
	}
	journalDirs, err := cluster.ParseKVSpec(cfg.journals)
	if err != nil {
		return err
	}
	for name := range journalDirs {
		known := false
		for _, s := range shards {
			if s.Name == name {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("-journals names unknown shard %q", name)
		}
	}

	gw, err := cluster.NewGateway(cluster.Options{
		Shards:        shards,
		Replicas:      cfg.replicas,
		ProbeInterval: cfg.probeInterval,
		HedgeDelay:    cfg.hedgeDelay,
		MaxHedges:     cfg.maxHedges,
		JournalDirs:   journalDirs,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	gw.Start()
	defer gw.Close()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("addrfile: %w", err)
		}
	}
	server := &http.Server{
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		names := make([]string, 0, len(shards))
		for _, s := range shards {
			names = append(names, s.Name+"="+s.URL)
		}
		logger.Info("listening",
			"addr", ln.Addr().String(), "shards", names,
			"replicas", cfg.replicas, "hedge_delay", cfg.hedgeDelay.String())
		if err := server.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain_deadline", cfg.drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-errc
}
