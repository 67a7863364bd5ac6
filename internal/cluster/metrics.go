package cluster

import (
	"sort"

	"sigkern/internal/obs"
)

// Metrics is the gateway's own registry: request routing and failover
// counters plus per-shard health gauges read from the prober at scrape
// time. Names are prefixed simgate_ so a shared Prometheus scrape never
// collides with the shards' simserved_ families.
type Metrics struct {
	reg    *obs.Registry
	prober *Prober

	proxied, reroutes, hedges, hedgeWins, upstreamErrors *obs.Counter
	breakerRejected, budgetExhausted, configMismatch     *obs.Counter
	rebalances, rebalanceRecords                         *obs.Counter
}

func newMetrics(p *Prober) *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{
		reg:             r,
		prober:          p,
		proxied:         r.NewCounter("simgate_requests_total", "Requests proxied to shards."),
		reroutes:        r.NewCounter("simgate_reroutes_total", "Jobs and sub-batches served off the key's ring owner."),
		hedges:          r.NewCounter("simgate_hedges_total", "Hedged requests fired for idempotent reads."),
		hedgeWins:       r.NewCounter("simgate_hedge_wins_total", "Hedged requests that answered before the primary."),
		upstreamErrors:  r.NewCounter("simgate_upstream_errors_total", "Transport-level failures talking to shards."),
		breakerRejected: r.NewCounter("simgate_breaker_rejected_total", "Requests skipped past a shard with an open circuit breaker."),
		budgetExhausted: r.NewCounter("simgate_budget_exhausted_total", "Deadline budgets that ran out mid-route: a job's 504, or a sub-batch whose unanswered cells failed naming the budget."),
		configMismatch:  r.NewCounter("simgate_config_mismatch_total", "Writes refused 503 because ready shards reported different hardware config-set hashes."),
		rebalances:      r.NewCounter("simgate_rebalances_total", "WAL rebalances driven to completion."),
		rebalanceRecords: r.NewCounter("simgate_rebalance_records_total",
			"Jobs and memoized results replayed into successors by rebalance."),
	}
	shardGauge := func(name, help string, verdict func(ProbeState) bool) {
		r.Func(name, help, "gauge", func() []obs.Sample {
			states := p.States()
			names := make([]string, 0, len(states))
			for name := range states {
				names = append(names, name)
			}
			sort.Strings(names)
			out := make([]obs.Sample, len(names))
			for i, name := range names {
				out[i] = obs.Sample{Labels: []string{"shard", name}, Value: "0"}
				if verdict(states[name]) {
					out[i].Value = "1"
				}
			}
			return out
		})
	}
	shardGauge("simgate_shard_healthy", "Per-shard probe verdict: 1 alive, 0 unreachable.",
		func(st ProbeState) bool { return st.Alive })
	shardGauge("simgate_shard_ready", "Per-shard readiness: 1 accepting new work, 0 draining/degraded/dead.",
		func(st ProbeState) bool { return st.Ready })
	return m
}

// Snapshot is the JSON form of the gateway metrics.
type Snapshot struct {
	Proxied          uint64          `json:"proxied_total"`
	Reroutes         uint64          `json:"reroutes_total"`
	Hedges           uint64          `json:"hedges_total"`
	HedgeWins        uint64          `json:"hedge_wins_total"`
	UpstreamErrors   uint64          `json:"upstream_errors_total"`
	BreakerRejected  uint64          `json:"breaker_rejected_total"`
	BudgetExhausted  uint64          `json:"budget_exhausted_total"`
	ConfigMismatch   uint64          `json:"config_mismatch_total"`
	Rebalances       uint64          `json:"rebalances_total"`
	RebalanceRecords uint64          `json:"rebalance_records_total"`
	ShardHealthy     map[string]bool `json:"shard_healthy"`
	ShardReady       map[string]bool `json:"shard_ready"`
}

// Snapshot captures every counter and the prober's verdicts.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Proxied:          m.proxied.Value(),
		Reroutes:         m.reroutes.Value(),
		Hedges:           m.hedges.Value(),
		HedgeWins:        m.hedgeWins.Value(),
		UpstreamErrors:   m.upstreamErrors.Value(),
		BreakerRejected:  m.breakerRejected.Value(),
		BudgetExhausted:  m.budgetExhausted.Value(),
		ConfigMismatch:   m.configMismatch.Value(),
		Rebalances:       m.rebalances.Value(),
		RebalanceRecords: m.rebalanceRecords.Value(),
		ShardHealthy:     make(map[string]bool),
		ShardReady:       make(map[string]bool),
	}
	for name, st := range m.prober.States() {
		s.ShardHealthy[name] = st.Alive
		s.ShardReady[name] = st.Ready
	}
	return s
}
