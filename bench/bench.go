package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sigkern/internal/cluster"
	"sigkern/internal/svc"
)

// bench is one benchmark run: one workload, one seed, traced or not.
type bench struct {
	spec     *benchmarkSpec
	workload string
	runDir   string
	seed     int64
	seconds  time.Duration
	traced   bool
	smoke    bool

	procs *procSet
	check *checker
	paper []paperCell
	// spans holds a trace run's spans: the traced quarters of the timed
	// phase and the in-process ledger. Nil in an untraced run.
	spans *tracer
	reqs  atomic.Int64

	metrics map[string]float64
	details map[string]string
	notes   []string
	// tracedP50 is the traced quarters' latency_p50_ms, which the ledger
	// attributes to layers.
	tracedP50 float64
}

// phaseResult is what one timed phase of a workload measured.
type phaseResult struct {
	// latency is the workload's primary latency in ms: the grid request
	// up to its 15th cell (paper-grid), each batch cell and design point
	// from its request's send to its result line (sweep and
	// cluster-mixed), or the interactive request timed from its due time
	// at the reference rate (interactive).
	latency sample
	cells   int // simulated cells (and design points) answered done
	wall    time.Duration
	late    sample // ms the generator sent requests behind schedule
	drops   int    // open-loop requests dropped under the late rule
	// Deployments made and torn down inside the phase (paper-grid): their
	// set-up times, their live heaps, and in a traced phase their
	// metrics, read before shutdown.
	setups []time.Duration
	heap   sample // MB
	live   []svc.Snapshot
	notes  []string
}

// plus returns the measurements of r and o as one phase.
func (r phaseResult) plus(o phaseResult) phaseResult {
	return phaseResult{
		latency: append(append(sample(nil), r.latency...), o.latency...),
		cells:   r.cells + o.cells,
		wall:    r.wall + o.wall,
		late:    append(append(sample(nil), r.late...), o.late...),
		drops:   r.drops + o.drops,
		setups:  append(append([]time.Duration(nil), r.setups...), o.setups...),
		heap:    append(append(sample(nil), r.heap...), o.heap...),
		live:    append(append([]svc.Snapshot(nil), r.live...), o.live...),
		notes:   append(append([]string(nil), r.notes...), o.notes...),
	}
}

// workloadDef is how one workload deploys servers and runs its timed
// phase.
type workloadDef struct {
	// topo is the deployment the whole run shares; nil when the phase
	// deploys its own servers.
	topo    *topology
	prepare func(ctx context.Context, s *servers) error
	phase   func(ctx context.Context, s *servers, dur time.Duration, tr *tracer) (phaseResult, error)
	// throughput selects the headline metric for the trace overhead:
	// cells_per_s when true, latency_p50_ms otherwise.
	throughput bool
	// hitRatio is the memo hit ratio the generator implies, printed
	// beside the measured one as a sanity check; negative means none.
	hitRatio float64
}

// setupCycles is how many deployments a run with a shared deployment
// times for setup_s: a process start takes a few milliseconds and
// jitters by a third from one start to the next, so the median needs
// several.
func (b *bench) setupCycles() int {
	if b.smoke {
		return 1
	}
	return 9
}

// set records a metric, with a detail shown beside it in the report.
func (b *bench) set(name string, v float64, detail string) {
	b.metrics[name] = v
	if detail != "" {
		b.details[name] = detail
	}
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) nextReq() int { return int(b.reqs.Add(1)) }

// execute runs the workload: set-up cycles, the timed phase (four
// quarters in a trace run, the middle two traced), the in-process re-run
// of sampled cold cells, and in a trace run the per-layer ledger.
func (b *bench) execute(ctx context.Context) error {
	def, err := b.definition()
	if err != nil {
		return err
	}
	var s *servers
	var setups []time.Duration
	if def.topo != nil {
		s, setups, err = b.deployCycles(*def.topo, b.setupCycles())
		if err != nil {
			return err
		}
		defer func() { b.teardownQuiet(s) }()
	}
	if def.prepare != nil {
		if err := def.prepare(ctx, s); err != nil {
			return err
		}
	}

	if !b.traced {
		r, err := def.phase(ctx, s, b.seconds, nil)
		if err != nil {
			return err
		}
		if s != nil {
			heap, err := b.liveHeapMB(s)
			if err != nil {
				return err
			}
			r.heap = append(r.heap, heap)
			if err := b.teardown(s); err != nil {
				return err
			}
			s = nil
		}
		b.endToEnd(r, append(setups, r.setups...))
	} else {
		// Quarters in the order untraced, traced, traced, untraced: the
		// servers' state grows over a run (memo, journal, heap), and this
		// order cancels a steady drift out of the tracing overhead.
		q := b.seconds / 4
		u1, err := def.phase(ctx, s, q, nil)
		if err != nil {
			return err
		}
		before, err := b.scrape(s)
		if err != nil {
			return err
		}
		t1, err := def.phase(ctx, s, q, b.spans)
		if err != nil {
			return err
		}
		t2, err := def.phase(ctx, s, q, b.spans)
		if err != nil {
			return err
		}
		after, err := b.scrape(s)
		if err != nil {
			return err
		}
		u2, err := def.phase(ctx, s, q, nil)
		if err != nil {
			return err
		}
		if s != nil {
			if err := b.teardown(s); err != nil {
				return err
			}
			s = nil
		}
		t := t1.plus(t2)
		b.traceOverhead(def, u1.plus(u2), t)
		b.liveLayer(def, before, after, t.live)
	}

	n := b.check.rerunSample()
	b.notef("re-ran %d sampled cold cells in-process on fresh machines", n)
	if b.traced {
		return b.ledger(ctx)
	}
	return nil
}

// endToEnd sets the end-to-end metrics from an untraced phase.
func (b *bench) endToEnd(r phaseResult, setups []time.Duration) {
	secs := make(sample, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	b.set("setup_s", secs.median(), fmt.Sprintf("median of %d deployments", len(secs)))
	b.set("latency_p50_ms", r.latency.median(), latencyLine(r.latency))
	b.set("cells_per_s", float64(r.cells)/r.wall.Seconds(), fmt.Sprintf("%d cells in %.2f s", r.cells, r.wall.Seconds()))
	detail := "live heap of the simserved processes after two forced collections at the end"
	if len(r.heap) > 1 {
		detail = fmt.Sprintf("median over %d deployments of their live heap after two forced collections", len(r.heap))
	}
	b.set("heap_mb", r.heap.median(), detail)
	b.notes = append(b.notes, r.notes...)
}

// tailNote renders the tail rule's percentile of a latency sample with
// its sample count.
func tailNote(s sample) string {
	t := s.tailOf()
	return fmt.Sprintf("%.3f ms, %s", t.Value, t)
}

// latencyLine summarizes a latency sample for a report line: its
// median, its 90th percentile and the tail rule's percentile, with the
// sample count.
func latencyLine(s sample) string {
	p90, _ := s.percentile(90)
	return fmt.Sprintf("%d samples, p50 %.2f ms, p90 %.2f ms, tail %s", len(s), s.median(), p90, tailNote(s))
}

// traceOverhead compares the traced quarters with the untraced ones on
// the workload's headline metric, as a cost: positive when tracing made
// it worse.
func (b *bench) traceOverhead(def workloadDef, u, t phaseResult) {
	var ov float64
	var what string
	if def.throughput {
		ov = (float64(u.cells)/u.wall.Seconds())/(float64(t.cells)/t.wall.Seconds()) - 1
		what = "cells_per_s"
	} else {
		ov = t.latency.median()/u.latency.median() - 1
		what = "latency_p50_ms"
	}
	b.set("bench.trace_overhead", ov, "traced vs untraced quarters, "+what)
	lt := t.late.tailOf()
	b.set("bench.gen_late_p99_ms", lt.Value, lt.String())
	b.set("bench.late_drops", float64(t.drops), "")
	b.notes = append(b.notes, t.notes...)
	b.tracedP50 = t.latency.median()
	b.notef("traced quarters: latency_p50_ms %.3f over %d samples, %d cells in %.2f s",
		b.tracedP50, len(t.latency), t.cells, t.wall.Seconds())
}

// liveSnap is the servers' metrics at one instant.
type liveSnap struct {
	svc  []svc.Snapshot
	gate *cluster.Snapshot
}

func (b *bench) scrape(s *servers) (liveSnap, error) {
	var ls liveSnap
	if s == nil {
		return ls, nil
	}
	for _, d := range s.shards {
		snap, err := scrapeService(b.procs.ctl, d.url)
		if err != nil {
			return ls, err
		}
		ls.svc = append(ls.svc, snap)
	}
	if s.gate != nil {
		g, err := scrapeGateway(b.procs.ctl, s.gate.url)
		if err != nil {
			return ls, err
		}
		ls.gate = &g
	}
	return ls, nil
}

// liveLayer sets the per-layer metrics the servers count themselves,
// over the traced quarters: counters as differences, latency quantiles from
// the servers' rolling windows at their end. extra holds deployments torn
// down inside the phase, whose counters started at zero.
func (b *bench) liveLayer(def workloadDef, before, after liveSnap, extra []svc.Snapshot) {
	type pair struct{ from, to svc.Snapshot }
	var pairs []pair
	for i := range after.svc {
		pairs = append(pairs, pair{before.svc[i], after.svc[i]})
	}
	for _, s := range extra {
		pairs = append(pairs, pair{to: s})
	}
	var hits, misses, reuses, builds, shed float64
	var p50, p99, job99 sample
	for _, p := range pairs {
		hits += float64(p.to.CacheHits - p.from.CacheHits)
		misses += float64(p.to.CacheMisses - p.from.CacheMisses)
		reuses += float64(p.to.MachineReuses - p.from.MachineReuses)
		builds += float64(p.to.MachineBuilds - p.from.MachineBuilds)
		shed += float64(p.to.Shed - p.from.Shed)
		if p.to.ExecSamples > 0 {
			p50 = append(p50, p.to.ExecP50Seconds*1e3)
			p99 = append(p99, p.to.ExecP99Seconds*1e3)
		}
		if p.to.Samples > 0 {
			job99 = append(job99, p.to.P99Seconds*1e3)
		}
	}
	per := fmt.Sprintf("mean over %d server(s)", len(p50))
	b.set("svc.pool.exec_p50_ms", p50.mean(), per)
	b.set("svc.pool.exec_p99_ms", p99.mean(), per)
	b.set("svc.pool.job_p99_ms", job99.mean(), per)
	b.set("svc.pool.reuse_ratio", ratio(reuses, reuses+builds), fmt.Sprintf("%.0f reuses, %.0f builds", reuses, builds))
	b.set("svc.pool.shed", shed, "")
	hr := ratio(hits, hits+misses)
	detail := fmt.Sprintf("%.0f hits, %.0f misses", hits, misses)
	if def.hitRatio >= 0 {
		detail += fmt.Sprintf("; the generator implies %.3f", def.hitRatio)
		if math.Abs(hr-def.hitRatio) > 0.1 {
			b.notef("warning: memo hit ratio %.3f is far from the %.3f the generator implies", hr, def.hitRatio)
		}
	}
	b.set("cache.memo.hit_ratio", hr, detail)
	if after.gate != nil {
		b.gatewayCounts(*before.gate, *after.gate, "workload gateway")
	}
}

// gatewayCounts sets the gateway's failure-path counters.
func (b *bench) gatewayCounts(from, to cluster.Snapshot, where string) {
	b.set("cluster.reroutes", float64(to.Reroutes-from.Reroutes), where)
	b.set("cluster.upstream_errors", float64(to.UpstreamErrors-from.UpstreamErrors), where)
	b.set("cluster.hedges", float64(to.Hedges-from.Hedges), where)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// required lists the metrics this run must report: every end-to-end
// metric untraced, every per-layer metric traced.
func (b *bench) required() []metricDef {
	if b.traced {
		return b.spec.PerLayer
	}
	return b.spec.EndToEnd
}

// report renders the metrics as lines, checks that every required
// metric was measured and is a finite number, and returns the result
// object of the final output line.
func (b *bench) report(w io.Writer) (map[string]resultMetric, error) {
	out := make(map[string]resultMetric)
	var missing []string
	for _, m := range b.required() {
		v, ok := b.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = resultMetric{Value: v, Unit: m.Unit}
		line := fmt.Sprintf("%-40s %14.6g %-8s", m.Name, v, m.Unit)
		if d := b.details[m.Name]; d != "" {
			line += "  " + d
		}
		if mv := moves[m.Name]; mv != "" {
			line += "  [" + mv + "]"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range b.notes {
		fmt.Fprintln(w, "# "+n)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// resultMetric is one metric of the final output line.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
