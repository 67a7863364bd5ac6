package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/machines"
	"sigkern/internal/svc"
)

// definition returns the workload's deployment and timed phase. Why
// each workload exists is recorded in BENCHMARK.json and
// bench/README.md: each loads a different set of layers and leaves
// others idle, so a change to one layer shows on one workload and must
// show nothing on another.
func (b *bench) definition() (workloadDef, error) {
	switch b.workload {
	case "paper-grid":
		return b.paperGrid(), nil
	case "sweep":
		return b.sweep(), nil
	case "interactive":
		return b.interactive(), nil
	case "cluster-mixed":
		return b.clusterMixed(), nil
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", b.workload)
}

// paperGrid is a researcher regenerating Table 3 cold: each repetition
// starts a fresh daemon, sends the paper grid as one /v1/batch, reads
// the 15 cells, and stops the daemon. Closed loop, one connection.
func (b *bench) paperGrid() workloadDef {
	sampler := newRNG(b.seed, streamPaperSample)
	topo := topology{shards: 1, workers: 2}
	return workloadDef{
		hitRatio: 0,
		phase: func(ctx context.Context, _ *servers, dur time.Duration, tr *tracer) (phaseResult, error) {
			var r phaseResult
			start := time.Now()
			for len(r.setups) == 0 || time.Since(start) < dur {
				s, setup, err := b.deploy(topo)
				if err != nil {
					return r, err
				}
				ready := time.Now()
				r.setups = append(r.setups, setup)
				c := newConn(s.url())
				g, err := b.sendGrid(ctx, c, sampler, tr)
				c.close()
				if err == nil {
					r.cells += g.done
					r.latency = append(r.latency, ms(g.table3))
					r.late = append(r.late, ms(g.sent.Sub(ready)))
				}
				if tr != nil {
					if snap, serr := scrapeService(b.procs.ctl, s.url()); serr == nil {
						r.live = append(r.live, snap)
					}
				} else if heap, herr := b.liveHeapMB(s); herr == nil {
					r.heap = append(r.heap, heap)
				}
				terr := b.teardown(s)
				if ctx.Err() != nil {
					return r, ctx.Err()
				}
				if terr != nil {
					return r, terr
				}
			}
			r.wall = time.Since(start)
			return r, nil
		},
	}
}

// gridAnswer is what one paper-grid request measured.
type gridAnswer struct {
	done   int           // cells answered done
	sent   time.Time     // when the POST went out
	table3 time.Duration // from the POST to the 15th cell line
}

// sendGrid posts the paper grid and checks every cell against the
// reference.
func (b *bench) sendGrid(ctx context.Context, c *conn, sampler *rand.Rand, tr *tracer) (gridAnswer, error) {
	b.check.sent()
	reqID := b.nextReq()
	a := gridAnswer{sent: time.Now()}
	var lines int
	var last time.Time
	var summary *svc.BatchSummary
	var lt lineTimer
	err := c.postStream(ctx, "/v1/batch", "application/json", []byte("{}"), func(line []byte) error {
		t0 := time.Now()
		defer lt.add(t0)
		sum, err := isSummary(line)
		if err != nil {
			return err
		}
		if sum {
			summary = new(svc.BatchSummary)
			return json.Unmarshal(line, summary)
		}
		var br svc.BatchResult
		if err := json.Unmarshal(line, &br); err != nil {
			return err
		}
		if lines++; lines == len(b.paper) {
			last = t0
		}
		if b.check.job(fmt.Sprintf("paper grid cell %d", br.Index), br.Job, nil, sampler.Float64() < sampleRate) {
			a.done++
		}
		return nil
	})
	end := time.Now()
	if err != nil {
		b.check.failure("POST /v1/batch (paper grid)", err)
		return a, err
	}
	if lines != len(b.paper) || summary == nil || summary.Failed != 0 {
		b.check.wrongf("paper grid: %d cell lines (want %d), summary %+v", lines, len(b.paper), summary)
	}
	if last.IsZero() {
		last = end
	}
	a.table3 = last.Sub(a.sent)
	if tr != nil {
		lt.record(tr, "http.batch", a.sent, end, tr.record("paper-grid.request", a.sent, end, 0, reqID), reqID)
	}
	return a, nil
}

// sweep is a design-space user: one journaled daemon, a closed loop on
// one connection alternating 250-cell NDJSON batches and 16-point
// explorations.
func (b *bench) sweep() workloadDef {
	g := newSweepGen(b.seed)
	return workloadDef{
		topo:       &topology{shards: 1, workers: 2, journal: true},
		throughput: true,
		prepare: func(ctx context.Context, s *servers) error {
			if err := b.prefill(ctx, s); err != nil {
				return err
			}
			return b.warmExplorations(ctx, s, g, "")
		},
		// A quarter of batch cells repeat; design points never do.
		hitRatio: float64(batchUnits*5) / 4 / float64(batchUnits*5+dsePoints),
		phase: func(ctx context.Context, s *servers, dur time.Duration, tr *tracer) (phaseResult, error) {
			c := newConn(s.url())
			defer c.close()
			st, err := b.sweepLoop(ctx, c, g, dur, "", tr)
			if err != nil {
				return phaseResult{}, err
			}
			return phaseResult{
				latency: st.cellLat, cells: st.cells, wall: st.wall, late: st.late,
				notes: []string{st.describe("sweep")},
			}, nil
		},
	}
}

// sweepStats is what a closed-loop sweep client measured.
type sweepStats struct {
	batchLat, dseLat sample // ms per request
	// cellLat is, for every cell and design point answered done, the ms
	// from sending its request to receiving its result line: results
	// stream back as they finish, and a 250-cell batch gives a tail
	// percentile hundreds of samples where whole requests give a few.
	cellLat sample
	cells   int
	wall    time.Duration
	late    sample // ms from the previous answer to the next send
}

func (st sweepStats) describe(who string) string {
	return fmt.Sprintf("%s client: %d batches (p50 %.1f ms), %d explorations (p50 %.1f ms), %.1f cells/s",
		who, len(st.batchLat), st.batchLat.median(), len(st.dseLat), st.dseLat.median(),
		float64(st.cells)/st.wall.Seconds())
}

// sweepLoop is the closed loop: send the next request as soon as the
// previous answer is in, until dur has passed (at least one request).
// A request is due when the previous answer arrives, so the
// generator's lateness is the time it took to produce the next one.
func (b *bench) sweepLoop(ctx context.Context, c *conn, g *sweepGen, dur time.Duration, query string, tr *tracer) (sweepStats, error) {
	var st sweepStats
	start := time.Now()
	due := start
	for n := 0; n == 0 || time.Since(start) < dur; n++ {
		reqID := b.nextReq()
		req := g.next()
		sent := time.Now()
		st.late = append(st.late, ms(sent.Sub(due)))
		kind := "dse"
		if req.batch != nil {
			kind = "batch"
		}
		root := tr.open("sweep."+kind, due, 0, reqID)
		tr.record("bench.generate", due, sent, root, reqID)
		var cellLat sample
		var err error
		if req.batch != nil {
			cellLat, err = b.sendBatch(ctx, c, req, query, tr, root, reqID)
		} else {
			cellLat, err = b.sendDSE(ctx, c, req, query, tr, root, reqID)
		}
		done := time.Now()
		tr.close(root, done)
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		if err == nil {
			st.cells += len(cellLat)
			st.cellLat = append(st.cellLat, cellLat...)
			if req.batch != nil {
				st.batchLat = append(st.batchLat, ms(done.Sub(sent)))
			} else {
				st.dseLat = append(st.dseLat, ms(done.Sub(sent)))
			}
		}
		due = done
	}
	st.wall = time.Since(start)
	return st, nil
}

// lineTimer collects the client-side verification intervals of one
// streamed answer; they become child spans of its HTTP span, so the
// HTTP span's self time is the time spent waiting on the server.
type lineTimer []time.Time

func (lt *lineTimer) add(from time.Time) { *lt = append(*lt, from, time.Now()) }

func (lt lineTimer) record(tr *tracer, httpName string, start, end time.Time, parent, req int) {
	if tr == nil {
		return
	}
	h := tr.record(httpName, start, end, parent, req)
	for i := 0; i+1 < len(lt); i += 2 {
		tr.record("bench.verify", lt[i], lt[i+1], h, req)
	}
}

// sendBatch sends one NDJSON batch and checks every cell line: each
// index exactly once, every cell the one requested, done and
// functionally verified, every repeat identical to its first answer. It
// returns, for each cell answered done, the ms from the send to its line.
func (b *bench) sendBatch(ctx context.Context, c *conn, req sweepReq, query string, tr *tracer, parent, reqID int) (sample, error) {
	b.check.sent()
	seen := make([]bool, len(req.batch))
	var done sample
	var summary *svc.BatchSummary
	var lt lineTimer
	start := time.Now()
	err := c.postStream(ctx, "/v1/batch?"+query, "application/x-ndjson", req.body, func(line []byte) error {
		t0 := time.Now()
		defer lt.add(t0)
		sum, err := isSummary(line)
		if err != nil {
			return err
		}
		if sum {
			summary = new(svc.BatchSummary)
			return json.Unmarshal(line, summary)
		}
		var br svc.BatchResult
		if err := json.Unmarshal(line, &br); err != nil {
			return err
		}
		if br.Index < 0 || br.Index >= len(req.batch) || seen[br.Index] {
			b.check.wrongf("batch: cell index %d out of range or repeated", br.Index)
			return nil
		}
		seen[br.Index] = true
		cell := req.batch[br.Index]
		if br.Spec.Machine != cell.spec.Machine || br.Spec.Kernel != cell.spec.Kernel ||
			br.Spec.Workload == nil || *br.Spec.Workload != *cell.spec.Workload {
			b.check.wrongf("batch: cell %d answered for a different spec", br.Index)
			return nil
		}
		if b.check.job(fmt.Sprintf("batch cell %d", br.Index), br.Job, &cell.key, cell.sample) {
			done = append(done, ms(t0.Sub(start)))
		}
		return nil
	})
	end := time.Now()
	if err != nil {
		b.check.failure("POST /v1/batch", err)
		return nil, err
	}
	lt.record(tr, "http.batch", start, end, parent, reqID)
	missing := 0
	for _, ok := range seen {
		if !ok {
			missing++
		}
	}
	if missing > 0 || summary == nil || summary.Cells != len(req.batch) || summary.Failed != 0 {
		b.check.wrongf("batch: %d of %d cells missing, summary %+v", missing, len(req.batch), summary)
	}
	return done, nil
}

// sendDSE sends one exploration and checks it: every point done with
// cycles, the summary complete, the Pareto frontier non-empty. It
// returns, for each point answered done, the ms from the send to its
// line.
func (b *bench) sendDSE(ctx context.Context, c *conn, req sweepReq, query string, tr *tracer, parent, reqID int) (sample, error) {
	b.check.sent()
	points := make(map[int]svc.DSEPoint)
	arrived := make(map[int]float64)
	var summary *svc.DSESummary
	var lt lineTimer
	start := time.Now()
	err := c.postStream(ctx, "/v1/dse?"+query, "application/json", req.body, func(line []byte) error {
		t0 := time.Now()
		defer lt.add(t0)
		sum, err := isSummary(line)
		if err != nil {
			return err
		}
		if sum {
			summary = new(svc.DSESummary)
			return json.Unmarshal(line, summary)
		}
		var pt svc.DSEPoint
		if err := json.Unmarshal(line, &pt); err != nil {
			return err
		}
		if _, dup := points[pt.Index]; dup {
			b.check.wrongf("dse: point %d answered twice", pt.Index)
		}
		points[pt.Index] = pt
		arrived[pt.Index] = ms(t0.Sub(start))
		return nil
	})
	end := time.Now()
	if err != nil {
		b.check.failure("POST /v1/dse", err)
		return nil, err
	}
	lt.record(tr, "http.dse", start, end, parent, reqID)
	switch {
	case summary == nil:
		b.check.wrongf("dse: stream ended without a summary")
	case summary.Points != dsePoints || summary.Failed != 0:
		b.check.wrongf("dse: summary %d points, %d failed (want %d, 0)", summary.Points, summary.Failed, dsePoints)
	case len(summary.Frontier) == 0:
		b.check.wrongf("dse: empty Pareto frontier")
	}
	designs, err := req.dse.Expand()
	if err != nil {
		return nil, fmt.Errorf("expanding a generated exploration: %w", err)
	}
	var done sample
	for i, d := range designs {
		pt, ok := points[i]
		if !ok || pt.State != svc.Done || pt.Cycles == 0 {
			b.check.wrongf("dse: point %d (%s) missing or not done: %+v", i, d.Label, pt)
			continue
		}
		done = append(done, arrived[i])
		if !pt.FromCache {
			norm, err := d.Spec.Normalize()
			if err != nil {
				return done, fmt.Errorf("normalizing a generated design point: %w", err)
			}
			b.check.cold(norm, pt.Cycles, req.dseSample[i])
		}
	}
	return done, nil
}

// warmExplorations sends one untimed exploration of every (machine,
// kernel) pair. Each explored configuration leaves a machine instance in
// the server's per-worker cache; a design-space user's long-running
// daemon has them, so the timed phase should start with them too.
func (b *bench) warmExplorations(ctx context.Context, s *servers, g *sweepGen, query string) error {
	c := newConn(s.url())
	defer c.close()
	n := len(machines.Names()) * len(core.Kernels())
	if b.smoke {
		n = 1
	}
	for i := 0; i < n; i++ {
		if _, err := b.sendDSE(ctx, c, g.nextDSE(), query, nil, 0, 0); err != nil {
			return fmt.Errorf("warming explorations: %w", err)
		}
	}
	return nil
}

// interactiveStages is the open-loop rate ladder, each stage's share of
// the phase. The 100 req/s stage is the reference the end-to-end
// latency metric comes from, so it gets the most time. At 200 req/s two
// connections already run near their knee (a memo hit holds one for a
// 5 ms Wait tick): there the median moved from 7.5 to 21 ms between
// runs as a shared host slowed, while at 100 req/s it stayed within
// 6.7–7.7 ms.
var interactiveStages = []struct {
	rate  float64
	share float64
}{{100, 0.55}, {200, 0.15}, {400, 0.15}, {800, 0.15}}

const (
	refStage = 0 // 100 req/s
	// latencyLimit is the interactive latency limit on the tail
	// percentile that sustained_rps is judged by.
	latencyLimit = 25 * time.Millisecond
)

// interactive is an API client: one daemon, the paper cells prewarmed,
// an open loop over two connections stepping through the rate ladder.
func (b *bench) interactive() workloadDef {
	g := newInteractiveGen(b.seed, b.paper)
	arrivalsRNG := newRNG(b.seed, streamArrivals)
	return workloadDef{
		topo:     &topology{shards: 1, workers: 2},
		hitRatio: shareHit / (shareHit + shareCold),
		prepare: func(ctx context.Context, s *servers) error {
			if err := b.prewarm(ctx, s); err != nil {
				return err
			}
			return b.prefill(ctx, s)
		},
		phase: func(ctx context.Context, s *servers, dur time.Duration, tr *tracer) (phaseResult, error) {
			stages := make([]stage, len(interactiveStages))
			for i, st := range interactiveStages {
				stages[i] = stage{rate: st.rate, dur: time.Duration(st.share * float64(dur))}
			}
			arr := schedule(arrivalsRNG, stages, g)
			conns := []*conn{newConn(s.url()), newConn(s.url())}
			defer conns[0].close()
			defer conns[1].close()
			outs := openLoop(ctx, arr, len(conns), lateLimit, func(ctx context.Context, ci int, a arrival, due time.Time) bool {
				return b.sendInteractive(ctx, conns[ci], a.req, due, tr)
			})
			if ctx.Err() != nil {
				return phaseResult{}, ctx.Err()
			}
			var r phaseResult
			sustained := 0.0
			for si, st := range stages {
				ss := statsOf(outs, si)
				t := ss.latency.tailOf()
				if ss.drops == 0 && len(ss.latency) > 0 && t.Value <= ms(latencyLimit) {
					sustained = st.rate
				}
				r.notes = append(r.notes, fmt.Sprintf("stage %3.0f req/s: %s, %d late drops", st.rate, latencyLine(ss.latency), ss.drops))
			}
			r.notes = append(r.notes, fmt.Sprintf("sustained_rps %.0f: the highest stage whose tail is within %s with no late drops", sustained, latencyLimit))
			// Lateness and drops are judged at the reference stage: the
			// higher stages outrun two connections by design.
			all, ref := statsOf(outs, -1), statsOf(outs, refStage)
			r.latency, r.cells, r.late, r.drops = ref.latency, all.cells, ref.late, ref.drops
			r.wall = elapsed(outs)
			return r, nil
		},
	}
}

// prewarm puts the 15 paper cells in the memo with one grid request,
// then sends each once as a single job: behind a gateway that first
// request registers the job later requests for the cell are answered
// from (the gateway keys them by spec hash).
func (b *bench) prewarm(ctx context.Context, s *servers) error {
	c := newConn(s.url())
	defer c.close()
	if _, err := b.sendGrid(ctx, c, newRNG(b.seed, streamPaperSample), nil); err != nil {
		return fmt.Errorf("prewarm: %w", err)
	}
	for _, p := range b.paper {
		r := ireq{kind: kindHit, spec: svc.JobSpec{Machine: p.Machine, Kernel: p.Kernel}}
		body, err := json.Marshal(r.spec)
		if err != nil {
			return err
		}
		r.body = body
		if !b.sendInteractive(ctx, c, r, time.Now(), nil) {
			return fmt.Errorf("prewarm: paper cell %s/%s not answered", p.Machine, p.Kernel)
		}
	}
	return nil
}

// registryBound is the job registry's default bound (svc.Options
// MaxJobs). A long-running daemon sits at it, evicting the oldest
// finished job on every admission, so every run fills each shard's
// registry before timing: otherwise the timed phase would cross from
// the empty regime to the full one at a point that depends on how fast
// the run goes.
const registryBound = 4096

// prefill registers registryBound paper-cell jobs on every shard,
// directly, with one NDJSON batch each.
func (b *bench) prefill(ctx context.Context, s *servers) error {
	n := registryBound
	if b.smoke {
		n = 200
	}
	var body bytes.Buffer
	for i := 0; i < n; i++ {
		p := b.paper[i%len(b.paper)]
		line, err := json.Marshal(svc.JobSpec{Machine: p.Machine, Kernel: p.Kernel})
		if err != nil {
			return err
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	for _, d := range s.shards {
		c := newConn(d.url)
		b.check.sent()
		done := 0
		err := c.postStream(ctx, "/v1/batch", "application/x-ndjson", body.Bytes(), func(line []byte) error {
			if sum, err := isSummary(line); err != nil || sum {
				return err
			}
			var br svc.BatchResult
			if err := json.Unmarshal(line, &br); err != nil {
				return err
			}
			if b.check.job("registry prefill", br.Job, nil, false) {
				done++
			}
			return nil
		})
		c.close()
		if err != nil {
			b.check.failure("POST /v1/batch (registry prefill)", err)
			return err
		}
		if done != n {
			b.check.wrongf("registry prefill: %d of %d cells done", done, n)
		}
	}
	return nil
}

// sendInteractive sends one interactive request and checks the answer.
// It reports whether a simulated cell came back done. Its spans run
// from the due time: the wait for a free connection, the HTTP round
// trip, and the client's check.
func (b *bench) sendInteractive(ctx context.Context, c *conn, r ireq, due time.Time, tr *tracer) bool {
	b.check.sent()
	reqID := b.nextReq()
	sent := time.Now()
	raw, err := c.postJob(ctx, r.body, r.query(), nil)
	done := time.Now()
	if err != nil {
		if ctx.Err() == nil {
			b.check.failure("POST /v1/jobs ("+r.kind.String()+")", err)
		}
		return false
	}
	var j svc.Job
	ok := false
	if err := json.Unmarshal(raw, &j); err != nil {
		b.check.wrongf("%s: undecodable answer: %v", r.kind, err)
	} else {
		switch r.kind {
		case kindEstimate:
			b.check.estimate("estimate", j)
		case kindHit:
			ok = b.check.job("memo hit", j, nil, false) // a paper cell: checked against the reference
		case kindCold:
			ok = b.check.job("cold cell", j, nil, r.sample)
		}
	}
	if tr != nil {
		end := time.Now()
		root := tr.record("interactive."+r.kind.String(), due, end, 0, reqID)
		tr.record("bench.queue", due, sent, root, reqID)
		tr.record("http.job", sent, done, root, reqID)
		tr.record("bench.verify", done, end, root, reqID)
	}
	return ok
}

// clusterRate is the interactive client's fixed rate in cluster-mixed.
const clusterRate = 50

// clusterMixed is the cluster deployment: simgate over two journaled
// one-worker shards, a closed-loop sweep client at batch priority and an
// open-loop interactive client at a fixed rate, at the same time, one
// connection each. Its latency metrics are the batch client's cells and
// design points: the interactive client's memo hits take about 2 ms, nearly
// all of it waiting for a CPU that two simulating shards keep busy, so
// on a two-CPU host their median moves by a third from run to run. The
// interactive client's latency is printed beside the metrics.
func (b *bench) clusterMixed() workloadDef {
	g := newSweepGen(b.seed)
	ig := newInteractiveGen(b.seed, b.paper)
	arrivalsRNG := newRNG(b.seed, streamArrivals)
	return workloadDef{
		topo:       &topology{shards: 2, workers: 1, journal: true, gateway: true},
		throughput: true,
		// Memo hits through the gateway are answered as idempotent
		// replays, which never probe the memo: no fixed expectation.
		hitRatio: -1,
		prepare: func(ctx context.Context, s *servers) error {
			if err := b.prewarm(ctx, s); err != nil {
				return err
			}
			if err := b.prefill(ctx, s); err != nil {
				return err
			}
			return b.warmExplorations(ctx, s, g, "priority=batch")
		},
		phase: func(ctx context.Context, s *servers, dur time.Duration, tr *tracer) (phaseResult, error) {
			arr := schedule(arrivalsRNG, []stage{{rate: clusterRate, dur: dur}}, ig)
			batchConn, interConn := newConn(s.url()), newConn(s.url())
			defer batchConn.close()
			defer interConn.close()
			var wg sync.WaitGroup
			var st sweepStats
			var serr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, serr = b.sweepLoop(ctx, batchConn, g, dur, "priority=batch", tr)
			}()
			outs := openLoop(ctx, arr, 1, lateLimit, func(ctx context.Context, _ int, a arrival, due time.Time) bool {
				return b.sendInteractive(ctx, interConn, a.req, due, tr)
			})
			wg.Wait()
			if serr != nil {
				return phaseResult{}, serr
			}
			if ctx.Err() != nil {
				return phaseResult{}, ctx.Err()
			}
			is := statsOf(outs, -1)
			return phaseResult{
				latency: st.cellLat, cells: st.cells + is.cells,
				wall: max(st.wall, elapsed(outs)), late: is.late, drops: is.drops,
				notes: []string{
					st.describe("batch"),
					fmt.Sprintf("interactive client at %d req/s: %s, %d late drops", clusterRate, latencyLine(is.latency), is.drops),
				},
			}, nil
		},
	}
}
