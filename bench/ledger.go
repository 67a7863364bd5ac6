package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sigkern/internal/cluster"
	"sigkern/internal/core"
	"sigkern/internal/journal"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/testsig"
	"sigkern/internal/machines"
	"sigkern/internal/roofline"
	"sigkern/internal/svc"
)

// engines names each machine's timing engine in metric names.
var engines = []struct{ machine, name string }{
	{"PPC", "ppc.scalar"}, {"AltiVec", "ppc.altivec"}, {"VIRAM", "viram"}, {"Imagine", "imagine"}, {"Raw", "rawsim"},
}

// kernelNames names each kernel in metric names.
var kernelNames = map[core.KernelID]string{
	core.CornerTurn: "cornerturn", core.CSLC: "cslc", core.BeamSteering: "beamsteer",
}

// moves records, for every per-layer metric, the end-to-end metric and
// workload it should move — written down before measuring, so a claimed
// gain can be checked against where it was predicted to show.
var moves = func() map[string]string {
	m := map[string]string{
		"cluster.proxy.self_ms":        "moves latency_p50_ms on cluster-mixed",
		"cluster.ring.owner_ns":        "moves cells_per_s on cluster-mixed",
		"cluster.reroutes":             "moves the failed count on cluster-mixed",
		"cluster.upstream_errors":      "moves the failed count on cluster-mixed",
		"cluster.hedges":               "moves the failed count on cluster-mixed",
		"svc.wait_hit_ms":              "moves latency_p50_ms on interactive",
		"svc.http.self_ms":             "moves latency_p50_ms on interactive",
		"svc.submit_hit_us.empty":      "moves the latency tail on interactive",
		"svc.submit_hit_us.full":       "moves the latency tail on interactive",
		"svc.spec.normalize_hash_us":   "moves latency_p50_ms on interactive, cells_per_s on sweep",
		"svc.estimate_us":              "moves latency_p50_ms on interactive (estimate share)",
		"roofline.estimate_ns":         "moves latency_p50_ms on interactive (estimate share)",
		"svc.batch.admit_ms":           "moves cells_per_s on sweep",
		"svc.pool.exec_p50_ms":         "moves the latency tail on interactive and cluster-mixed, cells_per_s on sweep",
		"svc.pool.exec_p99_ms":         "moves the latency tail on interactive and cluster-mixed, cells_per_s on sweep",
		"svc.pool.job_p99_ms":          "moves the latency tail on interactive and cluster-mixed, cells_per_s on sweep",
		"svc.pool.reuse_ratio":         "moves cells_per_s on sweep",
		"svc.pool.shed":                "moves the failed count on interactive and cluster-mixed",
		"cache.memo.hit_ratio":         "checks the generator on every workload",
		"journal.append_sync_us":       "moves cells_per_s on sweep",
		"journal.bytes_per_cell":       "moves cells_per_s on sweep",
		"kernels.cornerturn.verify_ms": "moves latency_p50_ms on paper-grid",
		"kernels.cslc.generate_ms":     "moves latency_p50_ms on paper-grid",
		"kernels.cslc.verify_ms":       "moves latency_p50_ms on paper-grid",
		"kernels.beamsteer.verify_ms":  "moves latency_p50_ms on paper-grid",
		"kernels.share.paper-grid":     "bounds what verification work can save on paper-grid",
		"kernels.share.sweep":          "bounds what verification work can save on sweep",
		"bench.gen_late_p99_ms":        "checks the run is valid; not an optimisation target",
		"bench.late_drops":             "checks the run is valid; not an optimisation target",
		"bench.trace_overhead":         "checks the run is valid; not an optimisation target",
	}
	for _, e := range engines {
		m[e.name+".ns_per_event"] = "moves latency_p50_ms on paper-grid"
		m[e.name+".sweep.run_us"] = "moves cells_per_s on sweep"
		m["machines.build_us."+e.machine] = "moves cells_per_s on sweep"
		m["machines.reset_us."+e.machine] = "moves cells_per_s on sweep"
		for _, k := range core.Kernels() {
			m[e.name+"."+kernelNames[k]+".run_ms"] = "moves latency_p50_ms on paper-grid"
			m[e.name+"."+kernelNames[k]+".self_ms"] = "moves latency_p50_ms on paper-grid"
		}
	}
	for _, k := range core.Kernels() {
		m["kernels.share.paper-grid."+kernelNames[k]] = "bounds what verification work can save on paper-grid"
	}
	return m
}()

// ledgerSizes are the call counts the ledger times; smoke runs use
// fewer of each.
type ledgerSizes struct {
	reps, sweepCells, machineReps, waitHits, submits, admitBatches, appends, probePairs, directProbes int
}

func (b *bench) ledgerSizes() ledgerSizes {
	if b.smoke {
		return ledgerSizes{reps: 1, sweepCells: 20, machineReps: 3, waitHits: 10, submits: 20, admitBatches: 1, appends: 10, probePairs: 20, directProbes: 10}
	}
	return ledgerSizes{reps: 5, sweepCells: 200, machineReps: 20, waitHits: 100, submits: 200, admitBatches: 3, appends: 100, probePairs: 200, directProbes: 100}
}

// timed runs fn and records it as a span under parent.
func (b *bench) timed(name string, parent int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	b.spans.record(name, start, end, parent, 0)
	return end.Sub(start), err
}

// ledger times calls into each layer's public entry points in-process,
// plus HTTP probes against a daemon and a gateway of its own, and sets
// every per-layer metric the live servers did not.
func (b *bench) ledger(ctx context.Context) error {
	n := b.ledgerSizes()
	root := b.spans.open("ledger", time.Now(), 0, 0)
	defer func() { b.spans.close(root, time.Now()) }()

	if err := b.ledgerPaper(root, n); err != nil {
		return err
	}
	sweepCells := b.sweepSample(n.sweepCells)
	if err := b.ledgerSweepCells(root, sweepCells); err != nil {
		return err
	}
	if err := b.ledgerMachines(root, n, sweepCells); err != nil {
		return err
	}
	if err := b.ledgerService(ctx, root, n, sweepCells); err != nil {
		return err
	}
	if err := b.ledgerJournal(root, n); err != nil {
		return err
	}
	return b.ledgerCluster(ctx, root, n, sweepCells)
}

// kernelTimes are the functional-verification costs of one kernel
// instance, measured outside any machine.
type kernelTimes struct {
	cornerturn, cslcGenerate, cslcVerify, beamsteer time.Duration
}

// of returns the verification cost of kernel k.
func (kt kernelTimes) of(k core.KernelID) time.Duration {
	switch k {
	case core.CornerTurn:
		return kt.cornerturn
	case core.CSLC:
		return kt.cslcGenerate + kt.cslcVerify
	}
	return kt.beamsteer
}

// kernelWork times the golden work every machine performs inside a run
// of kernel k on w, through the kernels' own entry points: the
// synthetic corner-turn check, the CSLC scene generation plus the
// weights/pipeline/naive-DFT check, and the beam-steering tables plus
// reference steer.
func (b *bench) kernelWork(k core.KernelID, w core.Workload, parent int) (kernelTimes, error) {
	var kt kernelTimes
	var err error
	switch k {
	case core.CornerTurn:
		s := w.CornerTurn
		kt.cornerturn, err = b.timed("kernels.cornerturn.verify", parent, func() error {
			return cornerturn.VerifySynthetic(s.Rows, s.Cols, func(dst, src *testsig.Matrix) error {
				return cornerturn.TransposeBlocked(dst, src, s.BlockSize)
			})
		})
	case core.CSLC:
		s := w.CSLC
		var channels [][]complex128
		kt.cslcGenerate, _ = b.timed("kernels.cslc.generate", parent, func() error {
			scene := testsig.DefaultScene(s.Samples)
			scene.AuxCoupling = scene.AuxCoupling[:s.AuxChannels]
			channels = scene.Channels(s.MainChannels)
			return nil
		})
		kt.cslcVerify, err = b.timed("kernels.cslc.verify", parent, func() error {
			wts, err := cslc.EstimateWeights(s, channels)
			if err != nil {
				return err
			}
			out, err := cslc.Run(s, channels, wts)
			if err != nil {
				return err
			}
			return cslc.VerifyAgainstNaive(s, channels, wts, out, []int{0, s.SubBands / 2, s.SubBands - 1})
		})
	case core.BeamSteering:
		s := w.Beam
		kt.beamsteer, err = b.timed("kernels.beamsteer.verify", parent, func() error {
			_, err := beamsteer.Steer(s, testsig.NewBeamTables(s.Elements, s.Directions, s.Dwells, 7))
			return err
		})
	}
	return kt, err
}

// sweepSample is a seeded sample of the sweep generator's first
// batches' unique cells: the cells the sweep workload sends for this
// seed, whatever workload this run drives.
func (b *bench) sweepSample(count int) []svc.JobSpec {
	g := newSweepGen(b.seed)
	var all []svc.JobSpec
	for len(all) < 4*count {
		req := g.nextBatch()
		for _, c := range req.batch {
			if !c.repeat {
				all = append(all, c.spec)
			}
		}
	}
	rng := newRNG(b.seed, streamLedgerSample)
	out := make([]svc.JobSpec, 0, count)
	for _, i := range rng.Perm(len(all))[:count] {
		out = append(out, all[i])
	}
	return out
}

// eventCount sums a result's simulator event counters.
func eventCount(r core.Result) uint64 {
	var n uint64
	for _, name := range r.Stats.Names() {
		n += r.Stats.Get(name)
	}
	return n
}

// ledgerPaper times the 15 paper cells, n.reps rounds over. Each round
// times a kernel's verification work at paper size and, right after it,
// that kernel's core.Run on a fresh instance of each machine, so a run
// and the verification it is charged with are measured close together.
// Times are medians over the rounds.
func (b *bench) ledgerPaper(root int, n ledgerSizes) error {
	parent := b.spans.open("ledger.paper", time.Now(), root, 0)
	defer func() { b.spans.close(parent, time.Now()) }()
	ref := newPaperRef(b.paper)
	w := core.PaperWorkload()
	var ct, gen, ver, bs sample // ms
	runs, selfs := make(map[string]sample), make(map[string]sample)
	engineTime, events := make(map[string]time.Duration), make(map[string]uint64)
	runByKernel, kernByKernel := make(map[core.KernelID]time.Duration), make(map[core.KernelID]time.Duration)
	for r := 0; r < n.reps; r++ {
		for _, k := range core.Kernels() {
			kt, err := b.kernelWork(k, w, parent)
			if err != nil {
				return fmt.Errorf("kernels %s: %w", k, err)
			}
			switch k {
			case core.CornerTurn:
				ct = append(ct, ms(kt.cornerturn))
			case core.CSLC:
				gen = append(gen, ms(kt.cslcGenerate))
				ver = append(ver, ms(kt.cslcVerify))
			case core.BeamSteering:
				bs = append(bs, ms(kt.beamsteer))
			}
			for _, e := range engines {
				m, err := machines.ByName(e.machine)
				if err != nil {
					return err
				}
				var res core.Result
				d, err := b.timed(e.name+".run", parent, func() error {
					var err error
					res, err = core.Run(m, k, w)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s %s: %w", e.machine, k, err)
				}
				if want := ref[e.machine][k]; res.Cycles != want {
					b.check.wrongf("ledger: paper cell %s/%s ran %d cycles in-process, reference %d", e.machine, k, res.Cycles, want)
				}
				name := e.name + "." + kernelNames[k]
				runs[name] = append(runs[name], ms(d))
				selfs[name] = append(selfs[name], ms(d-kt.of(k)))
				engineTime[e.name] += d
				events[e.name] += eventCount(res)
				runByKernel[k] += d
				kernByKernel[k] += kt.of(k)
			}
		}
	}
	detail := fmt.Sprintf("paper size, median of %d", n.reps)
	b.set("kernels.cornerturn.verify_ms", ct.median(), detail)
	b.set("kernels.cslc.generate_ms", gen.median(), detail)
	b.set("kernels.cslc.verify_ms", ver.median(), detail)
	b.set("kernels.beamsteer.verify_ms", bs.median(), detail)

	var runAll, kernAll time.Duration
	for _, k := range core.Kernels() {
		share := float64(kernByKernel[k]) / float64(runByKernel[k])
		b.set("kernels.share.paper-grid."+kernelNames[k], share, "")
		b.notef("paper-grid: %s verification is %.0f%% of its core.Run time across the 5 machines", kernelNames[k], 100*share)
		runAll += runByKernel[k]
		kernAll += kernByKernel[k]
	}
	b.set("kernels.share.paper-grid", float64(kernAll)/float64(runAll), "verification time over core.Run time, 15 paper cells")
	for _, e := range engines {
		for _, k := range core.Kernels() {
			name := e.name + "." + kernelNames[k]
			b.set(name+".run_ms", runs[name].median(), fmt.Sprintf("core.Run on a fresh machine, paper workload, median of %d", n.reps))
			b.set(name+".self_ms", selfs[name].median(), "derived: run minus the kernels."+kernelNames[k]+" verification timed just before it, median")
		}
		b.set(e.name+".ns_per_event", float64(engineTime[e.name])/float64(max(events[e.name], 1)),
			fmt.Sprintf("%d simulator events over the 3 paper cells", events[e.name]/uint64(n.reps)))
	}
	return nil
}

// ledgerSweepCells runs the sweep sample through core.Run on fresh
// machines, each followed by the kernel's verification work on the same
// instance size.
func (b *bench) ledgerSweepCells(root int, sweepCells []svc.JobSpec) error {
	parent := b.spans.open("ledger.sweep", time.Now(), root, 0)
	defer func() { b.spans.close(parent, time.Now()) }()
	runs := make(map[string]sample)
	var sweepRun, sweepKern time.Duration
	for _, spec := range sweepCells {
		m, err := machines.ByName(spec.Machine)
		if err != nil {
			return err
		}
		d, err := b.timed("sweep-cell.run", parent, func() error {
			_, err := core.Run(m, spec.Kernel, *spec.Workload)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s %s: %w", spec.Machine, spec.Kernel, err)
		}
		kt, err := b.kernelWork(spec.Kernel, *spec.Workload, parent)
		if err != nil {
			return err
		}
		runs[spec.Machine] = append(runs[spec.Machine], float64(d)/1e3)
		sweepRun += d
		sweepKern += kt.of(spec.Kernel)
	}
	for _, e := range engines {
		b.set(e.name+".sweep.run_us", runs[e.machine].mean(), fmt.Sprintf("mean over %d sampled sweep cells", len(runs[e.machine])))
	}
	b.set("kernels.share.sweep", float64(sweepKern)/float64(sweepRun), fmt.Sprintf("verification time over core.Run time, %d sweep cells", len(sweepCells)))
	return nil
}

// ledgerMachines times machine construction and the Reset that machine
// reuse performs between cells.
func (b *bench) ledgerMachines(root int, n ledgerSizes, sweepCells []svc.JobSpec) error {
	parent := b.spans.open("ledger.machines", time.Now(), root, 0)
	defer func() { b.spans.close(parent, time.Now()) }()
	w := *sweepCells[0].Workload
	for _, e := range engines {
		var builds, resets sample
		for i := 0; i < n.machineReps; i++ {
			var m core.Machine
			d, err := b.timed("machines.build", parent, func() error {
				var err error
				m, err = machines.ByName(e.machine)
				return err
			})
			if err != nil {
				return err
			}
			builds = append(builds, float64(d)/1e3)
			if _, err := core.Run(m, core.BeamSteering, w); err != nil {
				return err
			}
			rm, ok := m.(core.Resettable)
			if !ok {
				return fmt.Errorf("%s does not implement core.Resettable", e.machine)
			}
			d, _ = b.timed("machines.reset", parent, func() error { rm.Reset(); return nil })
			resets = append(resets, float64(d)/1e3)
		}
		detail := fmt.Sprintf("median of %d", n.machineReps)
		b.set("machines.build_us."+e.machine, builds.median(), detail)
		b.set("machines.reset_us."+e.machine, resets.median(), detail+", after a beam-steering run")
	}
	return nil
}

// ledgerService times the svc layer in-process: spec identity, the
// estimate tier, registry admission with an empty and a full registry,
// Submit+Wait on a memo hit, and batch admission on a journaled
// service.
func (b *bench) ledgerService(ctx context.Context, root int, n ledgerSizes, sweepCells []svc.JobSpec) error {
	parent := b.spans.open("ledger.svc", time.Now(), root, 0)
	defer func() { b.spans.close(parent, time.Now()) }()

	var nh, est, rf sample
	for _, spec := range sweepCells {
		var norm svc.JobSpec
		d, err := b.timed("svc.spec.normalize_hash", parent, func() error {
			var err error
			if norm, err = spec.Normalize(); err != nil {
				return err
			}
			_, err = norm.Hash()
			return err
		})
		if err != nil {
			return err
		}
		nh = append(nh, float64(d)/1e3)
		d, err = b.timed("roofline.estimate", parent, func() error {
			_, err := roofline.ForJob(norm.Machine, norm.Kernel, *norm.Workload)
			return err
		})
		if err != nil {
			return err
		}
		rf = append(rf, float64(d))
	}
	b.set("svc.spec.normalize_hash_us", nh.median(), fmt.Sprintf("median over %d sweep cells", len(nh)))
	b.set("roofline.estimate_ns", rf.median(), fmt.Sprintf("roofline.ForJob, median over %d sweep cells", len(rf)))

	s := svc.NewService(svc.Options{Pool: svc.PoolOptions{Workers: 2, MemoCapacity: 1024}})
	defer s.Close()
	for _, spec := range sweepCells {
		d, err := b.timed("svc.estimate", parent, func() error {
			_, err := s.Estimate(spec)
			return err
		})
		if err != nil {
			return err
		}
		est = append(est, float64(d)/1e3)
	}
	b.set("svc.estimate_us", est.median(), "Service.Estimate, memo misses")

	hit := svc.JobSpec{Machine: "Raw", Kernel: core.BeamSteering}
	submitWait := func() (time.Duration, error) {
		return b.timed("svc.submit_wait_hit", parent, func() error {
			j, err := s.Submit(hit)
			if err != nil {
				return err
			}
			j, err = s.Wait(ctx, j.ID)
			if err == nil && j.State != svc.Done {
				err = fmt.Errorf("memo-hit job ended %s: %s", j.State, j.Error)
			}
			return err
		})
	}
	if _, err := submitWait(); err != nil { // puts the cell in the memo
		return err
	}
	submits := func(name string, count int) (sample, error) {
		var out sample
		for i := 0; i < count; i++ {
			d, err := b.timed(name, parent, func() error {
				_, err := s.Submit(hit)
				return err
			})
			if err != nil {
				return nil, err
			}
			out = append(out, float64(d)/1e3)
		}
		return out, nil
	}
	if _, err := submits("svc.register", 63); err != nil {
		return err
	}
	empty, err := submits("svc.submit_hit.empty", n.submits)
	if err != nil {
		return err
	}
	b.set("svc.submit_hit_us.empty", empty.median(), fmt.Sprintf("Service.Submit on a memo hit, %d to %d jobs registered", 64, 64+n.submits))
	if _, err := submits("svc.register", 4096-64-n.submits); err != nil {
		return err
	}
	full, err := submits("svc.submit_hit.full", n.submits)
	if err != nil {
		return err
	}
	b.set("svc.submit_hit_us.full", full.median(), "Service.Submit on a memo hit, registry at its 4096-job bound")
	var waits sample
	for i := 0; i < n.waitHits; i++ {
		d, err := submitWait()
		if err != nil {
			return err
		}
		waits = append(waits, ms(d))
	}
	b.set("svc.wait_hit_ms", waits.median(), fmt.Sprintf("Service.Submit + Service.Wait on a memo hit, median of %d", len(waits)))
	if b.workload == "interactive" {
		b.notef("svc.wait_hit_ms is %.0f%% of this run's traced latency_p50_ms (%.3f ms)", 100*waits.median()/b.tracedP50, b.tracedP50)
	}
	return b.ledgerBatchAdmit(ctx, parent, n)
}

// ledgerBatchAdmit times Service.SubmitBatch returning on 250-cell
// groups of a journaled (fsync always) service, and measures the
// write-ahead-log bytes those groups cost per cell.
func (b *bench) ledgerBatchAdmit(ctx context.Context, parent int, n ledgerSizes) error {
	dir, err := os.MkdirTemp(b.runDir, "ledger-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := svc.OpenDurable(svc.Options{Pool: svc.PoolOptions{Workers: 2, MemoCapacity: 1024}},
		journal.Options{Dir: dir, Sync: journal.SyncAlways})
	if err != nil {
		return err
	}
	defer s.Close()
	g := newSweepGen(b.seed)
	var admits sample
	cells := 0
	for i := 0; i < n.admitBatches; i++ {
		req := g.nextBatch()
		specs := make([]svc.JobSpec, len(req.batch))
		for i, c := range req.batch {
			specs[i] = c.spec
		}
		var run *svc.BatchRun
		d, err := b.timed("svc.batch.admit", parent, func() error {
			var err error
			run, err = s.SubmitBatch(ctx, specs, svc.BatchOptions{Priority: svc.PriorityBatch})
			return err
		})
		if err != nil {
			return err
		}
		admits = append(admits, ms(d))
		for r := range run.Results() {
			if r.State != svc.Done {
				return fmt.Errorf("ledger batch cell %d: %s %s", r.Index, r.State, r.Error)
			}
		}
		cells += len(specs)
	}
	b.set("svc.batch.admit_ms", admits.median(), fmt.Sprintf("Service.SubmitBatch on %d-cell groups, journal fsync always, median of %d", batchUnits*5, len(admits)))
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	var bytes int64
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		bytes += fi.Size()
	}
	b.set("journal.bytes_per_cell", float64(bytes)/float64(cells), fmt.Sprintf("%d WAL bytes over %d batch cells", bytes, cells))
	return nil
}

// ledgerJournal times one fsynced append of a 300-byte record.
func (b *bench) ledgerJournal(root int, n ledgerSizes) error {
	parent := b.spans.open("ledger.journal", time.Now(), root, 0)
	defer func() { b.spans.close(parent, time.Now()) }()
	dir, err := os.MkdirTemp(b.runDir, "ledger-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncAlways})
	if err != nil {
		return err
	}
	defer j.Close()
	rec := make([]byte, 300)
	for i := range rec {
		rec[i] = byte('a' + i%26)
	}
	var appends sample
	for i := 0; i < n.appends; i++ {
		d, err := b.timed("journal.append", parent, func() error { return j.Append(rec) })
		if err != nil {
			return err
		}
		appends = append(appends, float64(d)/1e3)
	}
	b.set("journal.append_sync_us", appends.median(), fmt.Sprintf("journal.Append, 300 bytes, fsync always, median of %d", len(appends)))
	return nil
}

// ledgerCluster times the gateway's ring lookup in-process and its
// proxying overhead over HTTP, against a daemon and gateway of its own.
func (b *bench) ledgerCluster(ctx context.Context, root int, n ledgerSizes, sweepCells []svc.JobSpec) error {
	parent := b.spans.open("ledger.cluster", time.Now(), root, 0)
	defer func() { b.spans.close(parent, time.Now()) }()

	ring, err := cluster.NewRing([]string{"s1", "s2"}, 0)
	if err != nil {
		return err
	}
	var keys []string
	for _, spec := range sweepCells {
		norm, err := spec.Normalize()
		if err != nil {
			return err
		}
		h, err := norm.Hash()
		if err != nil {
			return err
		}
		keys = append(keys, h)
	}
	const lookups = 20000
	d, _ := b.timed("cluster.ring.owner", parent, func() error {
		for i := 0; i < lookups; i++ {
			_ = ring.Owner(keys[i%len(keys)])
		}
		return nil
	})
	b.set("cluster.ring.owner_ns", float64(d)/lookups, fmt.Sprintf("mean of %d lookups, 2 shards", lookups))

	s, _, err := b.deploy(topology{shards: 1, workers: 2, gateway: true})
	if err != nil {
		return err
	}
	defer b.teardownQuiet(s)
	direct, gate := newConn(s.shards[0].url), newConn(s.gate.url)
	defer direct.close()
	defer gate.close()
	hit := svc.JobSpec{Machine: "Raw", Kernel: core.BeamSteering}
	norm, err := hit.Normalize()
	if err != nil {
		return err
	}
	key, err := norm.Hash()
	if err != nil {
		return err
	}
	body := []byte(`{"machine":"Raw","kernel":"beam-steering"}`)
	probe := func(name string, c *conn, hdr http.Header) (time.Duration, error) {
		return b.timed(name, parent, func() error {
			b.check.sent()
			_, err := c.postJob(ctx, body, "wait=1", hdr)
			if err != nil {
				b.check.failure("ledger probe", err)
			}
			return err
		})
	}
	if _, err := probe("probe.direct", direct, nil); err != nil { // puts the cell in the memo
		return err
	}
	var rtt sample
	for i := 0; i < n.directProbes; i++ {
		d, err := probe("probe.direct", direct, nil)
		if err != nil {
			return err
		}
		rtt = append(rtt, ms(d))
	}
	b.set("svc.http.self_ms", rtt.median()-b.metrics["svc.wait_hit_ms"],
		fmt.Sprintf("derived: direct memo-hit POST /v1/jobs?wait=1 p50 %.3f ms minus svc.wait_hit_ms", rtt.median()))

	// Through the gateway a repeat of a spec is an idempotent replay (the
	// gateway keys it by spec hash), so the direct half of each pair
	// carries the same key: both sides answer from the same registered
	// job, and the difference is the gateway's own work.
	keyed := http.Header{"Idempotency-Key": []string{key}}
	var diffs sample
	for i := 0; i < n.probePairs; i++ {
		var dd, gd time.Duration
		var err1, err2 error
		if i%2 == 0 {
			dd, err1 = probe("probe.direct_keyed", direct, keyed)
			gd, err2 = probe("probe.gateway", gate, nil)
		} else {
			gd, err2 = probe("probe.gateway", gate, nil)
			dd, err1 = probe("probe.direct_keyed", direct, keyed)
		}
		if err1 != nil || err2 != nil {
			return fmt.Errorf("ledger probe pair: %v %v", err1, err2)
		}
		diffs = append(diffs, ms(gd-dd))
	}
	b.set("cluster.proxy.self_ms", diffs.median(), fmt.Sprintf("derived: p50 over %d memo-hit probe pairs of gateway RTT minus direct-shard RTT", len(diffs)))

	if _, ok := b.metrics["cluster.reroutes"]; !ok {
		snap, err := scrapeGateway(b.procs.ctl, s.gate.url)
		if err != nil {
			return err
		}
		b.gatewayCounts(cluster.Snapshot{}, snap, "probe gateway (no gateway on this workload)")
	}
	return nil
}
