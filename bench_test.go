// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benchmarks for the design choices
// the paper's analysis calls out. Each benchmark runs the full simulator
// stack and reports the simulated cycle counts as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every number the tables and figures need. Wall-clock ns/op
// measures the simulator itself; the paper's quantities are the
// "sim-kcycles" (and speedup) metrics.
package sigkern

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/imagine"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/equalize"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/matmul"
	"sigkern/internal/kernels/pfb"
	"sigkern/internal/machines"
	"sigkern/internal/perfmodel"
	"sigkern/internal/ppc"
	"sigkern/internal/rawsim"
	"sigkern/internal/svc"
	"sigkern/internal/viram"
)

// benchKernel runs one kernel on one machine per iteration and reports
// the simulated kilocycles.
func benchKernel(b *testing.B, m core.Machine, k core.KernelID) {
	b.Helper()
	w := core.PaperWorkload()
	var last core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.Run(m, k, w)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.KCycles(), "sim-kcycles")
	b.ReportMetric(last.OpsPerCycle(), "sim-ops/cycle")
}

// --- Table 1: peak throughput -------------------------------------------

func BenchmarkTable1PeakThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := perfmodel.Table1(); len(rows) != 5 {
			b.Fatal("Table 1 incomplete")
		}
	}
	for _, t := range perfmodel.Table1() {
		b.ReportMetric(t.Compute, t.Machine+"-compute-w/c")
	}
}

// --- Table 2: processor parameters ---------------------------------------

func BenchmarkTable2Parameters(b *testing.B) {
	ms := machines.All()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			if m.Params().ClockMHz == 0 {
				b.Fatal("missing clock")
			}
		}
	}
	for _, m := range ms {
		b.ReportMetric(m.Params().PeakGFLOPS, m.Name()+"-GFLOPS")
	}
}

// --- Table 3: experimental results (one bench per cell group) ------------

func BenchmarkTable3CornerTurn(b *testing.B) {
	for _, m := range machines.All() {
		b.Run(m.Name(), func(b *testing.B) { benchKernel(b, m, core.CornerTurn) })
	}
}

func BenchmarkTable3CSLC(b *testing.B) {
	for _, m := range machines.All() {
		b.Run(m.Name(), func(b *testing.B) { benchKernel(b, m, core.CSLC) })
	}
}

func BenchmarkTable3BeamSteering(b *testing.B) {
	for _, m := range machines.All() {
		b.Run(m.Name(), func(b *testing.B) { benchKernel(b, m, core.BeamSteering) })
	}
}

// --- Table 4: performance model vs measured ------------------------------

func BenchmarkTable4CornerTurnModel(b *testing.B) {
	spec := cornerturn.PaperSpec()
	measured := make(map[string]uint64)
	for _, m := range machines.Research() {
		r, err := m.RunCornerTurn(spec)
		if err != nil {
			b.Fatal(err)
		}
		measured[m.Name()] = r.Cycles
	}
	b.ResetTimer()
	var rows []perfmodel.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = perfmodel.Table4(spec, measured)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Ratio(), r.Machine+"-measured/peak")
	}
}

// --- Figures 8 and 9: speedups over the AltiVec baseline -----------------

func benchSpeedups(b *testing.B, timeDomain bool) {
	b.Helper()
	var sr *core.StudyResults
	for i := 0; i < b.N; i++ {
		var err error
		sr, err = core.RunStudy(machines.All(), core.PaperWorkload())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range core.Kernels() {
		for _, name := range []string{"VIRAM", "Imagine", "Raw"} {
			var s float64
			if timeDomain {
				s = sr.SpeedupTime(machines.Baseline, name, k)
			} else {
				s = sr.SpeedupCycles(machines.Baseline, name, k)
			}
			b.ReportMetric(s, name+"-"+string(k)+"-speedup")
		}
	}
}

func BenchmarkFigure8SpeedupCycles(b *testing.B) { benchSpeedups(b, false) }

func BenchmarkFigure9SpeedupTime(b *testing.B) { benchSpeedups(b, true) }

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationRawFFTRadix: radix-2 vs register-spilling radix-4 on
// Raw (Section 3.2: why Raw uses radix-2).
func BenchmarkAblationRawFFTRadix(b *testing.B) {
	m := rawsim.New(rawsim.DefaultConfig())
	spec := cslc.PaperSpec(fft.Radix2)
	b.Run("radix2", func(b *testing.B) {
		var r core.Result
		for i := 0; i < b.N; i++ {
			var err error
			r, err = m.RunCSLCImbalanced(spec)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.KCycles(), "sim-kcycles")
	})
	b.Run("radix4-spilling", func(b *testing.B) {
		var r core.Result
		for i := 0; i < b.N; i++ {
			var err error
			r, err = m.RunCSLCRadix4(spec)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.KCycles(), "sim-kcycles")
	})
}

// BenchmarkAblationRawLoadBalance: 73 sets on 16 tiles vs the paper's
// perfect-balance extrapolation (Section 4.3).
func BenchmarkAblationRawLoadBalance(b *testing.B) {
	m := rawsim.New(rawsim.DefaultConfig())
	spec := cslc.PaperSpec(fft.Radix2)
	for _, variant := range []struct {
		name string
		run  func() (core.Result, error)
	}{
		{"imbalanced-73-sets", func() (core.Result, error) { return m.RunCSLCImbalanced(spec) }},
		{"perfect-balance", func() (core.Result, error) { return m.RunCSLC(spec) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = variant.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkAblationRawStreamFFT: cache-mode MIMD CSLC vs the
// static-network streaming variant (Section 4.3's ~70% FFT improvement).
func BenchmarkAblationRawStreamFFT(b *testing.B) {
	m := rawsim.New(rawsim.DefaultConfig())
	spec := cslc.PaperSpec(fft.Radix2)
	for _, variant := range []struct {
		name string
		run  func() (core.Result, error)
	}{
		{"cache-mode", func() (core.Result, error) { return m.RunCSLCImbalanced(spec) }},
		{"stream-mode", func() (core.Result, error) { return m.RunCSLCStream(spec) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = variant.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkAblationImaginePipelining: the stream-descriptor limitation
// vs full software pipelining on the corner turn (Section 4.2).
func BenchmarkAblationImaginePipelining(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "descriptor-limited"
		if full {
			name = "fully-pipelined"
		}
		b.Run(name, func(b *testing.B) {
			cfg := imagine.DefaultConfig()
			cfg.FullPipelining = full
			m := imagine.New(cfg)
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = m.RunCornerTurn(cornerturn.PaperSpec())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkAblationImagineSRFTables: beam-steering tables re-read from
// DRAM vs resident in the SRF (Section 4.4's ~2x claim).
func BenchmarkAblationImagineSRFTables(b *testing.B) {
	m := imagine.New(imagine.DefaultConfig())
	spec := beamsteer.PaperSpec()
	for _, variant := range []struct {
		name string
		run  func() (core.Result, error)
	}{
		{"tables-from-dram", func() (core.Result, error) { return m.RunBeamSteering(spec) }},
		{"tables-in-srf", func() (core.Result, error) { return m.RunBeamSteeringSRFTables(spec) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = variant.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkAblationImagineIndependentFFTs: parallel FFT with
// inter-cluster communication vs independent per-cluster FFTs
// (Section 4.3's uncompleted alternative).
func BenchmarkAblationImagineIndependentFFTs(b *testing.B) {
	m := imagine.New(imagine.DefaultConfig())
	spec := cslc.PaperSpec(fft.MixedRadix42)
	for _, variant := range []struct {
		name string
		run  func() (core.Result, error)
	}{
		{"parallel-fft", func() (core.Result, error) { return m.RunCSLC(spec) }},
		{"independent-ffts", func() (core.Result, error) { return m.RunCSLCIndependentFFTs(spec) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = variant.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkAblationVIRAMAddrGens: strided corner-turn throughput vs the
// number of address generators (Section 4.2's 24% factor).
func BenchmarkAblationVIRAMAddrGens(b *testing.B) {
	for _, ag := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "2-addrgens", 4: "4-addrgens", 8: "8-addrgens"}[ag], func(b *testing.B) {
			cfg := viram.DefaultConfig()
			cfg.DRAM.AddrGens = ag
			m := viram.New(cfg)
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = m.RunCornerTurn(cornerturn.PaperSpec())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkAblationVIRAMPadding: the matrix-row padding that spreads the
// strided walk across DRAM banks (Section 3.1).
func BenchmarkAblationVIRAMPadding(b *testing.B) {
	for _, pad := range []int{0, 8} {
		name := "padded-rows"
		if pad == 0 {
			name = "unpadded-rows"
		}
		b.Run(name, func(b *testing.B) {
			cfg := viram.DefaultConfig()
			cfg.PadWords = pad
			m := viram.New(cfg)
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = m.RunCornerTurn(cornerturn.PaperSpec())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkAblationAltiVec: scalar vs AltiVec per kernel (Section 4.5's
// ~6x CSLC, ~2x beam steering, ~1x corner turn).
func BenchmarkAblationAltiVec(b *testing.B) {
	for _, v := range []ppc.Variant{ppc.Scalar, ppc.AltiVec} {
		m := ppc.New(ppc.DefaultConfig(v))
		for _, k := range core.Kernels() {
			b.Run(v.String()+"/"+string(k), func(b *testing.B) {
				benchKernel(b, m, k)
			})
		}
	}
}

// --- Extension kernel: matrix multiply ------------------------------------

// BenchmarkExtensionMatMul runs the high-arithmetic-intensity extension
// kernel on every machine (the Raw-related-work citation [16]).
func BenchmarkExtensionMatMul(b *testing.B) {
	spec := matmul.DefaultSpec()
	for _, m := range machines.All() {
		mr, ok := m.(core.MatMulRunner)
		if !ok {
			b.Fatalf("%s lacks matmul", m.Name())
		}
		b.Run(m.Name(), func(b *testing.B) {
			var r core.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				r, err = mr.RunMatMul(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
			b.ReportMetric(r.OpsPerCycle(), "sim-ops/cycle")
		})
	}
}

// BenchmarkExtensionPFB runs the polyphase channelizer (the pipeline
// stage the paper's Section 4.4 names) on every machine.
func BenchmarkExtensionPFB(b *testing.B) {
	w := pfb.DefaultWorkload()
	type runner interface {
		RunPFB(pfb.Workload) (core.Result, error)
	}
	for _, m := range machines.All() {
		pr, ok := m.(runner)
		if !ok {
			b.Fatalf("%s lacks RunPFB", m.Name())
		}
		b.Run(m.Name(), func(b *testing.B) {
			var r core.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				r, err = pr.RunPFB(w)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
			b.ReportMetric(r.OpsPerCycle(), "sim-ops/cycle")
		})
	}
}

// BenchmarkAblationRawDMA: cache-mode CSLC vs the streaming-DMA variant
// (Section 4.3: "most of this stalling could have been eliminated").
func BenchmarkAblationRawDMA(b *testing.B) {
	m := rawsim.New(rawsim.DefaultConfig())
	spec := cslc.PaperSpec(fft.Radix2)
	for _, variant := range []struct {
		name string
		run  func() (core.Result, error)
	}{
		{"cache-mode", func() (core.Result, error) { return m.RunCSLCImbalanced(spec) }},
		{"streaming-dma", func() (core.Result, error) { return m.RunCSLCDMA(spec) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = variant.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkAblationRawBeamSteeringMode: stream mode (measured) vs the
// easy-to-program MIMD cache mode (Section 2.4's two modes of using Raw).
func BenchmarkAblationRawBeamSteeringMode(b *testing.B) {
	m := rawsim.New(rawsim.DefaultConfig())
	spec := beamsteer.PaperSpec()
	for _, variant := range []struct {
		name string
		run  func() (core.Result, error)
	}{
		{"stream-mode", func() (core.Result, error) { return m.RunBeamSteering(spec) }},
		{"mimd-cache-mode", func() (core.Result, error) { return m.RunBeamSteeringMIMD(spec) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = variant.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkAblationImaginePipelinedBeamSteering: isolated vs SRF-tables
// vs fully pipelined (Section 4.4's progression).
func BenchmarkAblationImaginePipelinedBeamSteering(b *testing.B) {
	m := imagine.New(imagine.DefaultConfig())
	spec := beamsteer.PaperSpec()
	for _, variant := range []struct {
		name string
		run  func() (core.Result, error)
	}{
		{"isolated", func() (core.Result, error) { return m.RunBeamSteering(spec) }},
		{"srf-tables", func() (core.Result, error) { return m.RunBeamSteeringSRFTables(spec) }},
		{"pipelined", func() (core.Result, error) { return m.RunBeamSteeringPipelined(spec) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = variant.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkExtensionPipeline: the full three-stage pipeline on Imagine.
func BenchmarkExtensionPipeline(b *testing.B) {
	m := imagine.New(imagine.DefaultConfig())
	w := pfb.DefaultWorkload()
	var r core.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		r, err = m.RunPipeline(w, beamsteer.PaperSpec(), equalize.DefaultSpec())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.KCycles(), "sim-kcycles")
	b.ReportMetric(r.OpsPerCycle(), "sim-ops/cycle")
}

// --- Service throughput ----------------------------------------------------

// stubMachine is a core.Machine whose kernels complete instantly with a
// fixed cycle count, so the service-throughput benchmarks measure the
// service layer itself (hashing, memoization, coalescing, queueing)
// rather than simulator time.
type stubMachine struct{ name string }

func (s stubMachine) Name() string        { return s.name }
func (s stubMachine) Params() core.Params { return core.Params{ClockMHz: 1} }
func (s stubMachine) RunCornerTurn(cornerturn.Spec) (core.Result, error) {
	return core.Result{Machine: s.name, Kernel: core.CornerTurn, Cycles: 4242, Verified: true}, nil
}
func (s stubMachine) RunCSLC(cslc.Spec) (core.Result, error) {
	return core.Result{Machine: s.name, Kernel: core.CSLC, Cycles: 4242, Verified: true}, nil
}
func (s stubMachine) RunBeamSteering(beamsteer.Spec) (core.Result, error) {
	return core.Result{Machine: s.name, Kernel: core.BeamSteering, Cycles: 4242, Verified: true}, nil
}

// BenchmarkServiceThroughput measures the three hot paths of the
// simulation service: memo hits (the sharded table is the contended
// structure, so ops/sec should scale with GOMAXPROCS), in-flight
// coalescing (attaching to a running execution), and cold submissions
// (the full queue/worker/memo-store lifecycle on a stub backend).
func BenchmarkServiceThroughput(b *testing.B) {
	ctx := context.Background()
	submitOne := func(p *svc.Pool, t svc.Task) (*svc.Future, error) {
		futs, err := p.Submit(ctx, []svc.Task{t}, false)
		if err != nil {
			return nil, err
		}
		return futs[0], nil
	}
	newPool := func() *svc.Pool {
		return svc.NewPool(svc.PoolOptions{
			Workers:      runtime.GOMAXPROCS(0),
			QueueDepth:   4096,
			MemoCapacity: 4096,
		})
	}
	stubTask := func(key string) svc.Task {
		return svc.Task{
			Label:   "stub",
			MemoKey: key,
			Run: func(context.Context) (core.Result, error) {
				return core.Result{Machine: "stub", Kernel: core.CornerTurn, Cycles: 4242, Verified: true}, nil
			},
		}
	}

	b.Run("cache-hit", func(b *testing.B) {
		p := newPool()
		defer p.Close()
		keys := make([]string, 64)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%02d", i)
			fut, err := submitOne(p, stubTask(keys[i]))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fut.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				fut, err := submitOne(p, stubTask(keys[i%len(keys)]))
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := fut.Wait(ctx); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})

	b.Run("coalesced", func(b *testing.B) {
		p := newPool()
		defer p.Close()
		release := make(chan struct{})
		lead, err := submitOne(p, svc.Task{
			Label:   "leader",
			MemoKey: "shared",
			Run: func(context.Context) (core.Result, error) {
				<-release
				return core.Result{Cycles: 7, Verified: true}, nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := submitOne(p, stubTask("shared"))
			if err != nil {
				b.Fatal(err)
			}
			if f != lead {
				b.Fatal("submission did not coalesce onto the leader")
			}
		}
		b.StopTimer()
		close(release)
		if _, err := lead.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	})

	b.Run("cold", func(b *testing.B) {
		p := newPool()
		defer p.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fut, err := submitOne(p, stubTask(fmt.Sprintf("cold-%d", i)))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fut.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The same memo-hit path end to end through svc.Service: spec
	// normalization, canonical hashing, and job registration on top of
	// the pool hit.
	b.Run("service-cache-hit", func(b *testing.B) {
		s := svc.NewService(svc.Options{
			Pool:    svc.PoolOptions{Workers: runtime.GOMAXPROCS(0), QueueDepth: 4096, MemoCapacity: 4096},
			Factory: func(name string) (core.Machine, error) { return stubMachine{name: name}, nil },
			// Keep the registry small: every submit registers a job, and
			// eviction scans the registry, so a large MaxJobs would measure
			// registry bookkeeping instead of the memo-hit path.
			MaxJobs: 64,
		})
		defer s.Close()
		spec := svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}
		j, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Wait(ctx, j.ID); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := s.Submit(spec); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// --- Batch grid fast path --------------------------------------------------

// batchGridSpecs builds a 1,000-cell grid of distinct real-simulation
// specs: 5 machines x 2 kernels x 100 workload variants. Every cell
// hashes differently (the variant changes the active kernel's own
// dimensions), so a cold run means 1,000 real simulator executions.
func batchGridSpecs() []svc.JobSpec {
	names := []string{"PPC", "AltiVec", "VIRAM", "Imagine", "Raw"}
	kernels := []core.KernelID{core.CornerTurn, core.BeamSteering}
	specs := make([]svc.JobSpec, 0, len(names)*len(kernels)*100)
	for _, name := range names {
		for _, k := range kernels {
			for v := 0; v < 100; v++ {
				w := core.Workload{
					CornerTurn: cornerturn.Spec{Rows: 16 << (v % 3), Cols: 16 * (v/3 + 1), BlockSize: 16},
					CSLC:       cslc.Spec{MainChannels: 1, AuxChannels: 1, Samples: 256, SubBands: 3, FFTSize: 64, Radix: fft.Radix4},
					Beam:       beamsteer.Spec{Elements: 32 + 8*(v%10), Directions: 2 + v/10, Dwells: 2, ShiftBits: 2, Rounding: 2},
				}
				specs = append(specs, svc.JobSpec{Machine: name, Kernel: k, Workload: &w})
			}
		}
	}
	return specs
}

func batchBenchService() *svc.Service {
	return svc.NewService(svc.Options{
		Pool: svc.PoolOptions{
			Workers:      runtime.GOMAXPROCS(0),
			QueueDepth:   4096,
			MemoCapacity: 4096,
		},
		MaxJobs: 4096,
	})
}

// drainBatch submits specs as one group and drains the results,
// returning the summed simulated cycles (the drift gate: deterministic
// across every run and every path).
func drainBatch(b *testing.B, s *svc.Service, specs []svc.JobSpec) uint64 {
	b.Helper()
	run, err := s.SubmitBatch(context.Background(), specs, svc.BatchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var sum uint64
	n := 0
	for br := range run.Results() {
		if br.State != svc.Done || br.Result == nil {
			b.Fatalf("cell %d: %s %q", br.Index, br.State, br.Error)
		}
		sum += br.Result.Cycles
		n++
	}
	if n != len(specs) {
		b.Fatalf("drained %d cells, want %d", n, len(specs))
	}
	return sum
}

// BenchmarkBatchGrid measures the grid fast path against its
// sequential baseline on the same 1,000-cell grid of real simulations.
// ns/op is the wall-clock for the WHOLE grid; "sim-kcycles" is the
// grid's summed simulated cycles, identical across all four legs and
// exactly gated by benchdiff. The acceptance target is cold-grid
// ns/op at least 5x below sequential-jobs ns/op.
func BenchmarkBatchGrid(b *testing.B) {
	specs := batchGridSpecs()
	if len(specs) != 1000 {
		b.Fatalf("grid has %d cells, want 1000", len(specs))
	}

	// Sequential baseline: one job at a time through the service's
	// single-submit path, waiting for each result — the workflow the
	// batch API replaces.
	b.Run("sequential-jobs-1000", func(b *testing.B) {
		ctx := context.Background()
		var sum uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := batchBenchService()
			b.StartTimer()
			sum = 0
			for _, spec := range specs {
				j, err := s.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				done, err := s.Wait(ctx, j.ID)
				if err != nil {
					b.Fatal(err)
				}
				sum += done.Result.Cycles
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(sum)/1e3, "sim-kcycles")
	})

	b.Run("cold-1000", func(b *testing.B) {
		var sum uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := batchBenchService()
			b.StartTimer()
			sum = drainBatch(b, s, specs)
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(sum)/1e3, "sim-kcycles")
	})

	b.Run("warm-memo-1000", func(b *testing.B) {
		s := batchBenchService()
		defer s.Close()
		drainBatch(b, s, specs) // warm every cell
		var sum uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum = drainBatch(b, s, specs)
		}
		b.ReportMetric(float64(sum)/1e3, "sim-kcycles")
	})

	// Mixed: half the grid warmed, half cold — the incremental-sweep
	// shape (rerunning a study after touching half the configs).
	b.Run("mixed-1000", func(b *testing.B) {
		var sum uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := batchBenchService()
			drainBatch(b, s, specs[:len(specs)/2])
			b.StartTimer()
			sum = drainBatch(b, s, specs)
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(sum)/1e3, "sim-kcycles")
	})
}

// dseGridSpecs expands the benchmark exploration: a VIRAM corner-turn
// base crossed over lanes x MVL, 16 design points. Expansion goes
// through the real svc.DSERequest path so the benchmark covers axis
// application, normalization, and config hashing — not hand-built
// specs.
func dseGridSpecs(b *testing.B) []svc.JobSpec {
	b.Helper()
	w := core.Workload{
		CornerTurn: cornerturn.Spec{Rows: 128, Cols: 128, BlockSize: 16},
		CSLC:       cslc.Spec{MainChannels: 1, AuxChannels: 1, Samples: 256, SubBands: 3, FFTSize: 64, Radix: fft.Radix4},
		Beam:       beamsteer.Spec{Elements: 64, Directions: 2, Dwells: 2, ShiftBits: 2, Rounding: 2},
	}
	req := svc.DSERequest{
		Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
		Axes: []svc.DSEAxis{
			{Param: "viram.Lanes", Values: []int{2, 4, 8, 16}},
			{Param: "viram.MVL", Values: []int{32, 64, 128, 256}},
		},
	}
	designs, err := req.Expand()
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]svc.JobSpec, len(designs))
	for i, d := range designs {
		specs[i] = d.Spec
	}
	return specs
}

// BenchmarkDSEGrid measures the design-space-exploration path: the
// 16-point lanes x MVL sweep through the same batch fast path /v1/dse
// uses, cold and memo-warm, plus the expansion machinery alone at the
// 512-point cap. "sim-kcycles" is the sweep's summed simulated cycles
// — identical across legs and runs, exact-gated by benchdiff.
func BenchmarkDSEGrid(b *testing.B) {
	specs := dseGridSpecs(b)
	if len(specs) != 16 {
		b.Fatalf("sweep has %d points, want 16", len(specs))
	}

	// Expansion alone at the point cap: 8x8x8 axis values = 512
	// configs validated, canonicalized, and labeled — no simulation.
	b.Run("expand-512", func(b *testing.B) {
		vals := make([]int, 8)
		for i := range vals {
			vals[i] = i + 1
		}
		lanes := []int{1, 2, 3, 4, 6, 8, 12, 16}
		req := svc.DSERequest{
			Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
			Axes: []svc.DSEAxis{
				{Param: "viram.Lanes", Values: lanes},
				{Param: "viram.MVL", Values: []int{16, 32, 48, 64, 96, 128, 192, 256}},
				{Param: "ppc.IssueWidth", Values: vals},
			},
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			designs, err := req.Expand()
			if err != nil {
				b.Fatal(err)
			}
			if len(designs) != 512 {
				b.Fatalf("expanded %d points, want 512", len(designs))
			}
		}
	})

	b.Run("cold-16", func(b *testing.B) {
		var sum uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := batchBenchService()
			b.StartTimer()
			sum = drainBatch(b, s, specs)
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(sum)/1e3, "sim-kcycles")
	})

	b.Run("warm-memo-16", func(b *testing.B) {
		s := batchBenchService()
		defer s.Close()
		drainBatch(b, s, specs) // warm every point
		var sum uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum = drainBatch(b, s, specs)
		}
		b.ReportMetric(float64(sum)/1e3, "sim-kcycles")
	})
}

// BenchmarkAblationVIRAMCornerTurnFormulation: strided loads + padding
// (the paper's implementation) vs unit-stride loads with in-register
// permutes.
func BenchmarkAblationVIRAMCornerTurnFormulation(b *testing.B) {
	m := viram.New(viram.DefaultConfig())
	spec := cornerturn.PaperSpec()
	for _, variant := range []struct {
		name string
		run  func() (core.Result, error)
	}{
		{"strided-loads", func() (core.Result, error) { return m.RunCornerTurn(spec) }},
		{"register-permutes", func() (core.Result, error) { return m.RunCornerTurnPermute(spec) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = variant.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KCycles(), "sim-kcycles")
		})
	}
}

// BenchmarkEstimateTier quantifies the quality-tier gap the estimate
// tier exists for: answering one job from the analytic roofline model
// (normalize, hash, memo, synthesize) versus actually running the
// simulator cold for the same kind of question. The acceptance target
// is >=100x lower ns/op on the estimate leg; in practice the gap is
// orders of magnitude wider.
func BenchmarkEstimateTier(b *testing.B) {
	b.Run("estimate", func(b *testing.B) {
		s := svc.NewService(svc.Options{Pool: svc.PoolOptions{Workers: 1}})
		defer s.Close()
		spec := svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}
		if _, err := s.Estimate(spec); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			job, err := s.Estimate(spec)
			if err != nil {
				b.Fatal(err)
			}
			cycles = job.Result.Cycles
		}
		b.ReportMetric(float64(cycles)/1e3, "est-kcycles")
	})

	b.Run("cold-simulate", func(b *testing.B) {
		// A fresh machine per iteration, no memo: what every estimate
		// avoids. A 256x256 corner turn keeps iterations short while
		// staying a real simulation.
		w := core.PaperWorkload()
		w.CornerTurn = cornerturn.Spec{Rows: 256, Cols: 256, BlockSize: 32}
		var last core.Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := machines.ByName("VIRAM")
			if err != nil {
				b.Fatal(err)
			}
			r, err := core.Run(m, core.CornerTurn, w)
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		b.ReportMetric(last.KCycles(), "sim-kcycles")
	})
}
