package viram

import (
	"reflect"
	"sync"
	"testing"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/dram"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/sim"
)

// segTemplate is the kind the property test gives its random
// templates, beside the kernels' own kinds.
const segTemplate segKind = 255

// randomInst returns a random instruction inside a heap of heap words:
// every op, unit and strided memory ops at random bases and strides,
// random registers (or none), random scalar costs, and now and then an
// integer op of VL 0.
func randomInst(rng *sim.PRNG, cfg Config, heap int) Inst {
	reg := func() int { return rng.Intn(cfg.VRegs+1) - 1 }
	in := Inst{Op: Op(rng.Intn(int(Scalar) + 1)), VL: 1 + rng.Intn(cfg.MVL), Dst: reg(), Src1: reg(), Src2: reg()}
	switch in.Op {
	case VLoad, VStore:
		in.Stride = 1
	case VLoadStride, VStoreStride:
		in.Stride = 1 + rng.Intn(600)
	case VAddI, VShift:
		if rng.Intn(8) == 0 {
			in.VL = 0
		}
	case Scalar:
		in.VL, in.Cost = 0, rng.Intn(6)
	}
	if in.Stride > 0 {
		in.Base = rng.Intn(heap - (in.VL-1)*in.Stride)
	}
	return in
}

// segmentCounts is what a program run reports: its result, the
// scoreboard's counts and the DRAM controller's.
type segmentCounts struct {
	res ExecResult
	sb  eventCounts
	mem dram.Counters
}

// TestSegmentMemoRandomPrograms runs seeded random programs made of a
// few templates repeated as segments, with random unmemoized
// instructions between them, under five configs: a traced run (every
// instruction issues, the oracle), a run on a purged memo (later
// repeats of a template hit what earlier ones stored) and a warm run
// (every segment hits). All three must agree on the result, every
// scoreboard count and the DRAM counters.
func TestSegmentMemoRandomPrograms(t *testing.T) {
	cfgs := map[string]func(*Config){
		"default":   func(*Config) {},
		"queue1":    func(c *Config) { c.IssueQueue = 1 },
		"tlb2x4KiB": func(c *Config) { c.TLBEntries, c.TLBPageBytes = 2, 4<<10 },
		"mvl16":     func(c *Config) { c.MVL = 16 },
		"reorder":   func(c *Config) { c.DRAM.Reorder = true },
	}
	const heap, templates, segmentsPerProgram = 1 << 16, 4, 48
	for name, mut := range cfgs {
		cfg := DefaultConfig()
		mut(&cfg)
		for seed := uint64(1); seed <= 4; seed++ {
			rng := sim.NewPRNG(seed)
			tpl := make([][]Inst, templates)
			for i := range tpl {
				tpl[i] = make([]Inst, 4+rng.Intn(60))
				for j := range tpl[i] {
					tpl[i][j] = randomInst(rng, cfg, heap)
				}
			}
			type step struct {
				tpl   int
				extra []Inst
			}
			steps := make([]step, segmentsPerProgram)
			for i := range steps {
				steps[i].tpl = rng.Intn(templates)
				if rng.Intn(3) == 0 {
					for range 1 + rng.Intn(4) {
						steps[i].extra = append(steps[i].extra, randomInst(rng, cfg, heap))
					}
				}
			}
			m := New(cfg)
			run := func() segmentCounts {
				m.reset()
				m.alloc(heap)
				for _, st := range steps {
					m.segment(segID{segTemplate, [8]int{int(seed), st.tpl}}, func() {
						for i := range tpl[st.tpl] {
							in := tpl[st.tpl][i]
							m.issue(&in)
						}
					})
					for i := range st.extra {
						m.issue(&st.extra[i])
					}
				}
				return segmentCounts{m.result(), m.sb.eventCounts, m.mem.Counters()}
			}
			m.SetTracer(func(TraceEntry) {})
			oracle := run()
			m.SetTracer(nil)
			segments.Purge()
			hits0, _ := segments.Counters()
			purged := run()
			hits1, misses1 := segments.Counters()
			warm := run()
			hits2, misses2 := segments.Counters()
			for _, r := range []struct {
				name string
				got  segmentCounts
			}{{"purged", purged}, {"warm", warm}} {
				if !reflect.DeepEqual(r.got, oracle) {
					t.Errorf("%s seed %d, %s run:\n got %+v\nwant %+v", name, seed, r.name, r.got, oracle)
				}
			}
			if hits1 == hits0 {
				t.Errorf("%s seed %d: no segment of the purged run hit", name, seed)
			}
			if misses2 != misses1 || hits2-hits1 != segmentsPerProgram {
				t.Errorf("%s seed %d: warm run missed %d of %d segments", name, seed, misses2-misses1, segmentsPerProgram)
			}
		}
	}
}

// TestSegmentMemoZeroLengthIntOp pins why the ALUs' free cycles floor
// at the dispatch rather than at F: the segment leaves ALU0 free at 8
// and ALU1 at 9, both before its last dispatch. An integer op of VL 0
// then takes ALU0 and frees it at F exactly, so the next integer op
// must take ALU1, which was free earlier; a state restored with both
// ALUs free at F would give it ALU0.
func TestSegmentMemoZeroLengthIntOp(t *testing.T) {
	tpl := []Inst{
		{Op: VAddI, VL: 64, Dst: -1, Src1: -1, Src2: -1},
		{Op: VAddI, VL: 64, Dst: -1, Src1: -1, Src2: -1},
	}
	for range 12 {
		tpl = append(tpl, Inst{Op: Scalar, Cost: 1, Dst: -1, Src1: -1, Src2: -1})
	}
	after := []Inst{
		{Op: VAddI, VL: 0, Dst: -1, Src1: -1, Src2: -1},
		{Op: VShift, VL: 64, Dst: -1, Src1: -1, Src2: -1},
	}
	m := New(DefaultConfig())
	run := func() eventCounts {
		m.reset()
		m.segment(segID{segTemplate, [8]int{-1}}, func() {
			for i := range tpl {
				m.issue(&tpl[i])
			}
		})
		for i := range after {
			m.issue(&after[i])
		}
		return m.sb.eventCounts
	}
	m.SetTracer(func(TraceEntry) {})
	oracle := run()
	m.SetTracer(nil)
	segments.Purge()
	for _, pass := range []string{"purged", "warm"} {
		if got := run(); got != oracle {
			t.Errorf("%s run: busy %v, want %v", pass, got.busy, oracle.busy)
		}
	}
	if oracle.busy[unitALU1] != 2*oracle.busy[unitALU0] {
		t.Errorf("oracle busy %v: the last op did not take ALU1", oracle.busy)
	}
}

// TestSegmentMemoConcurrent runs CSLC cells on four goroutines at once,
// all filling and reading one memo: every run must match its traced
// oracle.
func TestSegmentMemoConcurrent(t *testing.T) {
	specs := []cslc.Spec{
		{MainChannels: 1, AuxChannels: 1, Samples: 256, SubBands: 3, FFTSize: 64},
		{MainChannels: 2, AuxChannels: 1, Samples: 512, SubBands: 7, FFTSize: 64},
		{MainChannels: 2, AuxChannels: 2, Samples: 736, SubBands: 7, FFTSize: 128},
	}
	oracle := make([]core.Result, len(specs))
	for i, spec := range specs {
		m := New(DefaultConfig())
		m.SetTracer(func(TraceEntry) {})
		r, err := m.RunCSLC(spec)
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = r
	}
	segments.Purge()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := New(DefaultConfig())
			for round := 0; round < 3; round++ {
				for i := range specs {
					i := (i + g) % len(specs)
					r, err := m.RunCSLC(specs[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(r, oracle[i]) {
						t.Errorf("goroutine %d, spec %d: %d cycles, oracle %d (or counters differ)", g, i, r.Cycles, oracle[i].Cycles)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestConfigKeyCoversEveryField changes each numeric and boolean field
// of Config and of its dram.Config in turn: each change must change the
// segment memo's config key.
func TestConfigKeyCoversEveryField(t *testing.T) {
	base := DefaultConfig()
	want := configKey(base)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			old := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name+".")
				continue
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.String:
				continue
			default:
				t.Fatalf("field %s: unhandled kind %s", name, f.Kind())
			}
			if configKey(base) == want {
				t.Errorf("changing %s leaves the config key unchanged", name)
			}
			f.Set(old)
		}
	}
	walk(reflect.ValueOf(&base).Elem(), "")
	if configKey(base) != want {
		t.Fatal("the walk did not restore the config")
	}
}

// BenchmarkCSLCSweepCell times a sweep-sized VIRAM CSLC cell (736
// samples, 7 sub-bands drawn at hop 96: 52,464 instructions): off, with
// a tracer attached so every instruction issues; cold, with every
// process-wide memo purged before each iteration, so only the repeats within the
// cell hit; and warm, where every segment hits. Each iteration times the
// engine alone: the golden check is core.Run's.
func BenchmarkCSLCSweepCell(b *testing.B) {
	spec := cslc.Spec{MainChannels: 2, AuxChannels: 2, Samples: 736, SubBands: 1 + (736-128)/96, FFTSize: 128, Radix: fft.MixedRadix42}
	for _, mode := range []string{"off", "cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			m := New(DefaultConfig())
			if mode == "off" {
				m.SetTracer(func(TraceEntry) {})
			}
			if _, err := m.RunCSLC(spec); err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					b.StopTimer()
					cache.PurgeProcessMemos()
					b.StartTimer()
				}
				r, err := m.RunCSLC(spec)
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(cycles)/1e3, "sim-kcycles")
		})
	}
}
