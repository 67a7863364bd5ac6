package ppc

import (
	"fmt"
	"testing"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
)

// traceWorkload is small enough to run many times and large enough
// that each kernel's walk misses in L1 and L2.
func traceWorkload() core.Workload {
	return core.Workload{
		CornerTurn: cornerturn.Spec{Rows: 256, Cols: 256, BlockSize: 16},
		CSLC:       cslc.Spec{MainChannels: 2, AuxChannels: 2, Samples: 1024, SubBands: 15, FFTSize: 128, Radix: fft.Radix2},
		Beam:       beamsteer.Spec{Elements: 512, Directions: 4, Dwells: 8, ShiftBits: 2, Rounding: 2},
	}
}

// sameResult reports the first field in which two results differ.
func sameResult(got, want core.Result) error {
	if got.Cycles != want.Cycles {
		return fmt.Errorf("%d cycles, want %d", got.Cycles, want.Cycles)
	}
	for _, n := range want.Stats.Names() {
		if got.Stats.Get(n) != want.Stats.Get(n) {
			return fmt.Errorf("counter %s = %d, want %d", n, got.Stats.Get(n), want.Stats.Get(n))
		}
	}
	for _, c := range want.Breakdown.Categories() {
		if got.Breakdown.Get(c) != want.Breakdown.Get(c) {
			return fmt.Errorf("breakdown %s = %d, want %d", c, got.Breakdown.Get(c), want.Breakdown.Get(c))
		}
	}
	return nil
}

// TestResetReproducesFreshWalks is the reset check with the trace memo
// out of the way: the memo is purged before every run, so the fresh
// instances and the reused one each walk their own hierarchy, and a
// Reset that leaks cache, DRAM or accounting state shows up as a
// difference. (Without the purge, the reused instance would read the
// fresh instances' walk costs from the memo.)
func TestResetReproducesFreshWalks(t *testing.T) {
	w := traceWorkload()
	for _, v := range []Variant{Scalar, AltiVec} {
		fresh := make(map[core.KernelID]core.Result)
		for _, k := range core.Kernels() {
			walks.Purge()
			r, err := core.Run(New(DefaultConfig(v)), k, w)
			if err != nil {
				t.Fatal(err)
			}
			fresh[k] = r
		}
		reused := New(DefaultConfig(v))
		for pass := 0; pass < 2; pass++ {
			for _, k := range core.Kernels() {
				walks.Purge()
				reused.Reset()
				r, err := core.Run(reused, k, w)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResult(r, fresh[k]); err != nil {
					t.Errorf("%s pass %d %s: reused instance: %v", v, pass, k, err)
				}
			}
		}
	}
}

// TestTraceMemoSharedByVariants checks the memo's reason to exist: a
// scalar run and an AltiVec run of one spec walk once, the second run is
// a hit, and both equal their purged-memo results.
func TestTraceMemoSharedByVariants(t *testing.T) {
	spec := traceWorkload().CornerTurn
	cold := map[Variant]core.Result{}
	for _, v := range []Variant{Scalar, AltiVec} {
		walks.Purge()
		r, err := New(DefaultConfig(v)).RunCornerTurn(spec)
		if err != nil {
			t.Fatal(err)
		}
		cold[v] = r
	}
	walks.Purge()
	hits0, misses0 := walks.Counters()
	for _, v := range []Variant{Scalar, AltiVec} {
		r, err := New(DefaultConfig(v)).RunCornerTurn(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(r, cold[v]); err != nil {
			t.Errorf("%s after the other variant's walk: %v", v, err)
		}
	}
	if hits, misses := walks.Counters(); hits-hits0 != 1 || misses-misses0 != 1 {
		t.Errorf("two variants of one spec: %d hits, %d misses; want 1 and 1", hits-hits0, misses-misses0)
	}
	if b := walks.Bytes(); b <= 0 || b > walkBudget {
		t.Errorf("trace memo retains %d bytes, budget %d", b, walkBudget)
	}
}

// BenchmarkWalkCold is the first-run cost of a PPC cell: every
// process-wide memo is purged every iteration, so each one walks the
// kernel's access trace through the hierarchy, as the first of a
// PPC/AltiVec pair does, and proves its formulation against a fresh
// reference, as a cold daemon does. (The Table3 rows read memo hits
// after their first iteration.)
func BenchmarkWalkCold(b *testing.B) {
	w := core.PaperWorkload()
	for _, k := range core.Kernels() {
		b.Run(string(k), func(b *testing.B) {
			m := New(DefaultConfig(Scalar))
			var last core.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache.PurgeProcessMemos()
				r, err := core.Run(m, k, w)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.KCycles(), "sim-kcycles")
		})
	}
}

// TestTraceMemoConcurrentRuns starts both variants of one spec on fresh
// instances from many goroutines after a purge: the walk runs once
// (one miss), and every result equals its variant's purged-memo run.
func TestTraceMemoConcurrentRuns(t *testing.T) {
	spec := traceWorkload().CSLC
	cold := map[Variant]core.Result{}
	for _, v := range []Variant{Scalar, AltiVec} {
		walks.Purge()
		r, err := New(DefaultConfig(v)).RunCSLC(spec)
		if err != nil {
			t.Fatal(err)
		}
		cold[v] = r
	}
	walks.Purge()
	_, misses0 := walks.Counters()
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		v := Variant(i % 2)
		go func() {
			r, err := New(DefaultConfig(v)).RunCSLC(spec)
			if err == nil {
				err = sameResult(r, cold[v])
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if _, misses := walks.Counters(); misses-misses0 != 1 {
		t.Errorf("%d concurrent runs of one spec walked %d times, want once", n, misses-misses0)
	}
	walks.Purge()
}
