package machines

import (
	"fmt"
	"testing"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/viram"
)

// processMemo returns the counters of the process-wide memo named name.
func processMemo(t *testing.T, name string) cache.MemoStats {
	t.Helper()
	for _, s := range cache.ProcessMemoStats() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no process-wide memo %q", name)
	return cache.MemoStats{}
}

// TestSegmentMemoExact pins the VIRAM segment memo's exactness on CSLC.
// Each CSLC workload of the accounting set, the paper's, and a twin of
// each that differs only in its hop (16 fewer samples, in the same DRAM
// rows) runs on the VIRAM config of every accounting config set and of
// a viram.Lanes × viram.MVL grid spelled as /v1/dse expands it. Each
// case runs three times: traced (every instruction issues: the oracle),
// then untraced on a memo that holds what the earlier cases stored, and
// then warm. The memo is purged once, at the start, so a segment id
// that leaves out a value its emission reads collides across cases.
// Every cycle count, counter and breakdown category must match the
// oracle, and the warm run must take every segment from the memo.
func TestSegmentMemoExact(t *testing.T) {
	var specs []namedWorkload
	for _, nw := range append([]namedWorkload{{"paper", core.PaperWorkload()}}, goldenSmallWorkloads()...) {
		twin := nw.w
		twin.CSLC.Samples -= 16
		if twin.CSLC.Hop() == nw.w.CSLC.Hop() {
			t.Fatalf("%s: the twin keeps hop %d", nw.name, nw.w.CSLC.Hop())
		}
		specs = append(specs, nw, namedWorkload{nw.name + "-hop", twin})
	}
	type namedConfig struct {
		name string
		cfg  viram.Config
	}
	var cfgs []namedConfig
	for _, cs := range goldenConfigSets() {
		cfg := viram.DefaultConfig()
		if cs.set.VIRAM != nil {
			cfg = *cs.set.VIRAM
		}
		cfgs = append(cfgs, namedConfig{cs.name, cfg})
	}
	for _, lanes := range []int{2, 8, 16} {
		for _, mvl := range []int{16, 64, 256} {
			cfg := viram.DefaultConfig()
			cfg.Lanes, cfg.FPLanes, cfg.MVL = lanes, lanes, mvl
			cfg.DRAM.SeqWordsPerCycle, cfg.DRAM.AddrGens = lanes, max(1, lanes/2)
			cfgs = append(cfgs, namedConfig{fmt.Sprintf("lanes%d-mvl%d", lanes, mvl), cfg})
		}
	}
	run := func(nc namedConfig, nw namedWorkload, traced bool) goldenCell {
		t.Helper()
		m := viram.New(nc.cfg)
		if traced {
			m.SetTracer(func(viram.TraceEntry) {})
		}
		r, err := m.RunCSLC(nw.w.CSLC)
		if err != nil {
			t.Fatalf("%s/%s: %v", nc.name, nw.name, err)
		}
		return cellOf(nc.name+"/"+nw.name, r)
	}
	cache.PurgeProcessMemos()
	for _, nc := range cfgs {
		for _, nw := range specs {
			oracle := run(nc, nw, true)
			for _, pass := range []string{"first", "warm"} {
				misses0 := processMemo(t, "viram_segment").Misses
				for _, d := range cellDiffs(run(nc, nw, false), oracle) {
					t.Errorf("%s/%s %s run: %s", nc.name, nw.name, pass, d)
				}
				if misses := processMemo(t, "viram_segment").Misses; pass == "warm" && misses != misses0 {
					t.Errorf("%s/%s warm run: %d segments missed", nc.name, nw.name, misses-misses0)
				}
			}
		}
	}
	cache.PurgeProcessMemos()
}

// TestSegmentMemoHitsWithinACell checks that the memo pays off inside
// one CSLC cell: on a purged memo, the paper cell's later channels take
// their extract and FFT stages from its first channel's.
func TestSegmentMemoHitsWithinACell(t *testing.T) {
	cache.PurgeProcessMemos()
	defer cache.PurgeProcessMemos()
	before := processMemo(t, "viram_segment")
	spec := core.PaperWorkload().CSLC
	if _, err := viram.New(viram.DefaultConfig()).RunCSLC(spec); err != nil {
		t.Fatal(err)
	}
	after := processMemo(t, "viram_segment")
	hits, misses, bytes := after.Hits-before.Hits, after.Misses-before.Misses, after.Bytes
	t.Logf("paper CSLC on a purged memo: %d hits, %d misses, %d bytes", hits, misses, bytes)
	if hits <= misses || bytes == 0 {
		t.Errorf("paper CSLC on a purged memo: %d hits, %d misses, %d bytes retained", hits, misses, bytes)
	}
}
