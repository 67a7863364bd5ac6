// Reset-contract tests: every paper machine must implement
// core.Resettable, and a reset instance must reproduce a fresh
// instance's cycle counts bit-identically — the property any caller
// that runs one instance more than once (core.RunStudy, a benchmark
// loop) rests on.
package machines

import (
	"testing"

	"sigkern/internal/core"
)

func TestAllMachinesResettable(t *testing.T) {
	for _, m := range All() {
		if _, ok := m.(core.Resettable); !ok {
			t.Errorf("%s does not implement core.Resettable", m.Name())
		}
	}
}

// TestResetReproducesFreshRuns runs every kernel on a fresh instance,
// then drives one long-lived instance through the whole kernel set
// twice with a Reset before each run: every reused-instance cycle
// count, event counter and breakdown category must equal the fresh
// instance's exactly. Counters matter as much as cycles: one that Reset
// forgot to zero would inflate every reused instance's Result.Stats.
func TestResetReproducesFreshRuns(t *testing.T) {
	w := core.PaperWorkload()
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			fresh := make(map[core.KernelID]core.Result)
			for _, k := range core.Kernels() {
				m, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				r, err := core.Run(m, k, w)
				if err != nil {
					t.Fatal(err)
				}
				fresh[k] = r
			}
			reused, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rst, ok := reused.(core.Resettable)
			if !ok {
				t.Fatalf("%s not Resettable", name)
			}
			for pass := 0; pass < 2; pass++ {
				for _, k := range core.Kernels() {
					rst.Reset()
					r, err := core.Run(reused, k, w)
					if err != nil {
						t.Fatalf("pass %d %s: %v", pass, k, err)
					}
					for _, d := range cellDiffs(cellOf("reused", r), cellOf("fresh", fresh[k])) {
						t.Errorf("pass %d %s: reused instance: %s", pass, k, d)
					}
				}
			}
		})
	}
}
