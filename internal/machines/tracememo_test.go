package machines

import (
	"strconv"
	"testing"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/ppc"
)

// TestTraceMemoExact pins the PPC trace memo's exactness. The PPC and
// AltiVec rows share one memoized walk per (kernel spec, memory config),
// and the key leaves out the variant and the cost-model parameters. So
// for every accounting config set that has the G4 rows, each
// IssueWidth in {paper, 1, 4, 16} and each workload, both rows are run
// once on a purged memo (each walks its own hierarchy), and then again
// with the memo warmed by the first of them (the paper-width scalar
// run): every cycle count, counter and breakdown category must match.
func TestTraceMemoExact(t *testing.T) {
	type runCase struct {
		name string
		set  ConfigSet
	}
	workloads := append([]namedWorkload{{"paper", core.PaperWorkload()}}, goldenSmallWorkloads()...)
	for _, cs := range goldenConfigSets() {
		if cs.machines != nil {
			continue // the VIRAM-only sets
		}
		var cases []runCase
		for _, width := range []int{0, 1, 4, 16} {
			p := ppc.DefaultConfig(ppc.Scalar)
			if cs.set.PPC != nil {
				p = *cs.set.PPC
			}
			if width != 0 {
				p.IssueWidth = width
			}
			set := cs.set
			set.PPC = &p
			cases = append(cases, runCase{cs.name + "/width" + strconv.Itoa(p.IssueWidth), set})
		}
		for _, nw := range workloads {
			if nw.name == "paper" && cs.name != "default" {
				continue // the paper instance once is enough
			}
			for _, k := range core.Kernels() {
				run := func(c runCase, name string) goldenCell {
					t.Helper()
					m, err := c.set.Machine(name)
					if err != nil {
						t.Fatal(err)
					}
					r, err := core.Run(m, k, nw.w)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", c.name, nw.name, name, k, err)
					}
					return cellOf(c.name+"/"+nw.name+"/"+name+"/"+string(k), r)
				}
				cold := map[string]goldenCell{}
				for _, c := range cases {
					for _, name := range []string{"PPC", "AltiVec"} {
						cache.PurgeProcessMemos()
						cold[c.name+name] = run(c, name)
					}
				}
				cache.PurgeProcessMemos()
				for _, c := range cases {
					for _, name := range []string{"PPC", "AltiVec"} {
						for _, d := range cellDiffs(run(c, name), cold[c.name+name]) {
							t.Errorf("%s/%s/%s/%s warm memo: %s", c.name, nw.name, name, k, d)
						}
					}
				}
			}
		}
	}
	cache.PurgeProcessMemos()
}
