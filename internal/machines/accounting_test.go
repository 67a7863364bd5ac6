// Accounting golden test: every simulated quantity a Result reports —
// cycles, each event counter and each breakdown category — must stay
// bit-identical while the engines' host-side implementation changes.
// testdata/accounting.golden.json holds the JSON encoding of
// measureGoldenCells at the commit that introduced it.
package machines

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/ppc"
	"sigkern/internal/rawsim"
	"sigkern/internal/viram"
)

const goldenAccountingFile = "testdata/accounting.golden.json"

// goldenCell is one (config, workload, machine, kernel) measurement.
type goldenCell struct {
	Name      string            `json:"name"`
	Cycles    uint64            `json:"cycles"`
	Stats     map[string]uint64 `json:"stats"`
	Breakdown map[string]uint64 `json:"breakdown"`
}

type namedWorkload struct {
	name string
	w    core.Workload
}

type namedConfigSet struct {
	name string
	set  ConfigSet
	// machines restricts the set to these machines; nil runs all five.
	machines []string
}

// goldenSmallWorkloads span corner turns below, at and above the
// blocked variants' tile sizes, and reduced CSLC and beam-steering
// instances that still exercise every machine's code path.
func goldenSmallWorkloads() []namedWorkload {
	return []namedWorkload{
		{"small16", core.Workload{
			CornerTurn: cornerturn.Spec{Rows: 16, Cols: 16, BlockSize: 16},
			CSLC:       cslc.Spec{MainChannels: 1, AuxChannels: 1, Samples: 256, SubBands: 3, FFTSize: 64, Radix: fft.Radix4},
			Beam:       beamsteer.Spec{Elements: 64, Directions: 2, Dwells: 2, ShiftBits: 2, Rounding: 2},
		}},
		{"small96", core.Workload{
			CornerTurn: cornerturn.Spec{Rows: 96, Cols: 96, BlockSize: 16},
			CSLC:       cslc.Spec{MainChannels: 2, AuxChannels: 1, Samples: 512, SubBands: 7, FFTSize: 64, Radix: fft.MixedRadix42},
			Beam:       beamsteer.Spec{Elements: 200, Directions: 4, Dwells: 3, ShiftBits: 2, Rounding: 2},
		}},
		{"small256", core.Workload{
			CornerTurn: cornerturn.Spec{Rows: 256, Cols: 256, BlockSize: 16},
			CSLC:       cslc.Spec{MainChannels: 2, AuxChannels: 2, Samples: 1024, SubBands: 15, FFTSize: 128, Radix: fft.MixedRadix42},
			Beam:       beamsteer.Spec{Elements: 512, Directions: 4, Dwells: 8, ShiftBits: 2, Rounding: 2},
		}},
	}
}

// goldenConfigSets are the paper configuration, one set that moves the
// structures whose accounting is easiest to get wrong (a small TLB that
// evicts constantly, a bank count that is not a power of two, a small
// two-way L1, and a 2x2 Raw mesh), and two VIRAM-only sets at the edges
// of its scoreboard: a narrow machine whose vectors cross a TLB page
// every three words behind a three-deep issue queue, and a wide one
// whose 256-element vectors span whole CSLC strips.
func goldenConfigSets() []namedConfigSet {
	v := viram.DefaultConfig()
	v.TLBEntries = 8
	v.DRAM.Banks = 6
	p := ppc.DefaultConfig(ppc.Scalar)
	p.L1 = cache.Config{Name: "l1-8k-2way", SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2, HitLatency: 1}
	r := rawsim.DefaultConfig()
	r.Mesh.Width, r.Mesh.Height = 2, 2
	narrow := viram.DefaultConfig()
	narrow.Lanes, narrow.FPLanes, narrow.MVL = 2, 2, 32
	narrow.IssueQueue, narrow.TLBEntries, narrow.TLBPageBytes = 3, 2, 12
	wide := viram.DefaultConfig()
	wide.Lanes, wide.FPLanes, wide.MVL = 16, 16, 256
	return []namedConfigSet{
		{"default", ConfigSet{}, nil},
		{"alt", ConfigSet{PPC: &p, VIRAM: &v, Raw: &r}, nil},
		{"viram-narrow", ConfigSet{VIRAM: &narrow}, []string{"VIRAM"}},
		{"viram-wide", ConfigSet{VIRAM: &wide}, []string{"VIRAM"}},
	}
}

// goldenCellsFor runs every kernel of w on each named machine of set,
// each on a freshly built instance.
func goldenCellsFor(t testing.TB, prefix string, set ConfigSet, names []string, w core.Workload) []goldenCell {
	t.Helper()
	var out []goldenCell
	for _, name := range names {
		for _, k := range core.Kernels() {
			m, err := set.Machine(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.Run(m, k, w)
			if err != nil {
				t.Fatalf("%s/%s/%s: %v", prefix, name, k, err)
			}
			out = append(out, cellOf(prefix+"/"+name+"/"+string(k), r))
		}
	}
	return out
}

// cellOf records a result's cycles, counters and breakdown categories.
func cellOf(name string, r core.Result) goldenCell {
	c := goldenCell{
		Name:      name,
		Cycles:    r.Cycles,
		Stats:     map[string]uint64{},
		Breakdown: map[string]uint64{},
	}
	for _, s := range r.Stats.Names() {
		c.Stats[s] = r.Stats.Get(s)
	}
	for _, b := range r.Breakdown.Categories() {
		c.Breakdown[b] = r.Breakdown.Get(b)
	}
	return c
}

// measureGoldenCells returns the 15 paper cells followed by the small
// cells under every golden config set.
func measureGoldenCells(t testing.TB) []goldenCell {
	t.Helper()
	cells := goldenCellsFor(t, "paper/default", ConfigSet{}, Names(), core.PaperWorkload())
	for _, cs := range goldenConfigSets() {
		names := cs.machines
		if names == nil {
			names = Names()
		}
		for _, nw := range goldenSmallWorkloads() {
			cells = append(cells, goldenCellsFor(t, nw.name+"/"+cs.name, cs.set, names, nw.w)...)
		}
	}
	return cells
}

// unionNames returns the sorted union of the keys of a and b.
func unionNames(a, b map[string]uint64) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestAccountingMatchesGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash(goldenAccountingFile))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := measureGoldenCells(t)
	if len(got) != len(want) {
		t.Fatalf("measured %d cells, golden file has %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.Name {
			t.Fatalf("cell %d is %s, golden file has %s", i, got[i].Name, w.Name)
		}
		for _, d := range cellDiffs(got[i], w) {
			t.Errorf("%s: %s", w.Name, d)
		}
	}
}

// cellDiffs lists every cycle, counter and breakdown difference between
// two cells. Names are compared over the union of both sides, so a name
// present on one side only must be zero on the other.
func cellDiffs(got, want goldenCell) []string {
	var out []string
	if got.Cycles != want.Cycles {
		out = append(out, fmt.Sprintf("%d cycles, want %d", got.Cycles, want.Cycles))
	}
	for _, n := range unionNames(want.Stats, got.Stats) {
		if got.Stats[n] != want.Stats[n] {
			out = append(out, fmt.Sprintf("counter %s = %d, want %d", n, got.Stats[n], want.Stats[n]))
		}
	}
	for _, n := range unionNames(want.Breakdown, got.Breakdown) {
		if got.Breakdown[n] != want.Breakdown[n] {
			out = append(out, fmt.Sprintf("breakdown %s = %d, want %d", n, got.Breakdown[n], want.Breakdown[n]))
		}
	}
	return out
}
