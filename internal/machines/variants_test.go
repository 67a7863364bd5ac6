// Variants golden test: the ablation, extension and pipeline entry
// points that core.Run never reaches must keep every Result field
// bit-identical too. testdata/variants.golden.json holds the JSON
// encoding of measureVariantCells at the commit that introduced it.
package machines

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/imagine"
	"sigkern/internal/kernels/equalize"
	"sigkern/internal/kernels/matmul"
	"sigkern/internal/kernels/pfb"
	"sigkern/internal/rawsim"
	"sigkern/internal/viram"
)

const goldenVariantsFile = "testdata/variants.golden.json"

// variantCell is a goldenCell plus the Result fields the accounting
// golden file does not record. Err holds the entry point's error for
// inputs it rejects (the mixed radix-4/2 variants need a 2*4^k FFT
// length), so the rejection is pinned as well.
type variantCell struct {
	goldenCell
	Ops      uint64   `json:"ops"`
	Words    uint64   `json:"words"`
	Notes    []string `json:"notes,omitempty"`
	Verified bool     `json:"verified"`
	Err      string   `json:"err,omitempty"`
}

// variantInputs is one size of every variant entry point's input: the
// paper kernels' workload plus the extension kernels' specs.
type variantInputs struct {
	name string
	w    core.Workload
	mm   matmul.Spec
	pfb  pfb.Workload
	eq   equalize.Spec
}

// variantSizes are the paper instance and the small96 workload, with
// extension specs of matching scale (matmul edges a multiple of Raw's
// 32-word block, a power-of-four channel count for VIRAM's PFB).
func variantSizes() []variantInputs {
	small := goldenSmallWorkloads()[1]
	return []variantInputs{
		{"paper", core.PaperWorkload(), matmul.DefaultSpec(), pfb.DefaultWorkload(), equalize.DefaultSpec()},
		{small.name, small.w,
			matmul.Spec{M: 96, N: 96, K: 96, BlockSize: 32},
			pfb.Workload{Spec: pfb.Spec{Channels: 16, Taps: 4}, Samples: 16 * 96},
			equalize.Spec{Beams: 4, Taps: 4}},
	}
}

// variantRun is one entry point, run on a freshly built default
// machine.
type variantRun struct {
	name string
	run  func(in variantInputs) (core.Result, error)
}

func variantRuns() []variantRun {
	raw := func() *rawsim.Machine { return rawsim.New(rawsim.DefaultConfig()) }
	img := func() *imagine.Machine { return imagine.New(imagine.DefaultConfig()) }
	runs := []variantRun{
		{"Raw/RunCSLCImbalanced", func(in variantInputs) (core.Result, error) { return raw().RunCSLCImbalanced(in.w.CSLC) }},
		{"Raw/RunCSLCRadix4", func(in variantInputs) (core.Result, error) { return raw().RunCSLCRadix4(in.w.CSLC) }},
		{"Raw/RunCSLCDMA", func(in variantInputs) (core.Result, error) { return raw().RunCSLCDMA(in.w.CSLC) }},
		{"Raw/RunCSLCStream", func(in variantInputs) (core.Result, error) { return raw().RunCSLCStream(in.w.CSLC) }},
		{"Raw/RunBeamSteeringMIMD", func(in variantInputs) (core.Result, error) { return raw().RunBeamSteeringMIMD(in.w.Beam) }},
		{"Imagine/RunCSLCIndependentFFTs", func(in variantInputs) (core.Result, error) { return img().RunCSLCIndependentFFTs(in.w.CSLC) }},
		{"Imagine/RunBeamSteeringSRFTables", func(in variantInputs) (core.Result, error) { return img().RunBeamSteeringSRFTables(in.w.Beam) }},
		{"Imagine/RunBeamSteeringPipelined", func(in variantInputs) (core.Result, error) { return img().RunBeamSteeringPipelined(in.w.Beam) }},
		{"Imagine/RunPipeline", func(in variantInputs) (core.Result, error) { return img().RunPipeline(in.pfb, in.w.Beam, in.eq) }},
		{"VIRAM/RunCornerTurnPermute", func(in variantInputs) (core.Result, error) {
			return viram.New(viram.DefaultConfig()).RunCornerTurnPermute(in.w.CornerTurn)
		}},
	}
	for _, name := range Names() {
		name := name
		build := func() core.Machine {
			m, err := ByName(name)
			if err != nil {
				panic(err)
			}
			return m
		}
		runs = append(runs,
			variantRun{name + "/RunMatMul", func(in variantInputs) (core.Result, error) {
				return build().(core.MatMulRunner).RunMatMul(in.mm)
			}},
			variantRun{name + "/RunPFB", func(in variantInputs) (core.Result, error) {
				return build().(pfbRunner).RunPFB(in.pfb)
			}})
	}
	return runs
}

// measureVariantCells runs every variant entry point at every size.
func measureVariantCells(t testing.TB) []variantCell {
	t.Helper()
	var cells []variantCell
	for _, in := range variantSizes() {
		for _, v := range variantRuns() {
			name := in.name + "/" + v.name
			r, err := v.run(in)
			if err != nil {
				cells = append(cells, variantCell{goldenCell: goldenCell{Name: name}, Err: err.Error()})
				continue
			}
			cells = append(cells, variantCell{
				goldenCell: cellOf(name, r),
				Ops:        r.Ops,
				Words:      r.Words,
				Notes:      r.Notes,
				Verified:   r.Verified,
			})
		}
	}
	return cells
}

func TestVariantsMatchGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash(goldenVariantsFile))
	if err != nil {
		t.Fatal(err)
	}
	var want []variantCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := measureVariantCells(t)
	if len(got) != len(want) {
		t.Fatalf("measured %d cells, golden file has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("cell %d is %s, golden file has %s", i, g.Name, w.Name)
		}
		diffs := cellDiffs(g.goldenCell, w.goldenCell)
		if g.Ops != w.Ops || g.Words != w.Words {
			diffs = append(diffs, fmt.Sprintf("ops/words %d/%d, want %d/%d", g.Ops, g.Words, w.Ops, w.Words))
		}
		if !reflect.DeepEqual(g.Notes, w.Notes) {
			diffs = append(diffs, fmt.Sprintf("notes %q, want %q", g.Notes, w.Notes))
		}
		if g.Verified != w.Verified {
			diffs = append(diffs, fmt.Sprintf("verified %v, want %v", g.Verified, w.Verified))
		}
		if g.Err != w.Err {
			diffs = append(diffs, fmt.Sprintf("error %q, want %q", g.Err, w.Err))
		}
		for _, d := range diffs {
			t.Errorf("%s: %s", w.Name, d)
		}
	}
}

// TestFailedProofsAreNotRemembered runs the golden file's two small96
// cells whose 64-point FFT does not admit mixed radix-4/2 twice each.
// Both prove one (spec, radix) key: every call fails with its golden
// error text and is a verdict miss, and the verdict memo stores nothing.
func TestFailedProofsAreNotRemembered(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash(goldenVariantsFile))
	if err != nil {
		t.Fatal(err)
	}
	var golden []variantCell
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, c := range golden {
		want[c.Name] = c.Err
	}
	in := variantSizes()[1]
	before := processMemo(t, "core_verdict")
	for pass := 0; pass < 2; pass++ {
		for _, v := range variantRuns() {
			name := in.name + "/" + v.name
			if v.name != "Raw/RunCSLCRadix4" && v.name != "Imagine/RunCSLCIndependentFFTs" {
				continue
			}
			if want[name] == "" {
				t.Fatalf("%s: the golden file records no error", name)
			}
			if _, err := v.run(in); err == nil || err.Error() != want[name] {
				t.Errorf("%s pass %d: error %v, want %q", name, pass, err, want[name])
			}
		}
	}
	after := processMemo(t, "core_verdict")
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 4 || hits != 0 || after.Bytes != before.Bytes {
		t.Fatalf("four failed proofs: %d misses, %d hits, %d bytes retained (%d before); want 4 misses, no hit, nothing stored",
			misses, hits, after.Bytes, before.Bytes)
	}
}
