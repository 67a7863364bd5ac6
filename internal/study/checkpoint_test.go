package study

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/svc"
)

// smallCells is a 2-point x 2-machine grid of small real specs, fast
// enough to simulate in milliseconds. Tests count which cells actually
// re-simulated through Sweeper.OnCell, which fires once per fresh cell.
func smallCells() []svc.DSEDesign {
	var cells []svc.DSEDesign
	for _, p := range []struct {
		label  string
		dwells int
	}{{"p0", 1}, {"p1", 2}} {
		w := core.PaperWorkload()
		w.Beam = beamsteer.Spec{Elements: 64, Directions: 2, Dwells: p.dwells, ShiftBits: 2, Rounding: 2}
		for _, m := range []string{"VIRAM", "Raw"} {
			cells = append(cells, svc.DSEDesign{Label: p.label, Spec: svc.JobSpec{Machine: m, Kernel: core.BeamSteering, Workload: &w}})
		}
	}
	return cells
}

// TestSweepResumesFromCheckpoint is the crash-safety acceptance check:
// a sweep interrupted after some cells resumes from its checkpoint,
// re-simulating only the missing cells, and the assembled points are
// identical to an uninterrupted run.
func TestSweepResumesFromCheckpoint(t *testing.T) {
	full := NewCheckpoint("test")
	fullCalls := 0
	want, err := Sweeper{OnCell: func(label, machine string, r core.Result, elapsed time.Duration) {
		fullCalls++
		full.Add(label, machine, r, elapsed)
	}}.sweep(smallCells())
	if err != nil {
		t.Fatal(err)
	}
	if fullCalls != 4 {
		t.Fatalf("full sweep ran %d cells, want 4", fullCalls)
	}

	// The "crashed" run completed p0 before dying.
	cp := NewCheckpoint("test")
	for _, m := range []string{"VIRAM", "Raw"} {
		c, _ := full.Lookup("p0", m)
		cp.Add("p0", m, core.Result{Cycles: c.Cycles, Verified: c.Verified}, 0)
	}

	var cellsSeen []string
	got, err := Sweeper{
		Completed: cp,
		OnCell: func(label, machine string, r core.Result, elapsed time.Duration) {
			cellsSeen = append(cellsSeen, label+"/"+machine)
			cp.Add(label, machine, r, elapsed)
		},
	}.sweep(smallCells())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed sweep differs:\nfull:    %+v\nresumed: %+v", want, got)
	}
	// OnCell fires only for freshly simulated cells — p0 was
	// checkpointed — and the checkpoint now holds the whole grid.
	if !reflect.DeepEqual(cellsSeen, []string{"p1/VIRAM", "p1/Raw"}) {
		t.Fatalf("OnCell saw %v, want only p1's cells re-simulated", cellsSeen)
	}
	if cp.Len() != 4 {
		t.Fatalf("checkpoint holds %d cells, want 4", cp.Len())
	}
}

// TestSweepReRunsUnverifiedCheckpointCells proves resume only trusts
// cells whose functional output was verified; anything else re-runs.
func TestSweepReRunsUnverifiedCheckpointCells(t *testing.T) {
	cp := NewCheckpoint("test")
	cp.Add("p0", "VIRAM", core.Result{Cycles: 999999, Verified: false}, 0)

	calls := 0
	got, err := Sweeper{
		Completed: cp,
		OnCell:    func(string, string, core.Result, time.Duration) { calls++ },
	}.sweep(smallCells())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("ran %d cells, want 4 (unverified cell must re-run)", calls)
	}
	want, err := Sweeper{}.sweep(smallCells())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("unverified checkpoint cycles served:\nfresh:   %+v\nresumed: %+v", want, got)
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	cp := NewCheckpoint("matrix")
	cp.Add("256x256", "VIRAM", core.Result{Cycles: 123, Verified: true}, 0)
	cp.Add("256x256", "Raw", core.Result{Cycles: 456, Verified: false}, 0)
	// Overwrite is keyed by (label, machine).
	cp.Add("256x256", "VIRAM", core.Result{Cycles: 124, Verified: true}, 0)
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Sweep() != "matrix" || loaded.Len() != 2 {
		t.Fatalf("loaded sweep=%q len=%d", loaded.Sweep(), loaded.Len())
	}
	cell, ok := loaded.Lookup("256x256", "VIRAM")
	if !ok || cell.Cycles != 124 || !cell.Verified {
		t.Fatalf("VIRAM cell: %+v ok=%v", cell, ok)
	}
	if cell, _ := loaded.Lookup("256x256", "Raw"); cell.Verified {
		t.Fatalf("Raw cell verified flag not preserved: %+v", cell)
	}
	if _, ok := loaded.Lookup("512x512", "VIRAM"); ok {
		t.Fatal("phantom cell")
	}

	// The atomic save leaves no temp litter behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".checkpoint-") {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}
}

func TestLoadCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	bad := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(bad, []byte(`{"sweep":"matrix","cells":[{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bad); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("corrupt file: %v", err)
	}
}
