package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sigkern/internal/study"
)

// sweeps names every sweep run accepts. testdata/<name>.json is that
// sweep's checkpoint as `sweep -what <name> -workers 1 -checkpoint`
// wrote it when each sweep cell still built its own machine, so the
// test pins today's cycles to those runs and keeps old checkpoint files
// resumable.
var sweeps = []string{"matrix", "addrgens", "tiles", "descriptors", "dwells", "fftsize"}

// checkpointCells reads a checkpoint file's cells in file order with the
// wall-clock elapsed times dropped: label, machine, cycles and verified.
func checkpointCells(t *testing.T, path string) []study.Cell {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Cells []study.Cell }
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for i := range f.Cells {
		f.Cells[i].ElapsedMS = 0
	}
	return f.Cells
}

// runTable runs one sweep and returns its rendered table, without the
// per-machine summary (which reports wall-clock times).
func runTable(t *testing.T, what string, workers int, checkpoint string, resume bool) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(what, workers, checkpoint, resume, &out); err != nil {
		t.Fatalf("sweep %s at %d worker(s): %v", what, workers, err)
	}
	table, _, _ := strings.Cut(out.String(), "\nPer-machine cell metrics:")
	return table
}

// TestSweepsMatchCheckpoints runs all six sweeps at one worker and at
// four. Each run's checkpoint must hold the committed file's cells in
// the same order with the same cycles and verified flags, and both runs
// must render the same table. Resuming from a copy of the committed
// file must re-simulate nothing: the copy is never rewritten and the
// table is unchanged.
func TestSweepsMatchCheckpoints(t *testing.T) {
	for _, what := range sweeps {
		t.Run(what, func(t *testing.T) {
			golden := filepath.Join("testdata", what+".json")
			want := checkpointCells(t, golden)
			var table string
			for _, workers := range []int{1, 4} {
				path := filepath.Join(t.TempDir(), what+".json")
				got := runTable(t, what, workers, path, false)
				if cells := checkpointCells(t, path); !reflect.DeepEqual(cells, want) {
					t.Fatalf("%d worker(s): checkpoint cells differ from %s:\ngot:  %+v\nwant: %+v", workers, golden, cells, want)
				}
				if table == "" {
					table = got
				} else if got != table {
					t.Fatalf("%d worker(s) rendered a different table:\n%s\nwant:\n%s", workers, got, table)
				}
			}

			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), what+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := runTable(t, what, 4, path, true); got != table {
				t.Fatalf("resumed table differs:\n%s\nwant:\n%s", got, table)
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// A re-simulated cell would be saved through a temp file
			// renamed over the checkpoint.
			if !os.SameFile(before, after) || !bytes.Equal(resumed, data) {
				t.Fatal("resume rewrote the checkpoint: a verified cell re-simulated")
			}
		})
	}
}
