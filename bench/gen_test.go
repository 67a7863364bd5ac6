package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/machines"
)

func sweepBodies(seed int64, n int) [][]byte {
	g := newSweepGen(seed)
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, g.next().body)
	}
	return out
}

// The same seed sends byte-identical requests; another seed does not.
func TestGeneratorsAreSeeded(t *testing.T) {
	a, b, c := sweepBodies(7, 6), sweepBodies(7, 6), sweepBodies(8, 6)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("sweep request %d differs between two runs of seed 7", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Fatalf("sweep request %d identical for seeds 7 and 8", i)
		}
	}
	paper, err := paperCells()
	if err != nil {
		t.Fatal(err)
	}
	stages := []stage{{rate: 200, dur: time.Second}, {rate: 400, dur: time.Second}}
	s1 := schedule(newRNG(7, streamArrivals), stages, newInteractiveGen(7, paper))
	s2 := schedule(newRNG(7, streamArrivals), stages, newInteractiveGen(7, paper))
	if len(s1) != len(s2) || len(s1) == 0 {
		t.Fatalf("schedules of %d and %d arrivals", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].due != s2[i].due || !bytes.Equal(s1[i].req.body, s2[i].req.body) || s1[i].req.query() != s2[i].req.query() {
			t.Fatalf("arrival %d differs between two runs of seed 7", i)
		}
	}
	// Poisson arrivals at the stage rates: 600 expected.
	if n := len(s1); n < 500 || n > 700 {
		t.Errorf("%d arrivals over 200 + 400 req/s for one second each", n)
	}
}

// Cells that are not repeats are unique across the whole stream, and
// repeats come only from the previous two batches.
func TestUniqueCellsAreUnique(t *testing.T) {
	g := newSweepGen(3)
	seen := make(map[core.Workload]bool)
	var prev [2]map[int]bool
	for i := 0; i < 40; i++ {
		req := g.next()
		if req.dse != nil {
			w := *req.dse.Base.Workload
			if seen[w] {
				t.Fatalf("request %d: exploration base workload repeats", i)
			}
			seen[w] = true
			continue
		}
		units := make(map[int]bool)
		for _, c := range req.batch {
			units[c.key.unit] = true
			if c.repeat {
				if !prev[0][c.key.unit] && !prev[1][c.key.unit] {
					t.Fatalf("request %d repeats unit %d from outside the previous two batches", i, c.key.unit)
				}
				continue
			}
			if c.spec.Machine == machines.Names()[0] {
				if seen[*c.spec.Workload] {
					t.Fatalf("request %d: unique cell's workload was sent before", i)
				}
				seen[*c.spec.Workload] = true
			}
		}
		prev[1], prev[0] = prev[0], units
	}
}

// A quarter of batch cells (after the first batch, which has nothing to
// repeat) are repeats.
func TestRepeatFraction(t *testing.T) {
	g := newSweepGen(11)
	g.nextBatch()
	cells, repeats := 0, 0
	for i := 0; i < 40; i++ {
		for _, c := range g.nextBatch().batch {
			cells++
			if c.repeat {
				repeats++
			}
		}
	}
	if f := float64(repeats) / float64(cells); math.Abs(f-0.25) > 0.01 {
		t.Fatalf("repeat fraction %.4f, want 0.25 ± 0.01", f)
	}
	if cells != 40*batchUnits*len(machines.Names()) {
		t.Fatalf("%d cells in 40 batches", cells)
	}
}

// Generated cells and design points are valid specs the simulators run
// and verify: the workloads are chosen so that no operation fails.
func TestGeneratedCellsRun(t *testing.T) {
	g := newSweepGen(5)
	for i := 0; i < 6; i++ {
		req := g.next()
		if req.dse != nil {
			designs, err := req.dse.Expand()
			if err != nil {
				t.Fatal(err)
			}
			if len(designs) != dsePoints {
				t.Fatalf("exploration of %d points, want %d", len(designs), dsePoints)
			}
			for _, d := range designs {
				if _, err := d.Spec.Normalize(); err != nil {
					t.Fatalf("design %s: %v", d.Label, err)
				}
			}
			continue
		}
		for j, c := range req.batch {
			if _, err := c.spec.Normalize(); err != nil {
				t.Fatalf("batch cell %d: %v", j, err)
			}
		}
		// One cell per machine of this batch through a simulator.
		for _, c := range req.batch[:len(machines.Names())] {
			r, err := runFresh(c.spec)
			if err != nil || !r.Verified || r.Cycles == 0 {
				t.Fatalf("%s/%s: %+v %v", c.spec.Machine, c.spec.Kernel, r, err)
			}
		}
	}
	paper, err := paperCells()
	if err != nil {
		t.Fatal(err)
	}
	ig := newInteractiveGen(5, paper)
	kinds := map[ikind]int{}
	for i := 0; i < 1000; i++ {
		r := ig.next()
		kinds[r.kind]++
		if _, err := r.spec.Normalize(); err != nil {
			t.Fatalf("interactive request %d: %v", i, err)
		}
	}
	if kinds[kindHit] < 650 || kinds[kindHit] > 750 || kinds[kindCold] < 160 || kinds[kindCold] > 240 {
		t.Errorf("interactive mix %v, want about 70%% hits, 20%% cold, 10%% estimates", kinds)
	}
}
