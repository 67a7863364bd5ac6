package svc

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/roofline"
)

// TestHTTPRooflineGrid is the endpoint's acceptance check: the grid's
// corner-turn cells are bit-identical to the roofline Table 4 bounds,
// every kernel with declared metadata appears, and the simulated cells
// carry their model error.
func TestHTTPRooflineGrid(t *testing.T) {
	s, srv := newTestServer(t)

	var rd RooflineData
	if resp := getJSON(t, srv.URL+"/v1/roofline", &rd); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	wantCells := len(roofline.Table1()) * len(roofline.GridKernels())
	if len(rd.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(rd.Cells), wantCells)
	}

	cell := make(map[string]map[core.KernelID]roofline.Cell)
	for _, c := range rd.Cells {
		if cell[c.Machine] == nil {
			cell[c.Machine] = make(map[core.KernelID]roofline.Cell)
		}
		cell[c.Machine][c.Kernel] = c
	}

	w := core.PaperWorkload()
	for _, tp := range roofline.Table1() {
		ct := cell[tp.Machine][core.CornerTurn]
		want, err := roofline.ForJob(tp.Machine, core.CornerTurn, w)
		if err != nil {
			t.Fatal(err)
		}
		if ct.PeakCycles != want.PeakCycles {
			t.Errorf("%s corner-turn peak = %d, want %d (bit-identity)", tp.Machine, ct.PeakCycles, want.PeakCycles)
		}
		if ct.Cycles != want.Cycles {
			t.Errorf("%s corner-turn refined = %d, want %d (bit-identity)", tp.Machine, ct.Cycles, want.Cycles)
		}
		// Every paper-kernel cell simulated, with its error populated and
		// inside the envelope (real simulators, real bounds).
		for _, k := range core.Kernels() {
			c := cell[tp.Machine][k]
			if !c.Simulated || c.SimCycles == 0 || c.ErrorRatio <= 0 {
				t.Errorf("%s/%s: no simulation attached: %+v", tp.Machine, k, c)
				continue
			}
			if !c.WithinEnvelope {
				t.Errorf("%s/%s: ratio %.3f outside [%v, %v]", tp.Machine, k, c.ErrorRatio, c.EnvelopeLo, c.EnvelopeHi)
			}
		}
		// Extension kernels with a machine implementation are simulated
		// too; equalize and fft stay model-only.
		for _, k := range []core.KernelID{core.MatMul, roofline.PFB} {
			if c := cell[tp.Machine][k]; !c.Simulated {
				t.Errorf("%s/%s: extension cell not simulated", tp.Machine, k)
			}
		}
		for _, k := range []core.KernelID{roofline.Equalize, roofline.FFT} {
			c := cell[tp.Machine][k]
			if c.Simulated {
				t.Errorf("%s/%s: model-only cell claims a simulation", tp.Machine, k)
			}
			if c.Cycles == 0 {
				t.Errorf("%s/%s: zero model prediction", tp.Machine, k)
			}
		}
	}

	// The grid's error ratios are published to the per-cell gauge.
	snap := s.Metrics().Snapshot()
	if snap.ModelDrift != 0 {
		t.Fatalf("healthy grid fired %d drift alerts", snap.ModelDrift)
	}
	var sb strings.Builder
	if err := s.Metrics().Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `simserved_cell_model_error_ratio{machine="VIRAM",kernel="corner-turn"}`) {
		t.Error("grid ratios not exposed as gauges")
	}

	// Text rendering: the report table with the error column.
	resp, err := http.Get(srv.URL + "/v1/roofline?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{"Sim/Model", "corner-turn", "VIRAM", "pfb", "equalize"} {
		if !strings.Contains(text, want) {
			t.Errorf("text grid missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "DRIFT") {
		t.Errorf("healthy grid renders DRIFT:\n%s", text)
	}
}

// TestHTTPRooflineModelOnly covers ?sim=0: the grid comes back without
// touching the pool, and a bad sim value is a structured 400.
func TestHTTPRooflineModelOnly(t *testing.T) {
	s, srv := newTestServer(t)

	var rd RooflineData
	if resp := getJSON(t, srv.URL+"/v1/roofline?sim=0", &rd); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, c := range rd.Cells {
		if c.Simulated {
			t.Fatalf("%s/%s simulated under ?sim=0", c.Machine, c.Kernel)
		}
		if c.Cycles == 0 {
			t.Fatalf("%s/%s: zero model prediction", c.Machine, c.Kernel)
		}
	}
	if snap := s.Metrics().Snapshot(); snap.Queued != 0 {
		t.Fatalf("model-only grid admitted %d pool jobs", snap.Queued)
	}

	var pe ParamError
	resp := getJSON(t, srv.URL+"/v1/roofline?sim=maybe", &pe)
	if resp.StatusCode != http.StatusBadRequest || pe.Parameter != "sim" {
		t.Fatalf("bad sim: status %d body %+v", resp.StatusCode, pe)
	}
}
