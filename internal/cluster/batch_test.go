// Gateway batch tests: POST /v1/batch splits a group across the ring
// by spec hash, merges the shards' NDJSON streams into one response,
// and survives a shard dying mid-group — every submitted index comes
// back exactly once, bit-identical to a single-node run.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/svc"
)

// postBatch POSTs body to the gateway's /v1/batch and decodes the
// merged NDJSON stream into cells (keyed by index) plus the trailing
// summary.
func postBatch(t *testing.T, url, contentType, body string) (map[int]svc.BatchResult, svc.BatchSummary, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/batch: %d: %s", resp.StatusCode, buf.String())
	}
	cells := make(map[int]svc.BatchResult)
	var sum svc.BatchSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Index *int `json:"index"`
			Done  bool `json:"done"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		if probe.Index == nil {
			// The merged summary is the only index-less line.
			if err := json.Unmarshal(raw, &sum); err != nil || !probe.Done {
				t.Fatalf("unexpected stream line %q", raw)
			}
			continue
		}
		var br svc.BatchResult
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("bad cell line %q: %v", raw, err)
		}
		if _, dup := cells[br.Index]; dup {
			t.Fatalf("index %d answered twice", br.Index)
		}
		cells[br.Index] = br
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cells, sum, resp
}

// gridBody builds the compact grid form covering all five machines —
// guaranteed to hash across more than one of three shards.
func gridBody(t *testing.T) string {
	t.Helper()
	w := smallWorkload()
	body, err := json.Marshal(svc.BatchGrid{
		Kernels:   []core.KernelID{core.CornerTurn, core.BeamSteering},
		Workloads: []*core.Workload{&w},
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestGatewayBatchSplitsAndMerges: a 10-cell grid through the gateway
// answers every index exactly once with the same cycles a single node
// computes, and the work actually spreads over multiple shards.
func TestGatewayBatchSplitsAndMerges(t *testing.T) {
	tc := newTestCluster(t, nil)
	cells, sum, _ := postBatch(t, tc.gwSrv.URL, "application/json", gridBody(t))

	w := smallWorkload()
	want := svc.BatchGrid{
		Kernels:   []core.KernelID{core.CornerTurn, core.BeamSteering},
		Workloads: []*core.Workload{&w},
	}.Expand()
	if len(cells) != len(want) || sum.Cells != len(want) || sum.Failed != 0 {
		t.Fatalf("cells %d, summary %+v, want %d cells", len(cells), sum, len(want))
	}

	// Every cell bit-identical to a direct single-node run.
	ref := svc.NewService(svc.Options{})
	defer ref.Close()
	for i, spec := range want {
		br, ok := cells[i]
		if !ok {
			t.Fatalf("index %d missing from merged stream", i)
		}
		if br.State != svc.Done || br.Result == nil {
			t.Fatalf("cell %d: state %s error %q", i, br.State, br.Error)
		}
		refJob, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		refDone, err := ref.Wait(t.Context(), refJob.ID)
		if err != nil {
			t.Fatal(err)
		}
		if br.Result.Cycles != refDone.Result.Cycles {
			t.Fatalf("cell %d (%s/%s): gateway %d cycles, single node %d",
				i, spec.Machine, spec.Kernel, br.Result.Cycles, refDone.Result.Cycles)
		}
	}

	// The split was real: more than one shard holds member jobs.
	shardsUsed := 0
	for _, s := range tc.services {
		if len(s.Jobs()) > 0 {
			shardsUsed++
		}
	}
	if shardsUsed < 2 {
		t.Fatalf("batch landed on %d shard(s); want a real split", shardsUsed)
	}
}

// TestGatewayBatchShardDeathReroutes kills one shard before the batch:
// its cells reroute to ring successors, the merged stream still covers
// every index, and nothing fails.
func TestGatewayBatchShardDeathReroutes(t *testing.T) {
	tc := newTestCluster(t, nil)
	// Find a shard that owns at least one cell of the grid, then kill it.
	w := smallWorkload()
	specs := svc.BatchGrid{
		Kernels:   []core.KernelID{core.CornerTurn, core.BeamSteering},
		Workloads: []*core.Workload{&w},
	}.Expand()
	owners := make(map[string]bool)
	for _, spec := range specs {
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := norm.Hash()
		if err != nil {
			t.Fatal(err)
		}
		owners[tc.gw.routeOrder(hash)[0]] = true
	}
	var victim string
	for name := range owners {
		victim = name
		break
	}
	tc.servers[victim].Close()

	before := tc.gw.Metrics().Snapshot().Reroutes
	cells, sum, _ := postBatch(t, tc.gwSrv.URL, "application/json", gridBody(t))
	if len(cells) != len(specs) || sum.Failed != 0 {
		t.Fatalf("after killing %s: %d cells, summary %+v", victim, len(cells), sum)
	}
	for i := range specs {
		br, ok := cells[i]
		if !ok {
			t.Fatalf("index %d lost after shard death", i)
		}
		if br.State != svc.Done || br.Result == nil {
			t.Fatalf("cell %d: state %s error %q", i, br.State, br.Error)
		}
	}
	if tc.gw.Metrics().Snapshot().Reroutes <= before {
		t.Fatal("shard death produced no reroute")
	}
	if len(tc.services[victim].Jobs()) != 0 {
		t.Fatalf("dead shard %s somehow ran jobs", victim)
	}
}

// TestGatewayBatchAllShardsDeadSynthesizesFailures: with the whole
// ring down, every index still comes back — as a synthesized failed
// cell carrying the spec — and the summary counts them.
func TestGatewayBatchAllShardsDeadSynthesizesFailures(t *testing.T) {
	tc := newTestCluster(t, nil)
	for _, srv := range tc.servers {
		srv.Close()
	}
	cells, sum, _ := postBatch(t, tc.gwSrv.URL, "application/json", gridBody(t))
	w := smallWorkload()
	want := svc.BatchGrid{
		Kernels:   []core.KernelID{core.CornerTurn, core.BeamSteering},
		Workloads: []*core.Workload{&w},
	}.Expand()
	if len(cells) != len(want) || sum.Failed != len(want) {
		t.Fatalf("cells %d, summary %+v, want %d failed", len(cells), sum, len(want))
	}
	for i := range want {
		br, ok := cells[i]
		if !ok {
			t.Fatalf("index %d dropped instead of synthesized", i)
		}
		if br.State != svc.Failed || br.Error == "" {
			t.Fatalf("cell %d: state %s error %q, want synthesized failure", i, br.State, br.Error)
		}
	}
}

// TestGatewayBatchBadLineAndOversized pins the gateway-side input
// errors: a malformed NDJSON line answers 400 naming the line, and a
// cell count past the cap answers 413 without touching any shard.
func TestGatewayBatchBadLineAndOversized(t *testing.T) {
	tc := newTestCluster(t, nil)

	w := smallWorkload()
	good, err := json.Marshal(svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.gwSrv.URL+"/v1/batch", "application/x-ndjson",
		strings.NewReader(string(good)+"\n{not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "line 2") {
		t.Fatalf("malformed line: %d %q, want 400 naming line 2", resp.StatusCode, buf.String())
	}

	var big strings.Builder
	for i := 0; i <= svc.MaxBatchCells; i++ {
		fmt.Fprintf(&big, "%s\n", good)
	}
	resp, err = http.Post(tc.gwSrv.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(big.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d, want 413", resp.StatusCode)
	}
	for name, s := range tc.services {
		if n := len(s.Jobs()); n != 0 {
			t.Fatalf("rejected batches leaked %d jobs to shard %s", n, name)
		}
	}
}
