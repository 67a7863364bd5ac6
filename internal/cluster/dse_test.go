package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/machines"
	"sigkern/internal/svc"
)

// postDSE posts a DSERequest through the gateway and returns the
// response; the caller owns resp.Body.
func postDSE(t *testing.T, url string, req svc.DSERequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/dse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readDSEStream decodes a merged /v1/dse NDJSON response into its
// point lines plus the final gateway summary.
func readDSEStream(t *testing.T, body io.Reader) (points []svc.DSEPoint, sum svc.DSESummary) {
	t.Helper()
	dec := json.NewDecoder(body)
	sawSummary := false
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		if sawSummary {
			t.Fatalf("line after summary: %s", raw)
		}
		var probe struct {
			Index  *int `json:"index"`
			Points *int `json:"points"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		if probe.Points != nil && probe.Index == nil {
			if err := json.Unmarshal(raw, &sum); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
			continue
		}
		var pt svc.DSEPoint
		if err := json.Unmarshal(raw, &pt); err != nil {
			t.Fatalf("bad point line %q: %v", raw, err)
		}
		points = append(points, pt)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return points, sum
}

// TestGatewayDSELanesSweep is the cluster half of the sweep acceptance
// criterion: the same VIRAM lanes exploration that works against one
// simserved works through simgate — split across shards by each
// design point's canonical spec hash, streamed back merged with global
// indices intact, and summarized under one gateway-computed Pareto
// frontier.
func TestGatewayDSELanesSweep(t *testing.T) {
	tc := newTestCluster(t, nil)
	resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
		Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
		Axes: []svc.DSEAxis{{Param: "viram.Lanes", Values: []int{2, 4, 8, 16}}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-DSE-Points"); got != "4" {
		t.Fatalf("X-DSE-Points = %q, want 4", got)
	}

	points, sum := readDSEStream(t, resp.Body)
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	byIndex := make(map[int]svc.DSEPoint, len(points))
	for _, pt := range points {
		if pt.State != svc.Done || pt.Error != "" {
			t.Fatalf("point %d (%s): state %s error %q", pt.Index, pt.Label, pt.State, pt.Error)
		}
		byIndex[pt.Index] = pt
	}
	// Global indices survive the shard split: 0..3 in axis order, and
	// the cycle counts improve monotonically with the lane count.
	var prev uint64
	for i := 0; i < 4; i++ {
		pt, ok := byIndex[i]
		if !ok {
			t.Fatalf("global index %d missing from merged stream (have %v)", i, byIndex)
		}
		if i > 0 && pt.Cycles >= prev {
			t.Fatalf("index %d (%s): cycles %d did not improve on %d", i, pt.Label, pt.Cycles, prev)
		}
		prev = pt.Cycles
	}
	// The lanes=8 point is the paper default: its override normalizes
	// away entirely, hashing like a legacy spec.
	if p8 := byIndex[2]; p8.Config != nil {
		t.Fatalf("lanes=8 point kept a config override: %+v", p8.Config)
	}

	if sum.Points != 4 || sum.Failed != 0 || !sum.Done {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Frontier) == 0 {
		t.Fatal("gateway summary has an empty Pareto frontier")
	}
	for i := 1; i < len(sum.Frontier); i++ {
		a, b := sum.Frontier[i-1], sum.Frontier[i]
		if b.Area < a.Area {
			t.Fatalf("frontier not sorted by area: %+v", sum.Frontier)
		}
		if b.Cycles >= a.Cycles && b.Area >= a.Area {
			t.Fatalf("frontier point %d dominated by %d: %+v", i, i-1, sum.Frontier)
		}
	}
}

// exploreAt posts one exploration to a gateway or shard and returns its
// point lines by index plus the summary.
func exploreAt(t *testing.T, url string, req svc.DSERequest) (map[int]svc.DSEPoint, svc.DSESummary) {
	t.Helper()
	resp := postDSE(t, url, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s/v1/dse: %d: %s", url, resp.StatusCode, body)
	}
	points, sum := readDSEStream(t, resp.Body)
	byIndex := make(map[int]svc.DSEPoint, len(points))
	for _, pt := range points {
		if _, dup := byIndex[pt.Index]; dup {
			t.Fatalf("index %d answered twice", pt.Index)
		}
		byIndex[pt.Index] = pt
	}
	if len(byIndex) != sum.Points {
		t.Fatalf("%d point lines for %d points", len(byIndex), sum.Points)
	}
	return byIndex, sum
}

// samePlacement requires two answers for one design point to agree on
// everything the exploration decides before any simulation runs: its
// label, the normalized config, and where it sits on the area axis.
func samePlacement(t *testing.T, i int, got, want svc.DSEPoint) {
	t.Helper()
	gotCfg, _ := json.Marshal(got.Config)
	wantCfg, _ := json.Marshal(want.Config)
	if got.Label != want.Label || !bytes.Equal(gotCfg, wantCfg) || got.Area != want.Area || got.AreaDesc != want.AreaDesc {
		t.Fatalf("point %d: gateway %q %s area %v %q, single node %q %s area %v %q", i,
			got.Label, gotCfg, got.Area, got.AreaDesc, want.Label, wantCfg, want.Area, want.AreaDesc)
	}
}

// TestGatewayDSEMatchesSingleNode: an exploration sent through simgate
// answers exactly what one simserved answers — per index the same
// label, config, cycles, area and area description, and the same
// Pareto frontier — for axis sweeps, explicit deltas and the empty
// exploration alike; and points the gateway has to fail itself, with
// every shard down, still carry their label, config and area.
func TestGatewayDSEMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t, nil)
	single := svc.NewService(svc.Options{})
	singleSrv := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		singleSrv.Close()
		single.Close()
	})

	w := smallWorkload()
	base := svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}
	var deltas []machines.ConfigSet
	if err := json.Unmarshal([]byte(`[{}, {"viram": {"MVL": 32}}, {"raw": {"Mesh": {"Width": 2, "Height": 2}}}]`), &deltas); err != nil {
		t.Fatal(err)
	}
	explorations := map[string]svc.DSERequest{
		"axes":   {Base: base, Axes: []svc.DSEAxis{{Param: "viram.Lanes", Values: []int{2, 4, 8, 16}}}},
		"deltas": {Base: base, Deltas: deltas},
		"empty":  {Base: base},
	}
	for name, req := range explorations {
		t.Run(name, func(t *testing.T) {
			want, wantSum := exploreAt(t, singleSrv.URL, req)
			got, gotSum := exploreAt(t, tc.gwSrv.URL, req)
			if len(got) != len(want) {
				t.Fatalf("gateway answered %d points, single node %d", len(got), len(want))
			}
			for i, wp := range want {
				gp := got[i]
				samePlacement(t, i, gp, wp)
				if gp.State != svc.Done || gp.Cycles != wp.Cycles {
					t.Fatalf("point %d (%s): gateway %s %d cycles, single node %s %d", i, wp.Label, gp.State, gp.Cycles, wp.State, wp.Cycles)
				}
			}
			if !reflect.DeepEqual(gotSum.Frontier, wantSum.Frontier) || gotSum.AreaDesc != wantSum.AreaDesc || gotSum.Failed != 0 {
				t.Fatalf("gateway summary %+v, single node %+v", gotSum, wantSum)
			}
		})
	}

	t.Run("all shards down", func(t *testing.T) {
		req := explorations["axes"]
		want, _ := exploreAt(t, singleSrv.URL, req)
		for _, srv := range tc.servers {
			srv.Close()
		}
		got, sum := exploreAt(t, tc.gwSrv.URL, req)
		if sum.Failed != len(want) || len(sum.Frontier) != 0 {
			t.Fatalf("summary %+v, want all %d points failed", sum, len(want))
		}
		for i, wp := range want {
			gp := got[i]
			if gp.State != svc.Failed || gp.Error == "" {
				t.Fatalf("point %d: state %s error %q, want a synthesized failure", i, gp.State, gp.Error)
			}
			samePlacement(t, i, gp, wp)
		}
	})
}

// TestGatewayDSEEmptyExploration: no deltas and no axes is the base
// spec alone, end to end through the gateway.
func TestGatewayDSEEmptyExploration(t *testing.T) {
	tc := newTestCluster(t, nil)
	w := smallWorkload()
	resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
		Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	points, sum := readDSEStream(t, resp.Body)
	if len(points) != 1 || points[0].State != svc.Done || points[0].Cycles == 0 {
		t.Fatalf("points = %+v", points)
	}
	// The single base point matches a plain job submission for the
	// same spec bit for bit — the shard memo dedups the two.
	spec := svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}
	jresp, job := tc.submit(t, spec, nil)
	if jresp.StatusCode != http.StatusOK || job.Result == nil {
		t.Fatalf("plain submit: %d %+v", jresp.StatusCode, job)
	}
	if job.Result.Cycles != points[0].Cycles {
		t.Fatalf("DSE base point %d cycles != plain job %d", points[0].Cycles, job.Result.Cycles)
	}
	if len(sum.Frontier) != 1 {
		t.Fatalf("frontier = %+v", sum.Frontier)
	}
}

// TestGatewayDSERequestErrors: malformed explorations are rejected at
// the gateway, before any shard sees a byte.
func TestGatewayDSERequestErrors(t *testing.T) {
	tc := newTestCluster(t, nil)
	t.Run("unknown axis", func(t *testing.T) {
		resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
			Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
			Axes: []svc.DSEAxis{{Param: "viram.Warp", Values: []int{1}}},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("too many points", func(t *testing.T) {
		vals := make([]int, 0, 30)
		for v := 1; v <= 30; v++ {
			vals = append(vals, v)
		}
		resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
			Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
			Axes: []svc.DSEAxis{
				{Param: "viram.Lanes", Values: vals},
				{Param: "viram.MVL", Values: vals},
			},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
	})
	t.Run("bad base machine", func(t *testing.T) {
		resp := postDSE(t, tc.gwSrv.URL, svc.DSERequest{
			Base: svc.JobSpec{Machine: "Pentium", Kernel: core.CornerTurn},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestGatewayConfigMismatchRefusesWrites is the wrong-result hazard
// from the issue: one shard restarted with different hardware
// parameters must not silently answer specs the ring routes to it.
// While ready shards report different config-set hashes the gateway
// refuses every write path with 503 and counts
// simgate_config_mismatch_total; reads keep flowing; /healthz reports
// the broken consensus.
func TestGatewayConfigMismatchRefusesWrites(t *testing.T) {
	var shards []Shard
	servers := make([]*httptest.Server, 0, 2)
	services := make([]*svc.Service, 0, 2)
	for _, opt := range []svc.Options{
		{ShardID: "s1"}, // paper-default config hash
		{ShardID: "s2", ConfigHash: "not-the-paper-hardware"},
	} {
		s := svc.NewService(opt)
		srv := httptest.NewServer(s.Handler())
		services = append(services, s)
		servers = append(servers, srv)
		shards = append(shards, Shard{Name: opt.ShardID, URL: srv.URL})
	}
	gw, err := NewGateway(Options{
		Shards:        shards,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start() // synchronous first sweep records both config hashes
	gwSrv := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		gwSrv.Close()
		gw.Close()
		for i, srv := range servers {
			srv.Close()
			services[i].Close()
		}
	})

	if _, ok := gw.Prober().ConfigConsensus(); ok {
		t.Fatal("prober reports consensus across shards with different config hashes")
	}

	w := smallWorkload()
	specBody, _ := json.Marshal(svc.JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	for _, path := range []string{"/v1/jobs", "/v1/batch"} {
		resp, err := http.Post(gwSrv.URL+path, "application/json", bytes.NewReader(specBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s: 503 without Retry-After", path)
		}
	}
	dresp := postDSE(t, gwSrv.URL, svc.DSERequest{
		Base: svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
	})
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/dse: status %d, want 503", dresp.StatusCode)
	}
	if got := gw.Metrics().Snapshot().ConfigMismatch; got < 3 {
		t.Fatalf("config_mismatch_total = %d, want >= 3", got)
	}

	// Reads are config-agnostic and keep flowing.
	lresp, err := http.Get(gwSrv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs during mismatch: %d", lresp.StatusCode)
	}

	// /healthz surfaces the broken consensus as degraded.
	hresp, err := http.Get(gwSrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health GatewayHealth
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" {
		t.Fatalf("healthz = %d %q, want 503 degraded", hresp.StatusCode, health.Status)
	}
	if health.ConfigConsensus {
		t.Fatal("healthz claims config consensus during a mismatch")
	}
}

// TestGatewayConfigConsensusAllowsWrites: agreeing shards — the normal
// cluster — pass the guard, and the agreed hash shows up in /healthz.
func TestGatewayConfigConsensusAllowsWrites(t *testing.T) {
	tc := newTestCluster(t, nil)
	hash, ok := tc.gw.Prober().ConfigConsensus()
	if !ok || hash == "" {
		t.Fatalf("consensus = %q %v on an agreeing cluster", hash, ok)
	}
	w := smallWorkload()
	resp, job := tc.submit(t, svc.JobSpec{Machine: "Imagine", Kernel: core.CornerTurn, Workload: &w}, nil)
	if resp.StatusCode != http.StatusOK || job.State != svc.Done {
		t.Fatalf("submit through agreeing cluster: %d %+v", resp.StatusCode, job)
	}
	if got := tc.gw.Metrics().Snapshot().ConfigMismatch; got != 0 {
		t.Fatalf("config_mismatch_total = %d on an agreeing cluster", got)
	}

	hresp, err := http.Get(tc.gwSrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health GatewayHealth
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.ConfigHash != hash || !health.ConfigConsensus {
		t.Fatalf("healthz config fields = %q %v, want %q true", health.ConfigHash, health.ConfigConsensus, hash)
	}
}
