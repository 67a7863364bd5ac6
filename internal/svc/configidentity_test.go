package svc

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/machines"
)

// lanesDelta returns a VIRAM config override with the lanes datapath
// scaled to n (the viram.Lanes axis expansion, spelled by hand).
func lanesDelta(t *testing.T, n int) *machines.ConfigSet {
	t.Helper()
	set := machines.DefaultConfigSet()
	v := *set.VIRAM
	v.Lanes = n
	v.FPLanes = n
	v.DRAM.SeqWordsPerCycle = n
	v.DRAM.AddrGens = n / 2
	if v.DRAM.AddrGens < 1 {
		v.DRAM.AddrGens = 1
	}
	return &machines.ConfigSet{VIRAM: &v}
}

// TestSpecConfigHashIdentity pins the tentpole's identity contract at
// the spec level: no override, a default-equal override, and an
// override for a machine the spec does not run all hash byte-identical
// to a legacy spec; a real override hashes distinctly.
func TestSpecConfigHashIdentity(t *testing.T) {
	base := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}
	legacy, err := base.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	legacyHash, err := legacy.Hash()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("default-equal override collapses", func(t *testing.T) {
		spec := base
		set := machines.DefaultConfigSet()
		spec.Config = &set
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if norm.Config != nil {
			t.Fatalf("default-equal config survived: %+v", norm.Config)
		}
		h, _ := norm.Hash()
		if h != legacyHash {
			t.Fatalf("hash %s != legacy %s", h, legacyHash)
		}
	})

	t.Run("irrelevant section collapses", func(t *testing.T) {
		spec := base
		ppcCfg := *machines.DefaultConfigSet().PPC
		ppcCfg.IssueWidth = 4
		spec.Config = &machines.ConfigSet{PPC: &ppcCfg}
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if norm.Config != nil {
			t.Fatalf("PPC override survived on a VIRAM spec: %+v", norm.Config)
		}
		h, _ := norm.Hash()
		if h != legacyHash {
			t.Fatalf("hash %s != legacy %s", h, legacyHash)
		}
	})

	t.Run("real override hashes distinctly", func(t *testing.T) {
		spec := base
		spec.Config = lanesDelta(t, 4)
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if norm.Config == nil {
			t.Fatal("real override normalized away")
		}
		h, _ := norm.Hash()
		if h == legacyHash {
			t.Fatal("lanes=4 override hashed like the paper default")
		}
		other := base
		other.Config = lanesDelta(t, 2)
		onorm, _ := other.Normalize()
		oh, _ := onorm.Hash()
		if oh == h || oh == legacyHash {
			t.Fatalf("lanes=2 hash %s collides", oh)
		}
	})
}

// TestNoCrossConfigCacheHits is the wrong-config regression suite: the
// same (machine, kernel, workload) under different hardware configs
// must never share a memo entry, join the same coalesce group, or run
// on an instance built for other hardware. One worker runs every job;
// run under -race this is also the config path's data-race check.
func TestNoCrossConfigCacheHits(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 1, JobTimeout: time.Minute}})
	defer s.Close()

	configs := []*machines.ConfigSet{nil, lanesDelta(t, 2), lanesDelta(t, 16)}
	const rounds = 6

	// One batch interleaving the three hardware variants through the one
	// worker: each round uses a fresh workload (no memo short-circuit),
	// and the same config recurs across rounds while the variants
	// alternate.
	var specs []JobSpec
	for round := 0; round < rounds; round++ {
		for ci := range configs {
			w := smallWorkload()
			w.CornerTurn.Cols = 32 * (round + 1)
			specs = append(specs, JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w, Config: configs[ci]})
		}
	}
	run, err := s.SubmitBatch(context.Background(), specs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cycles := make([]uint64, len(specs))
	for br := range run.Results() {
		if br.State != Done || br.Result == nil {
			t.Fatalf("cell %d: state %s error %q", br.Index, br.State, br.Error)
		}
		cycles[br.Index] = br.Result.Cycles
	}

	// Within every round the three hardware variants ran the same
	// workload: a cross-config memo hit, coalesce join, or instance built
	// for the wrong hardware would collapse two of the three cycle
	// counts.
	for round := 0; round < rounds; round++ {
		a, b, c := cycles[3*round], cycles[3*round+1], cycles[3*round+2]
		if a == b || a == c || b == c {
			t.Fatalf("round %d: config variants share cycle counts: %d %d %d", round, a, b, c)
		}
	}
	if snap := s.Metrics().Snapshot(); snap.Determinism != 0 {
		t.Fatalf("determinism guard tripped %d times", snap.Determinism)
	}
}

// TestDurableReplayRestoresConfigJob: a config-carrying job's spec —
// override included — rides the WAL, so a crash and replay restores
// the job with bit-identical cycles and re-seeds the memo under the
// config-aware hash.
func TestDurableReplayRestoresConfigJob(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, durableOpts())
	w := smallWorkload()
	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w, Config: lanesDelta(t, 2)}

	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	legacy := spec
	legacy.Config = nil
	legacyJob, err := s.Submit(legacy)
	if err != nil {
		t.Fatal(err)
	}
	legacyDone, err := s.Wait(context.Background(), legacyJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if legacyDone.Result.Cycles == done.Result.Cycles {
		t.Fatalf("override did not change cycles (%d)", done.Result.Cycles)
	}
	crash(s)

	s2 := openDurable(t, dir, durableOpts())
	defer s2.Close()
	got, ok := s2.Job(done.ID)
	if !ok {
		t.Fatalf("config job %s lost in the crash", done.ID)
	}
	if got.State != Done || got.Result == nil || got.Result.Cycles != done.Result.Cycles {
		t.Fatalf("replayed as %+v, want cycles %d", got, done.Result.Cycles)
	}
	if got.Spec.Config == nil || got.Spec.Config.Hash() != spec.Config.Hash() {
		t.Fatalf("replayed spec lost its config: %+v", got.Spec)
	}
	// The memo came back under the config-aware hash: resubmitting both
	// variants is served from cache with their own — distinct — cycles.
	again, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	againDone, err := s2.Wait(context.Background(), again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !againDone.FromCache && againDone.ID == "" {
		t.Fatalf("resubmit = %+v", againDone)
	}
	if againDone.Result.Cycles != done.Result.Cycles {
		t.Fatalf("config resubmit cycles %d, want %d", againDone.Result.Cycles, done.Result.Cycles)
	}
	legacyAgain, err := s2.Submit(legacy)
	if err != nil {
		t.Fatal(err)
	}
	legacyAgainDone, err := s2.Wait(context.Background(), legacyAgain.ID)
	if err != nil {
		t.Fatal(err)
	}
	if legacyAgainDone.Result.Cycles != legacyDone.Result.Cycles {
		t.Fatalf("legacy resubmit cycles %d, want %d", legacyAgainDone.Result.Cycles, legacyDone.Result.Cycles)
	}
}

// TestInvalidHardwareOverridesRejected sends overrides that once passed
// validation and then crashed the simulator. Every write endpoint must
// refuse each one with a 400 naming the field, before it reaches a
// worker: five crashing VIRAM specs would otherwise open the VIRAM
// breaker and refuse the paper VIRAM job that follows them.
func TestInvalidHardwareOverridesRejected(t *testing.T) {
	_, srv := newTestServer(t)
	bad := []struct{ spec, field string }{
		{`{"machine":"VIRAM","kernel":"corner-turn","config":{"viram":{"TLBPageBytes":2}}}`, "TLBPageBytes"},
		{`{"machine":"VIRAM","kernel":"corner-turn","config":{"viram":{"TLBPageBytes":1}}}`, "TLBPageBytes"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"TLBPageBytes":3}}}`, "TLBPageBytes"},
		{`{"machine":"VIRAM","kernel":"corner-turn","config":{"viram":{"DRAM":{"InterleaveWords":-8}}}}`, "InterleaveWords"},
		{`{"machine":"VIRAM","kernel":"cslc","config":{"viram":{"DRAM":{"InterleaveWords":-1}}}}`, "InterleaveWords"},
		{`{"machine":"PPC","kernel":"corner-turn","config":{"ppc":{"L2":{"LineBytes":2}}}}`, "LineBytes"},
	}
	for _, b := range bad {
		for _, call := range []struct{ path, contentType, body string }{
			{"/v1/jobs?wait=1", "application/json", b.spec},
			{"/v1/batch", "application/x-ndjson", b.spec + "\n"},
			{"/v1/dse", "application/json", `{"base":` + b.spec + `}`},
		} {
			resp, err := http.Post(srv.URL+call.path, call.contentType, strings.NewReader(call.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), b.field) {
				if len(body) > 200 {
					body = body[:200]
				}
				t.Errorf("POST %s %s: %d %s..., want 400 naming %s",
					call.path, b.spec, resp.StatusCode, body, b.field)
			}
		}
	}
	resp, job := postJob(t, srv.URL+"/v1/jobs?wait=1", JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn})
	if resp.StatusCode != http.StatusOK || job.State != Done || job.Result == nil || !job.Result.Verified {
		t.Fatalf("paper VIRAM job after the rejected overrides: %d %+v", resp.StatusCode, job)
	}
}

// TestOversizedHardwareOverridesRejected sends cache, DRAM, VIRAM, mesh,
// SRAM, Imagine and G4 core overrides above the absolute bounds. They
// once passed validation, and the largest (a 16 GiB L2, a billion DRAM
// banks) made the machine build allocate until the process died, which
// no recover catches; a G4 VecLatency of 2^58 wrapped the cycle count
// and came back verified with fewer cycles than the paper config. Every
// write endpoint must refuse each with a 400 naming the field before
// any machine is built. The values here stay small enough to build, so
// a server without the bounds answers 200 instead of dying.
func TestOversizedHardwareOverridesRejected(t *testing.T) {
	s, srv := newTestServer(t)
	bad := []struct{ spec, field string }{
		{`{"machine":"PPC","kernel":"beam-steering","config":{"ppc":{"L2":{"SizeBytes":33554432}}}}`, "SizeBytes"},
		{`{"machine":"PPC","kernel":"beam-steering","config":{"ppc":{"L1":{"Assoc":128}}}}`, "Assoc"},
		{`{"machine":"PPC","kernel":"beam-steering","config":{"ppc":{"L1":{"SizeBytes":65536,"LineBytes":8192,"Assoc":1}}}}`, "LineBytes"},
		{`{"machine":"AltiVec","kernel":"beam-steering","config":{"ppc":{"L2":{"HitLatency":1000000}}}}`, "HitLatency"},
		{`{"machine":"PPC","kernel":"beam-steering","config":{"ppc":{"DRAM":{"Banks":1048576}}}}`, "Banks"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"DRAM":{"TRP":100000000}}}}`, "TRP"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"DRAM":{"CAS":100000000}}}}`, "CAS"},
		{`{"machine":"Imagine","kernel":"beam-steering","config":{"imagine":{"DRAM":{"TRCD":100000000}}}}`, "TRCD"},
		{`{"machine":"Imagine","kernel":"beam-steering","config":{"imagine":{"DRAM":{"SeqWordsPerCycle":1048576}}}}`, "SeqWordsPerCycle"},
		{`{"machine":"Raw","kernel":"beam-steering","config":{"raw":{"DRAM":{"AddrGens":1048576}}}}`, "AddrGens"},
		{`{"machine":"Raw","kernel":"beam-steering","config":{"raw":{"DRAM":{"RowWords":1073741824}}}}`, "RowWords"},
		{`{"machine":"Raw","kernel":"beam-steering","config":{"raw":{"DRAM":{"InterleaveWords":1073741824}}}}`, "InterleaveWords"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"Lanes":65}}}`, "Lanes"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"FPLanes":65}}}`, "FPLanes"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"MVL":1025}}}`, "MVL"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"VRegs":257}}}`, "VRegs"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"IssueQueue":257}}}`, "IssueQueue"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"TLBEntries":4097}}}`, "TLBEntries"},
		{`{"machine":"VIRAM","kernel":"beam-steering","config":{"viram":{"TLBPageBytes":16777220}}}`, "TLBPageBytes"},
		{`{"machine":"Raw","kernel":"beam-steering","config":{"raw":{"Mesh":{"Width":33}}}}`, "Width"},
		{`{"machine":"Raw","kernel":"beam-steering","config":{"raw":{"Mesh":{"Height":33}}}}`, "Height"},
		{`{"machine":"Raw","kernel":"beam-steering","config":{"raw":{"TileMem":{"CapacityBytes":67108868}}}}`, "CapacityBytes"},
		{`{"machine":"Imagine","kernel":"beam-steering","config":{"imagine":{"Clusters":65}}}`, "Clusters"},
		{`{"machine":"Imagine","kernel":"beam-steering","config":{"imagine":{"AddersPerCluster":65}}}`, "AddersPerCluster"},
		{`{"machine":"Imagine","kernel":"beam-steering","config":{"imagine":{"MulsPerCluster":65}}}`, "MulsPerCluster"},
		{`{"machine":"Imagine","kernel":"beam-steering","config":{"imagine":{"DivsPerCluster":65}}}`, "DivsPerCluster"},
		{`{"machine":"Imagine","kernel":"beam-steering","config":{"imagine":{"MemControllers":17}}}`, "MemControllers"},
		{`{"machine":"Imagine","kernel":"beam-steering","config":{"imagine":{"StreamDescRegs":257}}}`, "StreamDescRegs"},
		{`{"machine":"Imagine","kernel":"beam-steering","config":{"imagine":{"SRF":{"CapacityBytes":67108992}}}}`, "CapacityBytes"},
		{`{"machine":"PPC","kernel":"beam-steering","config":{"ppc":{"IssueWidth":65}}}`, "IssueWidth"},
		{`{"machine":"PPC","kernel":"beam-steering","config":{"ppc":{"LSPorts":65}}}`, "LSPorts"},
		{`{"machine":"PPC","kernel":"beam-steering","config":{"ppc":{"FPLatency":10001}}}`, "FPLatency"},
		{`{"machine":"AltiVec","kernel":"cslc","config":{"ppc":{"VecLatency":288230376151711744}}}`, "VecLatency"},
		{`{"machine":"AltiVec","kernel":"beam-steering","config":{"ppc":{"MLP":64.5}}}`, "MLP"},
		{`{"machine":"PPC","kernel":"beam-steering","config":{"ppc":{"MLPStore":1000}}}`, "MLPStore"},
	}
	builds := s.Metrics().Snapshot().MachineBuilds
	for _, b := range bad {
		for _, call := range []struct{ path, contentType, body string }{
			{"/v1/jobs?wait=1", "application/json", b.spec},
			{"/v1/batch", "application/x-ndjson", b.spec + "\n"},
			{"/v1/dse", "application/json", `{"base":` + b.spec + `}`},
		} {
			resp, err := http.Post(srv.URL+call.path, call.contentType, strings.NewReader(call.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), b.field) {
				if len(body) > 200 {
					body = body[:200]
				}
				t.Errorf("POST %s %s: %d %s..., want 400 naming %s",
					call.path, b.spec, resp.StatusCode, body, b.field)
			}
		}
	}
	// A DSE axis expands to an override and meets the same bounds.
	axis := `{"base":{"machine":"Raw","kernel":"beam-steering"},"axes":[{"param":"raw.Mesh","values":[1000]}]}`
	resp, err := http.Post(srv.URL+"/v1/dse", "application/json", strings.NewReader(axis))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "Width") {
		t.Errorf("POST /v1/dse with raw.Mesh 1000: %d %s, want 400 naming Width", resp.StatusCode, body)
	}
	if got := s.Metrics().Snapshot().MachineBuilds; got != builds {
		t.Fatalf("over-bound overrides built %d machines", got-builds)
	}
	resp, job := postJob(t, srv.URL+"/v1/jobs?wait=1", JobSpec{Machine: "PPC", Kernel: core.BeamSteering})
	if resp.StatusCode != http.StatusOK || job.State != Done || job.Result == nil || !job.Result.Verified {
		t.Fatalf("paper PPC job after the rejected overrides: %d %+v", resp.StatusCode, job)
	}
}

// TestTooManyAuxChannelsRejected sends CSLC workloads with more aux
// channels than the canceller supports. They once passed validation and
// then panicked in every machine's verification; five of them opened
// the VIRAM breaker and refused the paper VIRAM job that followed. Every
// write endpoint must now answer 400 naming the aux-channel count, and
// the paper job must still run.
func TestTooManyAuxChannelsRejected(t *testing.T) {
	_, srv := newTestServer(t)
	w := core.PaperWorkload()
	w.CSLC.AuxChannels = 3
	raw, err := json.Marshal(JobSpec{Machine: "VIRAM", Kernel: core.CSLC, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	spec := string(raw)
	type call struct{ path, contentType, body string }
	calls := []call{
		{"/v1/batch", "application/x-ndjson", spec + "\n"},
		{"/v1/dse", "application/json", `{"base":` + spec + `}`},
	}
	for i := 0; i < 5; i++ {
		calls = append(calls, call{"/v1/jobs?wait=1", "application/json", spec})
	}
	for _, call := range calls {
		resp, err := http.Post(srv.URL+call.path, call.contentType, strings.NewReader(call.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "3 aux channels") {
			t.Errorf("POST %s: %d %s, want 400 naming 3 aux channels", call.path, resp.StatusCode, body)
		}
	}
	resp, job := postJob(t, srv.URL+"/v1/jobs?wait=1", JobSpec{Machine: "VIRAM", Kernel: core.CSLC})
	if resp.StatusCode != http.StatusOK || job.State != Done || job.Result == nil || !job.Result.Verified {
		t.Fatalf("paper VIRAM CSLC job after the rejected specs: %d %+v", resp.StatusCode, job)
	}
}

// TestOverBoundWorkloadsRejected sends corner-turn, beam-steering and
// CSLC workloads above the kernels' absolute bounds (a 100k x 100k
// corner turn would ask for 40 GB, and a 2^33-point CSLC transform for
// a 128 GiB table at validation). Every write endpoint must answer 400
// naming the field before anything is queued: the pool builds no
// machine for them.
func TestOverBoundWorkloadsRejected(t *testing.T) {
	s, srv := newTestServer(t)
	over := []struct {
		field string
		edit  func(*core.Workload)
	}{
		{"Rows", func(w *core.Workload) { w.CornerTurn.Rows = 100_000 }},
		{"Cols", func(w *core.Workload) { w.CornerTurn.Cols = 4097 }},
		{"BlockSize", func(w *core.Workload) { w.CornerTurn.BlockSize = 8192 }},
		{"Elements", func(w *core.Workload) { w.Beam.Elements = 70_000 }},
		{"Directions", func(w *core.Workload) { w.Beam.Directions = 257 }},
		{"Dwells", func(w *core.Workload) { w.Beam.Dwells = 5000 }},
		{"Outputs", func(w *core.Workload) { w.Beam.Elements, w.Beam.Directions, w.Beam.Dwells = 65536, 256, 2 }},
		{"MainChannels", func(w *core.Workload) { w.CSLC.MainChannels = 9 }},
		{"Samples", func(w *core.Workload) { w.CSLC.Samples = 32768 }},
		{"SubBands", func(w *core.Workload) { w.CSLC.SubBands = 1025 }},
		{"FFTSize", func(w *core.Workload) { w.CSLC.Samples, w.CSLC.SubBands, w.CSLC.FFTSize = 8192, 1, 8192 }},
		{"Bins", func(w *core.Workload) {
			w.CSLC.MainChannels, w.CSLC.Samples, w.CSLC.SubBands, w.CSLC.FFTSize = 8, 16384, 1024, 512
		}},
	}
	builds := s.Metrics().Snapshot().MachineBuilds
	for _, o := range over {
		w := core.PaperWorkload()
		o.edit(&w)
		raw, err := json.Marshal(JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
		if err != nil {
			t.Fatal(err)
		}
		spec := string(raw)
		for _, call := range []struct{ path, contentType, body string }{
			{"/v1/jobs?wait=1", "application/json", spec},
			{"/v1/batch", "application/x-ndjson", spec + "\n"},
			{"/v1/dse", "application/json", `{"base":` + spec + `}`},
		} {
			resp, err := http.Post(srv.URL+call.path, call.contentType, strings.NewReader(call.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), o.field) {
				t.Errorf("POST %s with %s over its bound: %d %s, want 400 naming it", call.path, o.field, resp.StatusCode, body)
			}
		}
	}
	if got := s.Metrics().Snapshot().MachineBuilds; got != builds {
		t.Fatalf("over-bound specs built %d machines", got-builds)
	}
}
