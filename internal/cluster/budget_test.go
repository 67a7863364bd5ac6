package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/svc"
)

// stallShard answers probes instantly but stalls every submit until
// the request context dies — a shard that is alive and ready but
// pathologically slow.
func stallShard(t *testing.T) *httptest.Server {
	t.Helper()
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		// Stall until the caller gives up or the test tears down (the
		// stop channel lets Server.Close reclaim handlers whose client
		// abort the server never noticed).
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(func() {
		close(stop)
		srv.Close()
	})
	return srv
}

func postSpec(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	w := smallWorkload()
	body, err := json.Marshal(svc.JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGatewayBudgetExhausted504: with every shard stalling, a submit
// carrying a deadline budget must come back 504 once the budget is
// spent — not hang for the transport timeout, and not 502.
func TestGatewayBudgetExhausted504(t *testing.T) {
	s1, s2 := stallShard(t), stallShard(t)
	gw, err := NewGateway(Options{
		Shards:        []Shard{{Name: "s1", URL: s1.URL}, {Name: "s2", URL: s2.URL}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	start := time.Now()
	resp := postSpec(t, gwSrv.URL, map[string]string{"X-Deadline-Budget": "300ms"})
	defer resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("504 took %s: the budget did not bound the attempts", elapsed)
	}
	if got := gw.Metrics().Snapshot().BudgetExhausted; got != 1 {
		t.Fatalf("budget_exhausted_total = %d, want 1", got)
	}
}

// TestGatewayBudgetFromTimeoutQuery: a client that set only ?timeout=
// gets the same protection — the wait timeout doubles as the deadline
// budget.
func TestGatewayBudgetFromTimeoutQuery(t *testing.T) {
	s1 := stallShard(t)
	gw, err := NewGateway(Options{Shards: []Shard{{Name: "s1", URL: s1.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	start := time.Now()
	w := smallWorkload()
	body, _ := json.Marshal(svc.JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	req, err := http.NewRequest(http.MethodPost, gwSrv.URL+"/v1/jobs?wait=1&timeout=300ms", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("504 took %s: ?timeout= did not bound the route", elapsed)
	}
}

// TestGatewayForwardsSlicedBudget: the shard must see an
// X-Deadline-Budget no larger than what the client sent — the gateway
// slices the remaining budget across attempts instead of forwarding
// the original untouched (satellite: the per-attempt context derives
// from the budget, not the bare request context).
func TestGatewayForwardsSlicedBudget(t *testing.T) {
	var mu sync.Mutex
	var got []string
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		mu.Lock()
		got = append(got, r.Header.Get("X-Deadline-Budget"))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"s1-1","state":"done"}`))
	}))
	defer fast.Close()
	gw, err := NewGateway(Options{Shards: []Shard{{Name: "s1", URL: fast.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	resp := postSpec(t, gwSrv.URL, map[string]string{"X-Deadline-Budget": "10s"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("shard saw %d submits, want 1", len(got))
	}
	d, err := time.ParseDuration(got[0])
	if err != nil {
		t.Fatalf("shard saw X-Deadline-Budget %q: %v", got[0], err)
	}
	if d <= 0 || d > 10*time.Second {
		t.Fatalf("forwarded budget %s outside (0, 10s]", d)
	}
}

// TestGatewayBatchBudgetReroutesPastHungOwner: a batch carrying a
// 300ms deadline budget on a two-shard gateway whose busier shard
// hangs. Each sub-batch attempt gets a slice of the one budget, so the
// hung shard's cells reroute to the live shard in time: every index
// comes back exactly once, answered or failed naming the budget, and
// the stream ends long before the client's own 3s timeout.
func TestGatewayBatchBudgetReroutesPastHungOwner(t *testing.T) {
	w := smallWorkload()
	specs := svc.BatchGrid{
		Kernels:   []core.KernelID{core.CornerTurn, core.BeamSteering},
		Workloads: []*core.Workload{&w},
	}.Expand()
	ring, err := NewRing([]string{"s1", "s2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[string]int)
	for _, spec := range specs {
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := norm.Hash()
		if err != nil {
			t.Fatal(err)
		}
		owned[ring.Owner(hash)]++
	}
	hung, live := "s1", "s2"
	if owned["s2"] > owned["s1"] {
		hung, live = "s2", "s1"
	}
	liveSvc := svc.NewService(svc.Options{ShardID: live})
	liveSrv := httptest.NewServer(liveSvc.Handler())
	t.Cleanup(func() {
		liveSrv.Close()
		liveSvc.Close()
	})
	urls := map[string]string{hung: stallShard(t).URL, live: liveSrv.URL}
	gw, err := NewGateway(Options{
		Shards:        []Shard{{Name: "s1", URL: urls["s1"]}, {Name: "s2", URL: urls["s2"]}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	req, err := http.NewRequest(http.MethodPost, gwSrv.URL+"/v1/batch", strings.NewReader(gridBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Deadline-Budget", "300ms")
	start := time.Now()
	resp, err := (&http.Client{Timeout: 3 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := make(map[int]bool)
	answered, failed := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Index *int      `json:"index"`
			State svc.State `json:"state"`
			Error string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Bytes(), err)
		}
		if line.Index == nil {
			continue // the merged summary
		}
		if seen[*line.Index] {
			t.Fatalf("index %d answered twice", *line.Index)
		}
		seen[*line.Index] = true
		switch {
		case line.State == svc.Done:
			answered++
		case line.State == svc.Failed && strings.Contains(line.Error, "budget"):
			failed++
		default:
			t.Fatalf("cell %d: state %s error %q, want done or failed naming the budget", *line.Index, line.State, line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broke after %s with %d of %d cells: %v", time.Since(start), len(seen), len(specs), err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stream took %s on a 300ms budget", elapsed)
	}
	if len(seen) != len(specs) {
		t.Fatalf("%d of %d indices came back", len(seen), len(specs))
	}
	if got := gw.Metrics().Snapshot().BudgetExhausted; failed > 0 && got == 0 {
		t.Fatalf("%d cells failed on the budget but budget_exhausted_total = 0", failed)
	}
	t.Logf("%s hung owning %d of %d cells: %d answered by %s, %d failed on the budget",
		hung, owned[hung], len(specs), answered, live, failed)
}

// slowCluster is three real shards behind one gateway. Every request
// but a probe announces itself on arrived and is answered with status
// when that is set; otherwise it first waits at its shard — for delay,
// or with delay 0 until the caller goes away.
type slowCluster struct {
	gw      *Gateway
	srv     *httptest.Server
	arrived chan struct{}
}

func newSlowCluster(t *testing.T, delay time.Duration, status int) *slowCluster {
	t.Helper()
	sc := &slowCluster{arrived: make(chan struct{}, 64)}
	stop := make(chan struct{})
	var shards []Shard
	for _, name := range []string{"s1", "s2", "s3"} {
		s := svc.NewService(svc.Options{ShardID: name})
		h := s.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/readyz" && r.URL.Path != "/healthz" {
				select {
				case sc.arrived <- struct{}{}:
				default:
				}
				if status != 0 {
					w.WriteHeader(status)
					return
				}
				var waited <-chan time.Time
				if delay > 0 {
					waited = time.After(delay)
				}
				select {
				case <-waited:
				case <-r.Context().Done():
					return
				case <-stop:
					return
				}
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			srv.Close()
			s.Close()
		})
		shards = append(shards, Shard{Name: name, URL: srv.URL})
	}
	gw, err := NewGateway(Options{Shards: shards, ProbeInterval: time.Hour, HedgeDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	sc.gw = gw
	sc.srv = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		sc.srv.Close()
		gw.Close()
	})
	t.Cleanup(func() { close(stop) })
	return sc
}

// submit posts one small job with ?wait=1 and the given deadline budget
// ("" for none) and returns the status.
func (sc *slowCluster) submit(t *testing.T, budget string) int {
	t.Helper()
	w := smallWorkload()
	body, err := json.Marshal(svc.JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, sc.srv.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if budget != "" {
		req.Header.Set("X-Deadline-Budget", budget)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// hangUp sends a request through the gateway, drops it once a shard
// holds it, and returns when the gateway has finished with it.
func (sc *slowCluster) hangUp(t *testing.T, method, path, body string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, sc.srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	select {
	case <-sc.arrived:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s %s never reached a shard", method, path)
	}
	cancel()
	<-done
	sc.srv.Close() // waits for the gateway's handler
}

// TestGatewayCallerBudgetOrHangUpNeverChargesShard: a shard is charged
// only for its own faults. A deadline budget too tight for a healthy
// shard (run out at the gateway, or answered 504 by the shard), or a
// client hanging up on a batch, a job read or a forwarded read, must
// leave every shard alive and ready, every breaker admitting and no
// upstream error counted.
func TestGatewayCallerBudgetOrHangUpNeverChargesShard(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delay  time.Duration
		status int
		run    func(t *testing.T, sc *slowCluster)
		after  func(t *testing.T, sc *slowCluster)
	}{
		{
			name:  "5ms budgets against a 30ms shard",
			delay: 30 * time.Millisecond,
			run: func(t *testing.T, sc *slowCluster) {
				for i := 0; i < 5; i++ {
					if got := sc.submit(t, "5ms"); got != http.StatusGatewayTimeout {
						t.Fatalf("submit %d with a 5ms budget: %d, want 504", i, got)
					}
				}
			},
			after: func(t *testing.T, sc *slowCluster) {
				if got := sc.submit(t, ""); got != http.StatusOK {
					t.Fatalf("submit without a budget after the tight ones: %d, want 200", got)
				}
			},
		},
		{
			name:   "shards answering 504 for a spent budget",
			status: http.StatusGatewayTimeout,
			run: func(t *testing.T, sc *slowCluster) {
				for i := 0; i < 5; i++ {
					if got := sc.submit(t, "1s"); got != http.StatusGatewayTimeout {
						t.Fatalf("submit %d: %d, want the shards' 504", i, got)
					}
				}
			},
		},
		{
			name: "hang-up mid-batch",
			run: func(t *testing.T, sc *slowCluster) {
				sc.hangUp(t, http.MethodPost, "/v1/batch", gridBody(t))
			},
		},
		{
			name: "hang-up on a job wait",
			run: func(t *testing.T, sc *slowCluster) {
				sc.hangUp(t, http.MethodGet, "/v1/jobs/s1-j000001-deadbeef?wait=1", "")
			},
		},
		{
			name: "hang-up on table 3",
			run: func(t *testing.T, sc *slowCluster) {
				sc.hangUp(t, http.MethodGet, "/v1/tables/3", "")
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := newSlowCluster(t, tc.delay, tc.status)
			tc.run(t, sc)
			for name, st := range sc.gw.Prober().States() {
				if !st.Alive || !st.Ready {
					t.Errorf("shard %s left alive=%v ready=%v (%s)", name, st.Alive, st.Ready, st.LastError)
				}
				br := sc.gw.breakers.Get(name)
				if err := br.Allow(); err != nil {
					t.Errorf("shard %s breaker refuses: %v", name, err)
				} else {
					br.Cancel()
				}
			}
			if n := sc.gw.Metrics().Snapshot().UpstreamErrors; n != 0 {
				t.Errorf("upstream_errors_total = %d, want 0", n)
			}
			if tc.after != nil && !t.Failed() {
				tc.after(t, sc)
			}
		})
	}
}
