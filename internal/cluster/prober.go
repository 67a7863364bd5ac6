package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// DefaultProbeInterval is how often the prober sweeps every shard.
const DefaultProbeInterval = 500 * time.Millisecond

// ProbeState is one shard's last probe verdict.
type ProbeState struct {
	// Alive means the process answered HTTP at all — including the 503
	// a degraded or draining shard serves. Only a transport failure
	// (connection refused, timeout) clears it: /healthz's
	// 503-while-degraded semantics mean "pull me from rotation", not
	// "bury me".
	Alive bool `json:"alive"`
	// Ready means /readyz said 200: not draining, not degraded — route
	// new work here.
	Ready bool `json:"ready"`
	// ConfigHash is the hardware config-set hash the shard reported on
	// its last probe (empty until a sweep lands, or for shards predating
	// the field). Two ready shards reporting different hashes would
	// return different cycles for the same job depending on routing, so
	// the gateway refuses to route writes until they agree.
	ConfigHash  string    `json:"config_hash,omitempty"`
	LastError   string    `json:"last_error,omitempty"`
	LastChecked time.Time `json:"last_checked"`
}

// Prober actively probes every shard's /readyz. One endpoint carries
// both signals: any HTTP answer proves liveness, and the status code
// decides readiness (a draining shard answers 503 there while its
// /healthz stays 200, so drain never looks like death).
type Prober struct {
	shards   []Shard
	client   *http.Client
	interval time.Duration

	mu    sync.Mutex
	state map[string]ProbeState

	stop chan struct{}
	done chan struct{}
}

// NewProber builds a prober over the shard set.
func NewProber(shards []Shard, interval time.Duration) *Prober {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	p := &Prober{
		shards: append([]Shard(nil), shards...),
		// A short timeout, so a hung shard reads as dead, not slow.
		client:   &http.Client{Timeout: 2 * time.Second},
		interval: interval,
		state:    make(map[string]ProbeState, len(shards)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	// Shards start optimistically routable so the first requests are
	// not all rejected before the first sweep lands.
	for _, s := range p.shards {
		p.state[s.Name] = ProbeState{Alive: true, Ready: true}
	}
	return p
}

// Start runs one synchronous sweep (so callers boot with real
// verdicts) and then probes on the interval until Stop.
func (p *Prober) Start() {
	p.Sweep()
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.Sweep()
			}
		}
	}()
}

// Stop ends the probe loop.
func (p *Prober) Stop() {
	close(p.stop)
	<-p.done
}

// Sweep probes every shard once, in parallel.
func (p *Prober) Sweep() {
	var wg sync.WaitGroup
	for _, s := range p.shards {
		wg.Add(1)
		go func(s Shard) {
			defer wg.Done()
			p.probe(s)
		}(s)
	}
	wg.Wait()
}

func (p *Prober) probe(s Shard) {
	st := ProbeState{LastChecked: time.Now()}
	resp, err := p.client.Get(s.URL + "/readyz")
	if err != nil {
		st.LastError = err.Error()
	} else {
		// The readiness body carries the shard's config-set hash either
		// way (200 and 503 share the JSON shape); a body that fails to
		// decode just leaves the hash unknown.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		st.Alive = true
		st.Ready = resp.StatusCode == http.StatusOK
		var rd struct {
			ConfigHash string `json:"config_hash"`
		}
		if json.Unmarshal(body, &rd) == nil {
			st.ConfigHash = rd.ConfigHash
		}
		if !st.Ready {
			st.LastError = fmt.Sprintf("readyz status %d", resp.StatusCode)
		}
	}
	p.mu.Lock()
	p.state[s.Name] = st
	p.mu.Unlock()
}

// ObserveFailure records a transport-level failure seen by the proxy
// itself, so routing stops offering a just-died shard before the next
// sweep notices.
func (p *Prober) ObserveFailure(name string, err error) {
	p.mu.Lock()
	st := p.state[name]
	st.Alive = false
	st.Ready = false
	st.LastError = err.Error()
	st.LastChecked = time.Now()
	p.state[name] = st
	p.mu.Unlock()
}

// Ready reports whether the shard should receive new work.
func (p *Prober) Ready(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state[name].Ready
}

// Alive reports whether the shard's process answered its last probe.
func (p *Prober) Alive(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state[name].Alive
}

// ConfigConsensus returns the hardware config-set hash shared by every
// ready shard that has reported one, and whether the ready shards
// agree. ok=false means a split cluster: two ready shards would answer
// the same spec hash with different hardware, so the result of a job
// would depend on which shard the ring picked — the gateway's write
// paths refuse to route until the verdicts converge. Shards that have
// not reported a hash yet (first sweep pending) do not break consensus.
func (p *Prober) ConfigConsensus() (hash string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.state {
		if !st.Ready || st.ConfigHash == "" {
			continue
		}
		if hash == "" {
			hash = st.ConfigHash
			continue
		}
		if st.ConfigHash != hash {
			return "", false
		}
	}
	return hash, true
}

// States returns a copy of every shard's probe state.
func (p *Prober) States() map[string]ProbeState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]ProbeState, len(p.state))
	for k, v := range p.state {
		out[k] = v
	}
	return out
}
