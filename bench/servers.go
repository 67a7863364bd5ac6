package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// topology is one deployment shape a workload drives.
type topology struct {
	shards  int
	workers int
	journal bool // -journal on every shard (fsync always)
	gateway bool // a simgate in front of the shards
}

// servers is one running deployment.
type servers struct {
	shards   []*daemon
	gate     *daemon
	journals []string
}

// url is where clients send load: the gateway when there is one.
func (s *servers) url() string {
	if s.gate != nil {
		return s.gate.url
	}
	return s.shards[0].url
}

// all lists every process, gateway first.
func (s *servers) all() []*daemon {
	if s.gate == nil {
		return s.shards
	}
	return append([]*daemon{s.gate}, s.shards...)
}

// deploy starts the topology and returns once every process answers
// /readyz 200, with the time from the first spawn to that moment — one
// set-up sample.
func (b *bench) deploy(t topology) (*servers, time.Duration, error) {
	s := &servers{}
	start := time.Now()
	for i := 0; i < t.shards; i++ {
		// -pprof serves the heap profile liveHeapMB reads; profiling
		// costs nothing until a profile is requested.
		args := []string{"-workers", strconv.Itoa(t.workers), "-pprof"}
		if t.journal {
			dir, err := os.MkdirTemp(b.runDir, "journal-")
			if err != nil {
				return nil, 0, err
			}
			s.journals = append(s.journals, dir)
			args = append(args, "-journal", dir)
		}
		if t.gateway {
			args = append(args, "-shard", fmt.Sprintf("s%d", i+1))
		}
		d, err := b.procs.start("simserved", args...)
		if err != nil {
			b.teardownQuiet(s)
			return nil, 0, err
		}
		s.shards = append(s.shards, d)
	}
	for _, d := range s.shards {
		if err := b.procs.waitReady(d); err != nil {
			b.teardownQuiet(s)
			return nil, 0, err
		}
	}
	if t.gateway {
		members := make([]string, len(s.shards))
		for i, d := range s.shards {
			members[i] = fmt.Sprintf("s%d=%s", i+1, d.url)
		}
		g, err := b.procs.start("simgate", "-shards", strings.Join(members, ","))
		if err != nil {
			b.teardownQuiet(s)
			return nil, 0, err
		}
		s.gate = g
		if err := b.procs.waitReady(g); err != nil {
			b.teardownQuiet(s)
			return nil, 0, err
		}
	}
	return s, time.Since(start), nil
}

// deployCycles measures set-up n times: it deploys and tears down n-1
// times and keeps the n-th deployment running for the timed phase.
func (b *bench) deployCycles(t topology, n int) (*servers, []time.Duration, error) {
	var samples []time.Duration
	for i := 0; ; i++ {
		s, d, err := b.deploy(t)
		if err != nil {
			return nil, nil, err
		}
		samples = append(samples, d)
		if i == n-1 {
			return s, samples, nil
		}
		if err := b.teardown(s); err != nil {
			return nil, nil, err
		}
	}
}

// liveHeapMB forces garbage collections in each simserved of the
// deployment and returns their summed live heap in MB: the HeapAlloc
// that the heap profile reports after gc=1. It reads the profile twice
// and keeps the second: sync.Pool caches survive one collection, and
// what they hold depends on which cells ran last. It is read after the
// timed phase, just before shutdown, so the forced collections perturb
// no measurement.
func (b *bench) liveHeapMB(s *servers) (float64, error) {
	var total float64
	for _, d := range s.shards {
		var v float64
		var err error
		for i := 0; i < 2 && err == nil; i++ {
			v, err = heapAlloc(b.procs.ctl, d.url)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		total += v / (1 << 20)
	}
	return total, nil
}

func heapAlloc(hc *http.Client, base string) (float64, error) {
	resp, err := hc.Get(base + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("heap profile: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no HeapAlloc in the heap profile")
}

// teardown stops the gateway and then the shards, each with SIGTERM so
// they drain and exit 0, and removes the journals.
func (b *bench) teardown(s *servers) error {
	var firstErr error
	for _, d := range s.all() {
		if err := b.procs.stop(d); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, dir := range s.journals {
		_ = os.RemoveAll(dir) // scratch state; a leftover only costs disk
	}
	return firstErr
}

// teardownQuiet stops whatever part of a deployment is running, on an
// error path.
func (b *bench) teardownQuiet(s *servers) {
	if s == nil {
		return
	}
	for _, d := range s.all() {
		_ = b.procs.stop(d)
	}
}
