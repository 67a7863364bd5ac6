package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a spawned server may take to answer
// /readyz; stopTimeout how long it may take to exit after SIGTERM.
const (
	readyTimeout = 30 * time.Second
	stopTimeout  = 30 * time.Second
)

// daemon is one server process the benchmark started.
type daemon struct {
	name     string
	cmd      *exec.Cmd
	addrFile string
	url      string
	exited   chan struct{} // closed once cmd.Wait returns
	waitErr  error
}

// procSet starts server processes from the built binaries and
// guarantees each one is stopped and reaped: stopAll runs on every exit
// path, and Pdeathsig kills a child whose parent died without it.
type procSet struct {
	bin, dir string
	ctl      *http.Client

	mu   sync.Mutex
	seq  int
	live map[*daemon]bool
}

func newProcSet(bin, dir string) *procSet {
	return &procSet{
		bin: bin, dir: dir,
		// Control-plane requests (readiness polls, metric scrapes) get
		// their own short-lived connections, apart from the load
		// generator's fixed connection budget.
		ctl:  &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}},
		live: make(map[*daemon]bool),
	}
}

// start launches prog (simserved or simgate) listening on an ephemeral
// loopback port, reported through -addrfile.
func (p *procSet) start(prog string, args ...string) (*daemon, error) {
	p.mu.Lock()
	p.seq++
	base := filepath.Join(p.dir, fmt.Sprintf("%s-%03d", prog, p.seq))
	p.mu.Unlock()
	logf, err := os.Create(base + ".log")
	if err != nil {
		return nil, err
	}
	d := &daemon{name: filepath.Base(base), addrFile: base + ".addr", exited: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(p.bin, prog),
		append([]string{"-addr", "127.0.0.1:0", "-addrfile", d.addrFile}, args...)...)
	// Servers get the same two CPUs of Go scheduling on every machine the
	// benchmark runs on.
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", prog, err)
	}
	p.mu.Lock()
	p.live[d] = true
	p.mu.Unlock()
	go func() {
		d.waitErr = d.cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls until the daemon answers GET /readyz with 200.
func (p *procSet) waitReady(d *daemon) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before ready: %v (log: %s)", d.name, d.waitErr, strings.TrimSuffix(d.addrFile, ".addr")+".log")
		default:
		}
		if d.url == "" {
			if b, err := os.ReadFile(d.addrFile); err == nil {
				if _, port, err := net.SplitHostPort(string(b)); err == nil && port != "" {
					d.url = "http://" + string(b)
				}
			}
		}
		if d.url != "" {
			if resp, err := p.ctl.Get(d.url + "/readyz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s", d.name, readyTimeout)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop sends SIGTERM (the daemons drain and exit 0), waits, and falls
// back to SIGKILL past stopTimeout. It always reaps the process.
func (p *procSet) stop(d *daemon) error {
	p.mu.Lock()
	delete(p.live, d)
	p.mu.Unlock()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("%s ignored SIGTERM for %s", d.name, stopTimeout)
	}
	if d.waitErr != nil {
		return fmt.Errorf("%s: %v", d.name, d.waitErr)
	}
	return nil
}

// stopAll stops every process still running.
func (p *procSet) stopAll() {
	p.mu.Lock()
	ds := make([]*daemon, 0, len(p.live))
	for d := range p.live {
		ds = append(ds, d)
	}
	p.mu.Unlock()
	for _, d := range ds {
		_ = p.stop(d)
	}
}
