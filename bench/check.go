package main

import (
	"fmt"
	"sync"

	"sigkern/internal/core"
	"sigkern/internal/machines"
	"sigkern/internal/roofline"
	"sigkern/internal/svc"
)

// maxErrLines bounds how many failure descriptions a report carries.
const maxErrLines = 20

// checker counts the requests a run sends and verifies every answer. A
// wrong answer — cycles that differ from the reference or from an
// earlier answer for the same cell, a result not functionally verified,
// an estimate that is not the roofline bound, an empty Pareto frontier
// — fails the run.
type checker struct {
	ref paperRef

	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	errs      []string
	first     map[cellKey]uint64 // first answer per cell, for repeats
	reruns    []rerun
	fallback  *rerun // the first cold cell, re-run if nothing was sampled
}

// rerun is a served cold cell to re-run in-process on a fresh machine.
type rerun struct {
	spec   svc.JobSpec
	cycles uint64
}

func newChecker(ref paperRef) *checker {
	return &checker{ref: ref, first: make(map[cellKey]uint64)}
}

// sent counts one request sent to a server.
func (c *checker) sent() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

// failure records a request answered with a non-2xx status or lost to a
// transport error.
func (c *checker) failure(what string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	c.note(fmt.Sprintf("failed: %s: %v", what, err))
}

// wrongf records a wrong answer.
func (c *checker) wrongf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	c.wrong++
	c.note("wrong answer: " + fmt.Sprintf(format, args...))
}

func (c *checker) note(s string) {
	if len(c.errs) < maxErrLines {
		c.errs = append(c.errs, s)
	}
}

// job verifies one simulated answer. key, when set, ties repeats of a
// cell together; sample queues the cell for the in-process re-run.
func (c *checker) job(what string, j svc.Job, key *cellKey, sample bool) bool {
	switch {
	case j.State != svc.Done:
		c.wrongf("%s: state %q: %s", what, j.State, j.Error)
		return false
	case j.Result == nil:
		c.wrongf("%s: done without a result", what)
		return false
	case !j.Result.Verified:
		c.wrongf("%s: result not functionally verified", what)
		return false
	case j.Result.Cycles == 0:
		c.wrongf("%s: zero cycles", what)
		return false
	}
	if want, ok := c.ref[j.Spec.Machine][j.Spec.Kernel]; ok && isPaperSpec(j.Spec) && j.Result.Cycles != want {
		c.wrongf("%s: paper cell %s/%s has %d cycles, reference %d", what, j.Spec.Machine, j.Spec.Kernel, j.Result.Cycles, want)
		return false
	}
	if key != nil {
		c.mu.Lock()
		prev, ok := c.first[*key]
		if !ok {
			c.first[*key] = j.Result.Cycles
		}
		c.mu.Unlock()
		if ok && prev != j.Result.Cycles {
			c.wrongf("%s: repeat answered %d cycles, first answer %d", what, j.Result.Cycles, prev)
			return false
		}
	}
	if !j.FromCache {
		c.cold(j.Spec, j.Result.Cycles, sample)
	}
	return true
}

// cold records a cell the server simulated for this request; sampled
// cells (and the first one, as a fallback) are re-run in-process after
// the timed phase.
func (c *checker) cold(spec svc.JobSpec, cycles uint64, sample bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := rerun{spec: spec, cycles: cycles}
	if sample {
		c.reruns = append(c.reruns, r)
	}
	if c.fallback == nil {
		c.fallback = &r
	}
}

// isPaperSpec reports whether a served spec is a Table 3 cell: the
// paper workload on the paper hardware.
func isPaperSpec(s svc.JobSpec) bool {
	return s.Config == nil && s.Workload != nil && *s.Workload == core.PaperWorkload()
}

// estimate verifies an estimate-tier answer against the roofline model
// computed in-process.
func (c *checker) estimate(what string, j svc.Job) {
	if j.State != svc.Done || j.Result == nil || j.Spec.Workload == nil {
		c.wrongf("%s: estimate answer state %q", what, j.State)
		return
	}
	est, err := roofline.ForJob(j.Spec.Machine, j.Spec.Kernel, *j.Spec.Workload)
	if err != nil {
		c.wrongf("%s: roofline.ForJob: %v", what, err)
		return
	}
	if j.Result.Cycles != est.Cycles {
		c.wrongf("%s: estimate %d cycles, roofline.ForJob %d", what, j.Result.Cycles, est.Cycles)
	}
}

// rerunSample re-runs the sampled cold cells on fresh machines through
// core.Run and compares cycles with what the servers answered. It
// returns how many cells it re-ran.
func (c *checker) rerunSample() int {
	c.mu.Lock()
	cells := append([]rerun(nil), c.reruns...)
	if len(cells) == 0 && c.fallback != nil {
		cells = append(cells, *c.fallback)
	}
	c.mu.Unlock()
	for _, r := range cells {
		got, err := runFresh(r.spec)
		switch {
		case err != nil:
			c.wrongf("re-run of %s/%s: %v", r.spec.Machine, r.spec.Kernel, err)
		case !got.Verified:
			c.wrongf("re-run of %s/%s: not functionally verified", r.spec.Machine, r.spec.Kernel)
		case got.Cycles != r.cycles:
			c.wrongf("re-run of %s/%s: %d cycles in-process, %d served", r.spec.Machine, r.spec.Kernel, got.Cycles, r.cycles)
		}
	}
	return len(cells)
}

// runFresh runs a served (normalized) spec on a newly built machine,
// with the spec's hardware override when it has one.
func runFresh(spec svc.JobSpec) (core.Result, error) {
	var m core.Machine
	var err error
	if spec.Config != nil {
		m, err = spec.Config.Machine(spec.Machine)
	} else {
		m, err = machines.ByName(spec.Machine)
	}
	if err != nil {
		return core.Result{}, err
	}
	return core.Run(m, spec.Kernel, *spec.Workload)
}

// result is the run's verdict, the tally the final JSON line reports.
func (c *checker) result() (correct bool, attempted, failed int, errs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrong == 0, c.attempted, c.failed, append([]string(nil), c.errs...)
}
