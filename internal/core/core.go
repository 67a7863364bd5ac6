// Package core defines the comparative-study framework that is the
// paper's contribution: a common set of kernel specifications, a Machine
// abstraction implemented by every architecture model, cycle-count
// results with breakdowns, and the speedup computations behind Table 3
// and Figures 8 and 9.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sigkern/internal/cache"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/matmul"
	"sigkern/internal/sim"
)

// KernelID names one of the paper's three kernels.
type KernelID string

// The three kernels of the study, in the paper's order.
const (
	CornerTurn   KernelID = "corner-turn"
	CSLC         KernelID = "cslc"
	BeamSteering KernelID = "beam-steering"
)

// MatMul is the extension kernel (dense matrix multiply, from the Raw
// related work the paper cites); it is not part of the paper's Table 3
// and therefore not in Kernels().
const MatMul KernelID = "matmul"

// Kernels lists the study's kernels in presentation order.
func Kernels() []KernelID { return []KernelID{CornerTurn, CSLC, BeamSteering} }

// Title returns the kernel's display name as used in the paper's tables.
func (k KernelID) Title() string {
	switch k {
	case CornerTurn:
		return "Corner Turn"
	case CSLC:
		return "CSLC"
	case BeamSteering:
		return "Beam Steering"
	default:
		return string(k)
	}
}

// Workload bundles the concrete kernel instances of one study run. The
// CSLC radix is chosen per machine (the paper used mixed radix-4/2 on
// VIRAM and Imagine but radix-2 on Raw), so CSLC carries the base spec
// and each machine declares its own radix (Machine.Formulation).
type Workload struct {
	CornerTurn cornerturn.Spec
	CSLC       cslc.Spec
	Beam       beamsteer.Spec
}

// PaperWorkload returns the exact instances evaluated in the paper.
func PaperWorkload() Workload {
	return Workload{
		CornerTurn: cornerturn.PaperSpec(),
		CSLC:       cslc.PaperSpec(fft.MixedRadix42),
		Beam:       beamsteer.PaperSpec(),
	}
}

// Validate checks every kernel spec.
func (w Workload) Validate() error {
	if err := w.CornerTurn.Validate(); err != nil {
		return err
	}
	if err := w.CSLC.Validate(); err != nil {
		return err
	}
	return w.Beam.Validate()
}

// Params holds the Table 2 row for one machine.
type Params struct {
	// ClockMHz is the implementation clock rate.
	ClockMHz float64
	// ALUs is the number of arithmetic units.
	ALUs int
	// PeakGFLOPS is the peak single-precision floating-point rate.
	PeakGFLOPS float64
	// Description summarizes the architecture for reports.
	Description string
}

// Result reports one kernel execution on one machine model.
type Result struct {
	Machine string
	Kernel  KernelID
	// Cycles is the simulated cycle count (the Table 3 quantity).
	Cycles uint64
	// Breakdown attributes cycles to causes (memory, compute, startup,
	// stalls, ...), mirroring the paper's Section 4 percentages.
	Breakdown sim.Breakdown
	// Stats carries event counters from the underlying simulators.
	Stats sim.Stats
	// Ops is the number of useful operations performed.
	Ops uint64
	// Words is the number of 32-bit words moved to/from memory.
	Words uint64
	// Verified is true when the formulation the machine times was proved
	// against the golden kernel reference before the run (see Checked).
	Verified bool
	// Notes carries qualitative observations (e.g. the Raw load-balance
	// extrapolation).
	Notes []string
}

// KCycles returns cycles in thousands, the unit of the paper's Table 3.
func (r Result) KCycles() float64 { return float64(r.Cycles) / 1e3 }

// OpsPerCycle returns achieved useful operations per cycle.
func (r Result) OpsPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Cycles)
}

// TimeMS returns wall-clock milliseconds at the given clock rate.
func (r Result) TimeMS(clockMHz float64) float64 {
	return float64(r.Cycles) / (clockMHz * 1e3)
}

// MatMulRunner is implemented by machines that also support the
// extension matrix-multiply kernel.
type MatMulRunner interface {
	RunMatMul(spec matmul.Spec) (Result, error)
}

// Resettable is implemented by machine models whose instances may be
// reused across runs. Reset rewinds every piece of simulation state —
// memory timelines, cache contents, accounting counters — to the
// just-constructed state, so a reused instance produces bit-identical
// cycle counts to a fresh one. Every kernel entry point performs the
// same rewind on entry. The service's pool never calls Reset: it builds
// an instance per execution attempt. The exported contract exists so
// tests and benchmarks can verify and time the rewind as models grow
// state.
type Resettable interface {
	Reset()
}

// Machine is one architecture model: it declares how it computes each
// kernel and times the three kernels, reporting simulated cycles. Its
// Run methods only time, on specs that Run has validated and proved the
// declared formulation on.
type Machine interface {
	// Name returns the machine's display name ("VIRAM", "Imagine", ...).
	Name() string
	// Params returns the Table 2 parameters.
	Params() Params
	// Formulation declares the formulation of each kernel of w that the
	// machine's Run methods time.
	Formulation(w Workload) Formulation
	// RunCornerTurn, RunCSLC and RunBeamSteering account the cycles of
	// the declared formulations.
	RunCornerTurn(spec cornerturn.Spec) (Result, error)
	RunCSLC(spec cslc.Spec) (Result, error)
	RunBeamSteering(spec beamsteer.Spec) (Result, error)
}

// Formulation is how a machine computes each kernel, what its timing
// models and Prove checks: the corner turn's transposer and CSLC's FFT
// radix. Beam steering has one formulation, so it has no field.
type Formulation struct {
	CornerTurn cornerturn.Transposer
	CSLC       fft.Radix
}

// Run proves the formulation m declares for kernel k of w, then times k
// on m and returns the result stamped Verified.
func Run(m Machine, k KernelID, w Workload) (Result, error) {
	return Checked(Prove(k, w, m.Formulation(w)), func() (Result, error) {
		switch k {
		case CornerTurn:
			return m.RunCornerTurn(w.CornerTurn)
		case CSLC:
			return m.RunCSLC(w.CSLC)
		default:
			return m.RunBeamSteering(w.Beam)
		}
	})
}

// Checked returns a failed check's error, or else run's result stamped
// Verified: the one place a Result gains the stamp. Run and the ablation
// entry points pass Prove's error, the extension kernels their own
// check's.
func Checked(check error, run func() (Result, error)) (Result, error) {
	if check != nil {
		return Result{}, check
	}
	r, err := run()
	r.Verified = err == nil
	return r, err
}

// Prove runs kernel k's golden check on w under formulation f and
// returns its error unchanged: cornerturn.VerifySynthetic with f's
// transposer, cslc.Verify at f's radix, or beamsteer.Verify. A check is
// deterministic and reads nothing beyond its key (the kernel, the spec
// fields the check reads, and f), so each success is remembered per
// process and each key is proved once; a failure is never remembered,
// so a failing formulation fails on every call.
func Prove(k KernelID, w Workload, f Formulation) error {
	var key string
	var check func() error
	switch k {
	case CornerTurn:
		s := w.CornerTurn
		// Validated outside the check, which reads no block size.
		if err := s.Validate(); err != nil {
			return err
		}
		key = fmt.Sprintf("%s %dx%d %+v", k, s.Rows, s.Cols, f.CornerTurn)
		check = func() error { return cornerturn.VerifySynthetic(s.Rows, s.Cols, f.CornerTurn.Transpose) }
	case CSLC:
		s := w.CSLC
		s.Radix = f.CSLC
		key = fmt.Sprintf("%s %+v", k, s)
		check = func() error { return cslc.Verify(s) }
	case BeamSteering:
		key = fmt.Sprintf("%s %+v", k, w.Beam)
		check = func() error { return beamsteer.Verify(w.Beam) }
	default:
		return fmt.Errorf("core: unknown kernel %q", k)
	}
	_, err := verdicts.Do(key, func() (struct{}, error) { return struct{}{}, check() })
	return err
}

// verdicts remembers each successful Prove by its key (40-100 bytes, each
// charged 48 more) within 16 KiB, about a hundred keys. Repeated proofs
// come close together (a cell's five machines, a design-space
// exploration's points), and a sized memo scans its entries to evict,
// so a larger one costs more than it saves.
var verdicts = cache.NewSizedMemo("core_verdict", 16<<10, func(struct{}) int { return 48 })

// StudyResults holds every (machine, kernel) result of one study run.
type StudyResults struct {
	Workload Workload
	machines []Machine
	results  map[string]map[KernelID]Result
}

// RunStudy executes every kernel of the workload on every machine. A
// failed run aborts the study; partial tables would be misleading.
func RunStudy(machines []Machine, w Workload) (*StudyResults, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	results := make(map[string]map[KernelID]Result)
	for _, m := range machines {
		results[m.Name()] = make(map[KernelID]Result)
		for _, k := range Kernels() {
			r, err := Run(m, k, w)
			if err != nil {
				return nil, fmt.Errorf("core: %s on %s: %w", k, m.Name(), err)
			}
			results[m.Name()][k] = r
		}
	}
	return NewStudyResults(machines, w, results)
}

// NewStudyResults assembles study results computed elsewhere — e.g. by
// a concurrent runner fanning (machine, kernel) pairs across a worker
// pool — enforcing the same completeness and functional-verification
// invariants as RunStudy.
func NewStudyResults(machines []Machine, w Workload, results map[string]map[KernelID]Result) (*StudyResults, error) {
	if len(machines) == 0 {
		return nil, errors.New("core: no machines")
	}
	sr := &StudyResults{
		Workload: w,
		machines: machines,
		results:  make(map[string]map[KernelID]Result),
	}
	for _, m := range machines {
		sr.results[m.Name()] = make(map[KernelID]Result)
		for _, k := range Kernels() {
			r, ok := results[m.Name()][k]
			if !ok {
				return nil, fmt.Errorf("core: missing result %s/%s", m.Name(), k)
			}
			if !r.Verified {
				return nil, fmt.Errorf("core: %s on %s: result not functionally verified", k, m.Name())
			}
			sr.results[m.Name()][k] = r
		}
	}
	return sr, nil
}

// Machines returns the machines in study order.
func (s *StudyResults) Machines() []Machine { return s.machines }

// MachineNames returns the display names in study order.
func (s *StudyResults) MachineNames() []string {
	names := make([]string, len(s.machines))
	for i, m := range s.machines {
		names[i] = m.Name()
	}
	return names
}

// Result returns the result for (machine, kernel); ok is false when the
// pair was not part of the study.
func (s *StudyResults) Result(machine string, k KernelID) (Result, bool) {
	mr, ok := s.results[machine]
	if !ok {
		return Result{}, false
	}
	r, ok := mr[k]
	return r, ok
}

// mustResult panics on a missing pair; internal helpers use it after
// RunStudy guaranteed completeness.
func (s *StudyResults) mustResult(machine string, k KernelID) Result {
	r, ok := s.Result(machine, k)
	if !ok {
		panic(fmt.Sprintf("core: missing result %s/%s", machine, k))
	}
	return r
}

// SpeedupCycles returns the Figure 8 quantity: baseline cycles divided by
// machine cycles for kernel k.
func (s *StudyResults) SpeedupCycles(baseline, machine string, k KernelID) float64 {
	b := s.mustResult(baseline, k)
	m := s.mustResult(machine, k)
	if m.Cycles == 0 {
		return 0
	}
	return float64(b.Cycles) / float64(m.Cycles)
}

// SpeedupTime returns the Figure 9 quantity: baseline execution time
// divided by machine execution time at each machine's own clock rate.
func (s *StudyResults) SpeedupTime(baseline, machine string, k KernelID) float64 {
	var bm, mm Machine
	for _, m := range s.machines {
		switch m.Name() {
		case baseline:
			bm = m
		case machine:
			mm = m
		}
	}
	if bm == nil || mm == nil {
		panic(fmt.Sprintf("core: unknown machine in speedup: %s or %s", baseline, machine))
	}
	b := s.mustResult(baseline, k)
	m := s.mustResult(machine, k)
	bt := b.TimeMS(bm.Params().ClockMHz)
	mt := m.TimeMS(mm.Params().ClockMHz)
	if mt == 0 {
		return 0
	}
	return bt / mt
}

// GeometricMeanSpeedup aggregates speedups over all kernels, the way the
// EEMBC comparison in the paper's Section 2.1 aggregates benchmarks.
func (s *StudyResults) GeometricMeanSpeedup(baseline, machine string, timeDomain bool) float64 {
	prod := 1.0
	ks := Kernels()
	for _, k := range ks {
		if timeDomain {
			prod *= s.SpeedupTime(baseline, machine, k)
		} else {
			prod *= s.SpeedupCycles(baseline, machine, k)
		}
	}
	return math.Pow(prod, 1/float64(len(ks)))
}

// BestMachine returns the machine with the fewest cycles on kernel k.
func (s *StudyResults) BestMachine(k KernelID) string {
	type entry struct {
		name   string
		cycles uint64
	}
	var entries []entry
	for _, m := range s.machines {
		entries = append(entries, entry{m.Name(), s.mustResult(m.Name(), k).Cycles})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].cycles != entries[j].cycles {
			return entries[i].cycles < entries[j].cycles
		}
		return entries[i].name < entries[j].name
	})
	return entries[0].name
}
