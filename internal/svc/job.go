// Package svc is the simulation service layer between the machine
// models and every front end: a typed simulation-job model, a bounded
// worker pool with per-job timeouts and panic isolation, a result
// memoization table keyed by a canonical hash of the job spec, and an
// in-process metrics registry. Command simserved exposes it over HTTP;
// cmd/sweep and cmd/sigstudy route their batch execution through the
// same pool so sweeps run machine-parallel instead of serially.
package svc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/machines"
	"sigkern/internal/obs"
	"sigkern/internal/roofline"
)

// JobSpec names one simulation: a machine, a kernel, and the workload to
// run it on. A nil Workload means the paper workload. The spec is the
// unit of memoization: two specs with the same canonical hash are the
// same simulation and the second is served from cache.
type JobSpec struct {
	Machine string        `json:"machine"`
	Kernel  core.KernelID `json:"kernel"`
	// Workload overrides the paper workload when present. Only the spec
	// of the requested kernel matters for the run, but the whole
	// workload participates in the hash so normalization stays simple.
	Workload *core.Workload `json:"workload,omitempty"`
	// Config overrides the machine's hardware parameters when present (a
	// machines.ConfigSet-shaped delta; partial sections merge over paper
	// defaults at decode time). It participates in the canonical hash,
	// so two specs differing only in hardware are different jobs.
	// Normalize reduces it to canonical form — sections equal to the
	// paper default are dropped and only the section for this spec's
	// machine is kept — so a spec with no override, or one spelling out
	// the defaults, hashes byte-identically to a legacy spec.
	Config *machines.ConfigSet `json:"config,omitempty"`
}

// ConfigHash returns the identity hash of the spec's config override:
// machines.ConfigSet.Hash of the override, or the empty string when the
// spec runs paper defaults. It keys the per-worker machine-reuse cache
// alongside the machine name, so a reused instance can never carry the
// wrong hardware parameters.
func (s JobSpec) ConfigHash() string {
	if s.Config == nil {
		return ""
	}
	return s.Config.Hash()
}

// Normalize validates the spec against the known machines and kernels
// and fills in the paper workload, so that hashing and execution see
// one canonical form.
func (s JobSpec) Normalize() (JobSpec, error) {
	// Name-only validation: constructing a machine allocates simulator
	// state (caches, DRAM banks), which the submission hot path — every
	// request, including memo hits — must not pay.
	if err := machines.Valid(s.Machine); err != nil {
		return JobSpec{}, err
	}
	valid := false
	for _, k := range core.Kernels() {
		if s.Kernel == k {
			valid = true
			break
		}
	}
	if !valid {
		return JobSpec{}, fmt.Errorf("svc: unknown kernel %q (want one of %v)", s.Kernel, core.Kernels())
	}
	if s.Workload == nil {
		w := core.PaperWorkload()
		s.Workload = &w
	}
	if err := s.Workload.Validate(); err != nil {
		return JobSpec{}, err
	}
	if s.Config != nil {
		if err := s.Config.Validate(); err != nil {
			return JobSpec{}, fmt.Errorf("svc: config override: %w", err)
		}
		canon := s.Config.Canonical()
		// Keep only the section this spec's machine reads: overrides for
		// other machines cannot change the result, so they must not
		// change the identity either.
		var kept machines.ConfigSet
		switch s.Machine {
		case "PPC", "AltiVec":
			kept.PPC = canon.PPC
		case "VIRAM":
			kept.VIRAM = canon.VIRAM
		case "Imagine":
			kept.Imagine = canon.Imagine
		case "Raw":
			kept.Raw = canon.Raw
		}
		if kept.Empty() {
			s.Config = nil
		} else {
			s.Config = &kept
		}
	}
	return s, nil
}

// Hash returns the canonical hash of the spec: SHA-256 over its JSON
// encoding (struct fields marshal in declaration order, so the encoding
// is deterministic). The spec should be normalized first so that an
// explicit paper workload and an omitted one hash identically.
func (s JobSpec) Hash() (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("svc: hashing job spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// State is a job's lifecycle position.
type State string

// The job lifecycle: Queued -> Running -> one of the terminal states.
// Cache hits go straight from Queued to Done.
const (
	Queued  State = "queued"
	Running State = "running"
	Done    State = "done"
	Failed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed }

// Job is one tracked simulation request. Fields are snapshots: the
// service hands out copies, never its internal pointer.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// Hash is the canonical spec hash (the memoization key).
	Hash string `json:"hash"`
	// IdemKey is the idempotency key the job was admitted under (for a
	// single job, the Idempotency-Key header, or the spec hash when the
	// service is durable; batch members take none): resubmitting it
	// returns this job instead of new work.
	IdemKey string `json:"idempotency_key,omitempty"`
	State   State  `json:"state"`
	// Tier records which quality tier answered the job: "simulate" for
	// the pool-run bit-deterministic simulation, "estimate" for the
	// synchronous analytic roofline bound. Jobs journaled before tiers
	// existed replay with an empty Tier, which reads as simulate.
	// ?tier=auto is resolved before the job exists, so "auto" never
	// appears here.
	Tier Tier `json:"tier,omitempty"`
	// Priority is the admission class the job was submitted under
	// (empty reads as interactive, the default).
	Priority Priority `json:"priority,omitempty"`
	// Degraded is true when this answer was served from the estimate
	// tier because the brownout controller was engaged — the client
	// asked ?tier=auto for a simulation and got the analytic bound
	// instead. Responses also carry an X-Degraded: brownout header.
	Degraded bool `json:"degraded,omitempty"`
	// FromCache is true when the result was served from the memo table
	// without running the simulator.
	FromCache bool         `json:"from_cache,omitempty"`
	Result    *core.Result `json:"result,omitempty"`
	// Estimate carries the full analytic breakdown (compute bound,
	// memory bound, intensity) on estimate-tier jobs; nil on simulated
	// ones.
	Estimate  *roofline.Estimate `json:"estimate,omitempty"`
	Error     string             `json:"error,omitempty"`
	Submitted time.Time          `json:"submitted"`
	Started   time.Time          `json:"started"`
	Finished  time.Time          `json:"finished"`
	// Trace is the job's span-style lifecycle record: timestamped
	// accepted/queued/started/retried/terminal transitions, served by
	// GET /v1/jobs/{id}/trace and persisted in journal snapshots so it
	// survives a restart. Job-list snapshots omit it.
	Trace []obs.Event `json:"trace,omitempty"`
	// interrupted marks a job whose failure was the process shutting
	// down (ErrPoolClosed), not the work itself: the durability layer
	// journals no terminal state for it and snapshots it as still
	// queued, so a restart re-enqueues it instead of replaying a
	// failure the client never caused.
	interrupted bool
	// done is closed when the job reaches a terminal state (or leaves
	// the registry unfinished, shed at admission): Wait blocks on it.
	done chan struct{}
}

// clone returns a copy safe to hand outside the registry lock: the
// trace slice is deep-copied (withTrace) or dropped, so a later append
// under the lock can never share memory with a caller's snapshot.
func (j *Job) clone(withTrace bool) Job {
	cp := *j
	cp.Trace = nil
	if withTrace && len(j.Trace) > 0 {
		cp.Trace = append([]obs.Event(nil), j.Trace...)
	}
	return cp
}

// Latency returns the queue-to-finish duration for terminal jobs and 0
// otherwise.
func (j Job) Latency() time.Duration {
	if !j.State.Terminal() || j.Finished.IsZero() {
		return 0
	}
	return j.Finished.Sub(j.Submitted)
}

// MachineFactory constructs a fresh machine instance by name. The
// machine models are stateful and not safe for concurrent use, so a
// worker never shares an instance: it builds one per machine and
// configuration and rewinds it between jobs. The default factory is
// machines.ByName (paper configurations).
type MachineFactory func(name string) (core.Machine, error)
