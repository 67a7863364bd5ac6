package svc

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// handleDSE serves POST /v1/dse: one base spec plus config deltas
// and/or sweep axes, expanded into design points and admitted through
// the batch fast path as a single group. Per-point results stream back
// as NDJSON in completion order; the trailer carries the Pareto
// frontier over (cycles, area proxy). See Handler for the wire
// contract.
func (s *Service) handleDSE(w http.ResponseWriter, r *http.Request) {
	opts, ok := admissionParams(w, r)
	if !ok {
		return
	}
	var req DSERequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if isBodyTooLarge(err) {
			writeError(w, httpError{http.StatusRequestEntityTooLarge,
				"dse body exceeds " + strconv.Itoa(maxBatchBodyBytes) + " bytes"})
			return
		}
		writeError(w, httpError{http.StatusBadRequest, "bad dse request: " + err.Error()})
		return
	}
	designs, err := req.Expand()
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDSETooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, httpError{status, err.Error()})
		return
	}

	specs := make([]JobSpec, len(designs))
	for i, d := range designs {
		specs[i] = d.Spec
	}
	run, err := s.SubmitBatch(r.Context(), specs, opts)
	if err != nil {
		// Point the client at the offending design point by its
		// expansion label rather than a line number — axis points have
		// no line in the request body.
		s.writeAdmitError(w, err, opts.Priority, func(bse *BatchSpecError) ParamError {
			return ParamError{Error: err.Error(), Parameter: "point", Value: designs[bse.Index].Label,
				Want: []string{"a valid base spec and config deltas"}}
		})
		return
	}
	w.Header().Set("X-DSE-Points", strconv.Itoa(len(designs)))
	summary := DSESummary{Points: len(designs), Machine: req.Base.Machine}
	streamRun(w, r, run, func(br BatchResult) any {
		pt := NewDSEPoint(br.Index, designs[br.Index].Label, br.Job)
		summary.Add(pt)
		return pt
	}, func() any {
		summary.Finish()
		return summary
	})
}
