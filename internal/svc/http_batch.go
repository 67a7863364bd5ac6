package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
)

// MaxBatchBodyBytes bounds /v1/batch and /v1/dse bodies, here and at the
// gateway — generous enough for a full MaxBatchCells NDJSON batch with
// explicit workloads, small enough that a runaway client cannot buffer
// the process out of memory. Oversized bodies are 413, like cell counts.
const MaxBatchBodyBytes = 16 << 20

// ndjsonContentType marks newline-delimited JSON streams: the batch
// request body (one JobSpec per line) and the batch response (one
// completed cell per line, in completion order).
const ndjsonContentType = "application/x-ndjson"

// batchLine is one NDJSON request line: a JobSpec plus an optional
// explicit index echoed back in the cell's result line. Clients that
// omit it get the 0-based line position; the cluster gateway sets it to
// preserve a client's numbering while splitting one batch across
// shards.
type batchLine struct {
	JobSpec
	Index *int `json:"index,omitempty"`
}

// BatchSummary is the final NDJSON line of a batch response, after
// every cell line.
type BatchSummary struct {
	Done      bool `json:"done"`
	Cells     int  `json:"cells"`
	Failed    int  `json:"failed"`
	FromCache int  `json:"from_cache"`
}

// handleBatch serves POST /v1/batch: the whole group is parsed and
// admitted as one unit, then results stream back as NDJSON in
// completion order, each line a job snapshot tagged with its cell
// index. See Handler for the wire contract.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	opts, ok := admissionParams(w, r)
	if !ok {
		return
	}
	specs, indices, ok := s.readBatchBody(w, r)
	if !ok {
		return
	}
	run, err := s.SubmitBatch(r.Context(), specs, opts)
	if err != nil {
		// Point the client at the offending NDJSON line (or grid cell):
		// the 0-based spec index maps 1:1 onto parsed lines.
		s.writeAdmitError(w, err, opts.Priority, func(bse *BatchSpecError) ParamError {
			return ParamError{Error: err.Error(), Parameter: "line", Value: strconv.Itoa(bse.Index + 1),
				Want: []string{"a valid JobSpec per line"}}
		})
		return
	}
	w.Header().Set("X-Batch-Cells", strconv.Itoa(len(specs)))
	summary := BatchSummary{Cells: len(specs)}
	streamRun(w, r, run, func(br BatchResult) any {
		if br.State == Failed {
			summary.Failed++
		}
		if br.FromCache {
			summary.FromCache++
		}
		br.Index = indices[br.Index]
		return br
	}, func() any {
		summary.Done = true
		return summary
	})
}

// streamRun streams an admitted group as NDJSON: one line per member
// in completion order, flushed as it arrives, then the summary line. A
// client that disconnects mid-stream cancels only members that have
// not started (dropped at worker pickup); running ones finish and are
// journaled, so work already paid for is never discarded.
func streamRun(w http.ResponseWriter, r *http.Request, run *BatchRun, line func(BatchResult) any, summary func() any) {
	stopCancel := context.AfterFunc(r.Context(), run.Cancel)
	defer stopCancel()
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Push the headers out before the first member completes: streaming
	// clients need the 200 to start reading, and a client gating its own
	// workload on it would otherwise deadlock against us.
	flush()
	enc := json.NewEncoder(w)
	for br := range run.Results() {
		_ = enc.Encode(line(br))
		flush()
	}
	_ = enc.Encode(summary())
	flush()
}

// readBatchBody parses a batch request body into specs plus the
// client-visible index of each cell. Content-Type application/json is
// the compact grid-expansion form (BatchGrid); anything else is NDJSON,
// one JobSpec per line. On failure it writes the error response (400
// with the 1-based line number, or 413 past the body cap) and reports
// ok=false.
func (s *Service) readBatchBody(w http.ResponseWriter, r *http.Request) (specs []JobSpec, indices []int, ok bool) {
	body := http.MaxBytesReader(w, r.Body, MaxBatchBodyBytes)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		var grid BatchGrid
		if err := dec.Decode(&grid); err != nil {
			if isBodyTooLarge(err) {
				writeError(w, httpError{http.StatusRequestEntityTooLarge,
					"batch body exceeds " + strconv.Itoa(MaxBatchBodyBytes) + " bytes"})
				return nil, nil, false
			}
			writeError(w, httpError{http.StatusBadRequest, "bad batch grid: " + err.Error()})
			return nil, nil, false
		}
		specs = grid.Expand()
		indices = make([]int, len(specs))
		for i := range indices {
			indices[i] = i
		}
		return specs, indices, true
	}

	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), MaxBodyBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var bl batchLine
		if err := dec.Decode(&bl); err != nil {
			writeJSON(w, http.StatusBadRequest, ParamError{
				Error:     "bad batch line: " + err.Error(),
				Parameter: "line",
				Value:     strconv.Itoa(line),
				Want:      []string{"one JobSpec JSON object per line, optional \"index\" field"},
			})
			return nil, nil, false
		}
		idx := len(specs)
		if bl.Index != nil {
			idx = *bl.Index
		}
		specs = append(specs, bl.JobSpec)
		indices = append(indices, idx)
	}
	if err := sc.Err(); err != nil {
		if isBodyTooLarge(err) {
			writeError(w, httpError{http.StatusRequestEntityTooLarge,
				"batch body exceeds " + strconv.Itoa(MaxBatchBodyBytes) + " bytes"})
			return nil, nil, false
		}
		writeJSON(w, http.StatusBadRequest, ParamError{
			Error:     "bad batch line: " + err.Error(),
			Parameter: "line",
			Value:     strconv.Itoa(line + 1),
			Want:      []string{"one JobSpec JSON object per line, at most " + strconv.Itoa(MaxBodyBytes) + " bytes each"},
		})
		return nil, nil, false
	}
	return specs, indices, true
}

// isBodyTooLarge reports whether err came from the MaxBytesReader cap.
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}
