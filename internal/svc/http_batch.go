package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	specs, indices, err := ReadBatch(r.Body, r.Header.Get("Content-Type"))
	if err != nil {
		writeBodyError(w, "batch", err)
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

// BatchLineError reports a batch body's NDJSON line — malformed, or
// longer than MaxBodyBytes — by its 1-based number.
type BatchLineError struct {
	Line int
	Err  error
}

func (e *BatchLineError) Error() string { return fmt.Sprintf("bad batch line %d: %v", e.Line, e.Err) }

func (e *BatchLineError) Unwrap() error { return e.Err }

// TooLarge reports whether a ReadBatch or ReadDSE error is a body or
// an exploration past its cap — 413, where any other is 400.
func TooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe) || errors.Is(err, ErrDSETooLarge)
}

// ReadBatch decodes a batch request body, capped at MaxBatchBodyBytes,
// into its specs and the client-visible index of each cell: the one
// batch decoder of simserved and the gateway. A contentType of
// application/json is the compact grid form (BatchGrid); anything else
// is NDJSON, one JobSpec per line with an optional "index" (by default
// the spec's 0-based position), blank lines skipped. A malformed line
// is a *BatchLineError.
func ReadBatch(body io.Reader, contentType string) (specs []JobSpec, indices []int, err error) {
	capped := http.MaxBytesReader(nil, io.NopCloser(body), MaxBatchBodyBytes)
	if strings.HasPrefix(contentType, "application/json") {
		dec := json.NewDecoder(capped)
		dec.DisallowUnknownFields()
		var grid BatchGrid
		if err := dec.Decode(&grid); err != nil {
			return nil, nil, fmt.Errorf("bad batch grid: %w", err)
		}
		specs = grid.Expand()
		indices = make([]int, len(specs))
		for i := range indices {
			indices[i] = i
		}
		return specs, indices, nil
	}
	sc := bufio.NewScanner(capped)
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
			return nil, nil, &BatchLineError{Line: line, Err: err}
		}
		idx := len(specs)
		if bl.Index != nil {
			idx = *bl.Index
		}
		specs = append(specs, bl.JobSpec)
		indices = append(indices, idx)
	}
	if err := sc.Err(); err != nil {
		if TooLarge(err) {
			return nil, nil, fmt.Errorf("reading batch body: %w", err)
		}
		return nil, nil, &BatchLineError{Line: line + 1, Err: err}
	}
	return specs, indices, nil
}

// writeBodyError answers a body ReadBatch or ReadDSE refused: 413 past
// a cap, a ParamError naming a bad NDJSON line, and 400 otherwise.
func writeBodyError(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	var le *BatchLineError
	switch {
	case errors.As(err, &mbe):
		writeError(w, httpError{http.StatusRequestEntityTooLarge,
			what + " body exceeds " + strconv.Itoa(MaxBatchBodyBytes) + " bytes"})
	case errors.Is(err, ErrDSETooLarge):
		writeError(w, httpError{http.StatusRequestEntityTooLarge, err.Error()})
	case errors.As(err, &le):
		writeJSON(w, http.StatusBadRequest, ParamError{Error: err.Error(), Parameter: "line", Value: strconv.Itoa(le.Line),
			Want: []string{"one JobSpec JSON object per line, at most " + strconv.Itoa(MaxBodyBytes) + " bytes, optional \"index\" field"}})
	default:
		writeError(w, httpError{http.StatusBadRequest, err.Error()})
	}
}
