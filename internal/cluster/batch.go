package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"sigkern/internal/svc"
)

// maxBatchBody bounds POST /v1/batch request bodies at the gateway,
// matching the shard-side cap.
const maxBatchBody = 16 << 20

// batchCell is one parsed batch cell: the client-visible index, the
// normalized spec, and its canonical hash (the routing key).
type batchCell struct {
	index int
	spec  svc.JobSpec
	hash  string
}

// handleBatch splits one batch across the ring by each cell's spec
// hash and merges the shards' NDJSON streams back into a single
// response (see splitBatch); per-shard summary lines are swallowed and
// replaced with one merged summary.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !g.guardConfigConsensus(w) {
		return
	}
	cells, ok := g.readBatchCells(w, r)
	if !ok {
		return
	}
	w.Header().Set("X-Batch-Cells", strconv.Itoa(len(cells)))
	mw := g.splitBatch(w, r, cells, nil)
	mw.writeLine(svc.BatchSummary{Done: true, Cells: len(cells), Failed: mw.failed, FromCache: mw.fromCache})
}

// splitBatch routes cells across the ring by spec hash and merges the
// answers into w as NDJSON. Each shard group is one upstream POST
// /v1/batch carrying explicit per-line index fields, so a cell's index
// survives the split; lines are relayed to the client as they arrive,
// serialized through one writer. A failed sub-batch reroutes its
// unanswered cells to the group's ring successors; cells no shard could
// run come back as synthesized failed lines, never a dropped index.
// convert, when set, re-encodes every merged cell (a design point on
// /v1/dse); nil relays the shards' lines byte for byte. It returns
// once every group has finished, with the tallies for the summary.
func (g *Gateway) splitBatch(w http.ResponseWriter, r *http.Request, cells []batchCell, convert func(svc.BatchResult) any) *mergeWriter {
	g.metrics.proxiedInc()
	groups := make(map[string][]batchCell)
	for _, c := range cells {
		owner := g.routeOrder(c.hash)[0]
		groups[owner] = append(groups[owner], c)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	mw := &mergeWriter{w: w, convert: convert}
	if fl, ok := w.(http.Flusher); ok {
		mw.fl = fl
		// Headers out before the first shard answers, so streaming
		// clients can start reading immediately.
		fl.Flush()
	}
	var wg sync.WaitGroup
	for shard, group := range groups {
		wg.Add(1)
		go func(shard string, group []batchCell) {
			defer wg.Done()
			g.streamSubBatch(r, shard, group, mw)
		}(shard, group)
	}
	wg.Wait()
	return mw
}

// readBatchCells parses and normalizes the batch body — NDJSON lines
// or, under Content-Type application/json, the compact grid form — and
// computes each cell's routing hash. On failure it writes the error
// (400 with the line number, 413 past the caps) and reports ok=false.
func (g *Gateway) readBatchCells(w http.ResponseWriter, r *http.Request) ([]batchCell, bool) {
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	var cells []batchCell
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		var grid svc.BatchGrid
		if err := dec.Decode(&grid); err != nil {
			writeGatewayError(w, statusForBodyErr(err), "bad batch grid: "+err.Error())
			return nil, false
		}
		for i, spec := range grid.Expand() {
			cells = append(cells, batchCell{index: i, spec: spec})
		}
	} else {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		line := 0
		for sc.Scan() {
			line++
			raw := bytes.TrimSpace(sc.Bytes())
			if len(raw) == 0 {
				continue
			}
			var bl struct {
				svc.JobSpec
				Index *int `json:"index"`
			}
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&bl); err != nil {
				writeGatewayError(w, http.StatusBadRequest,
					fmt.Sprintf("bad batch line %d: %v", line, err))
				return nil, false
			}
			idx := len(cells)
			if bl.Index != nil {
				idx = *bl.Index
			}
			cells = append(cells, batchCell{index: idx, spec: bl.JobSpec})
		}
		if err := sc.Err(); err != nil {
			writeGatewayError(w, statusForBodyErr(err), "reading batch body: "+err.Error())
			return nil, false
		}
	}
	if len(cells) == 0 {
		writeGatewayError(w, http.StatusBadRequest, "cluster: empty batch")
		return nil, false
	}
	if len(cells) > svc.MaxBatchCells {
		writeGatewayError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("cluster: batch of %d cells exceeds cap of %d", len(cells), svc.MaxBatchCells))
		return nil, false
	}
	return cells, normalizeCells(w, cells, func(i int) string { return fmt.Sprintf("batch cell %d", i) })
}

// normalizeCells normalizes and hashes every cell at the gateway: no
// shard would accept an invalid spec, so routing it through the ring
// would just multiply the error, and the hash is the routing key. The
// first invalid cell, named by name, answers 400.
func normalizeCells(w http.ResponseWriter, cells []batchCell, name func(i int) string) bool {
	for i := range cells {
		norm, err := cells[i].spec.Normalize()
		if err == nil {
			cells[i].spec = norm
			cells[i].hash, err = norm.Hash()
		}
		if err != nil {
			writeGatewayError(w, http.StatusBadRequest, fmt.Sprintf("%s: %v", name(i), err))
			return false
		}
	}
	return true
}

// statusForBodyErr maps a body-read failure onto 413 when it came from
// the MaxBytesReader cap and 400 otherwise.
func statusForBodyErr(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// streamSubBatch drives one shard group to completion: try each
// candidate in ring order, resending only the cells no attempt has
// answered yet, and synthesize failed lines for whatever is left when
// the candidates run out.
func (g *Gateway) streamSubBatch(r *http.Request, owner string, group []batchCell, mw *mergeWriter) {
	order := g.routeOrder(group[0].hash)
	answered := make(map[int]bool)
	path := "/v1/batch"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	lastErr := "no shard reachable for batch"
	for _, name := range order {
		var pend []batchCell
		for _, c := range group {
			if !answered[c.index] {
				pend = append(pend, c)
			}
		}
		if len(pend) == 0 {
			return
		}
		br := g.breakers.Get(name)
		if err := br.Allow(); err != nil {
			g.metrics.breakerRejectedInc()
			lastErr = err.Error()
			continue
		}
		ok, errMsg := g.streamAttempt(r, name, path, pend, answered, mw)
		br.Record(ok)
		if ok {
			if name != owner {
				g.metrics.rerouteInc()
			}
			return
		}
		lastErr = errMsg
	}
	for _, c := range group {
		if !answered[c.index] {
			answered[c.index] = true
			mw.writeFailedCell(c, lastErr)
		}
	}
}

// streamAttempt POSTs one sub-batch to one shard and relays its NDJSON
// stream line by line, marking each answered index. It reports ok=false
// on transport errors and 5xx (the caller reroutes the unanswered
// remainder); a 4xx refusal fails the pending cells in place — a
// successor would refuse the same specs — and still counts as the shard
// working.
func (g *Gateway) streamAttempt(r *http.Request, shard, path string, pend []batchCell, answered map[int]bool, mw *mergeWriter) (bool, string) {
	s, ok := g.shards[shard]
	if !ok {
		return false, fmt.Sprintf("unknown shard %q", shard)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range pend {
		_ = enc.Encode(struct {
			svc.JobSpec
			Index int `json:"index"`
		}{c.spec, c.index})
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, s.URL+path, &buf)
	if err != nil {
		return false, err.Error()
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	for _, k := range []string{"X-Request-Id", "X-Deadline-Budget", "Accept"} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.metrics.upstreamErrorInc()
		g.prober.ObserveFailure(shard, err)
		return false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg := fmt.Sprintf("shard %s: %s: %s", shard, resp.Status, bytes.TrimSpace(body))
		if resp.StatusCode >= 500 {
			g.metrics.upstreamErrorInc()
			return false, msg
		}
		for _, c := range pend {
			answered[c.index] = true
			mw.writeFailedCell(c, msg)
		}
		return true, ""
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Index     *int   `json:"index"`
			ID        string `json:"id"`
			State     string `json:"state"`
			FromCache bool   `json:"from_cache"`
			Done      bool   `json:"done"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			continue
		}
		if probe.ID == "" && probe.Done {
			// The shard's own summary: swallowed, the gateway emits one
			// merged summary after every group finishes.
			continue
		}
		if probe.Index != nil {
			answered[*probe.Index] = true
		}
		mw.writeCell(raw, probe.State == string(svc.Failed), probe.FromCache)
	}
	if err := sc.Err(); err != nil {
		g.metrics.upstreamErrorInc()
		g.prober.ObserveFailure(shard, err)
		return false, err.Error()
	}
	return true, ""
}

// mergeWriter serializes concurrent shard streams into one NDJSON
// response, flushing per line so the client sees cells as they
// complete. The tallies are read without the lock only after every
// group goroutine has finished.
type mergeWriter struct {
	mu        sync.Mutex
	w         io.Writer
	fl        http.Flusher
	convert   func(svc.BatchResult) any
	failed    int
	fromCache int
}

// writeCell writes one answered cell: the shard's line as is, or
// re-encoded through convert.
func (mw *mergeWriter) writeCell(line []byte, failed, fromCache bool) {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	if failed {
		mw.failed++
	}
	if fromCache {
		mw.fromCache++
	}
	if mw.convert != nil {
		var br svc.BatchResult
		if err := json.Unmarshal(line, &br); err == nil {
			line, _ = json.Marshal(mw.convert(br))
		}
	}
	mw.writeLocked(line)
}

// writeLine writes one gateway-made line, such as the merged summary.
func (mw *mergeWriter) writeLine(v any) {
	line, _ := json.Marshal(v)
	mw.mu.Lock()
	defer mw.mu.Unlock()
	mw.writeLocked(line)
}

func (mw *mergeWriter) writeLocked(line []byte) {
	_, _ = mw.w.Write(line)
	_, _ = mw.w.Write([]byte("\n"))
	if mw.fl != nil {
		mw.fl.Flush()
	}
}

// writeFailedCell emits a synthesized failed line for a cell no shard
// could answer, preserving its index and spec so the client's
// bookkeeping stays complete.
func (mw *mergeWriter) writeFailedCell(c batchCell, msg string) {
	line, _ := json.Marshal(struct {
		Index int         `json:"index"`
		Spec  svc.JobSpec `json:"spec"`
		State svc.State   `json:"state"`
		Error string      `json:"error"`
	}{c.index, c.spec, svc.Failed, "cluster: " + msg})
	mw.writeCell(line, true, false)
}
