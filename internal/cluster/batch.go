package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"sigkern/internal/svc"
)

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
	b, err := submitBudget(r)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("X-Batch-Cells", strconv.Itoa(len(cells)))
	mw := g.splitBatch(w, r, b, cells, nil)
	mw.writeLine(svc.BatchSummary{Done: true, Cells: len(cells), Failed: mw.failed, FromCache: mw.fromCache})
}

// splitBatch routes cells across the ring by spec hash and merges the
// answers into w as NDJSON. Each shard group is one sub-batch
// (streamSubBatch) carrying explicit per-line index fields, so a cell's
// index survives the split; lines are relayed to the client as they
// arrive, serialized through one writer. Every group spends from the
// request's one deadline budget b. convert, when set, re-encodes every
// merged cell (a design point on /v1/dse); nil relays the shards' lines
// byte for byte. It returns once every group has finished, with the
// tallies for the summary.
func (g *Gateway) splitBatch(w http.ResponseWriter, r *http.Request, b budget, cells []batchCell, convert func(svc.BatchResult) any) *mergeWriter {
	g.metrics.proxied.Inc()
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
	for _, group := range groups {
		wg.Add(1)
		go func(group []batchCell) {
			defer wg.Done()
			g.streamSubBatch(r, b, group, mw)
		}(group)
	}
	wg.Wait()
	return mw
}

// readBatchCells decodes the batch body (svc.ReadBatch), checks its
// cell count, and normalizes each cell, computing its routing hash. On
// failure it writes the error (400 naming the line, 413 past the caps)
// and reports ok=false.
func (g *Gateway) readBatchCells(w http.ResponseWriter, r *http.Request) ([]batchCell, bool) {
	specs, indices, err := svc.ReadBatch(r.Body, r.Header.Get("Content-Type"))
	if err != nil {
		writeBodyError(w, err)
		return nil, false
	}
	if len(specs) == 0 {
		writeGatewayError(w, http.StatusBadRequest, "cluster: empty batch")
		return nil, false
	}
	if len(specs) > svc.MaxBatchCells {
		writeGatewayError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("cluster: batch of %d cells exceeds cap of %d", len(specs), svc.MaxBatchCells))
		return nil, false
	}
	cells := make([]batchCell, len(specs))
	for i, spec := range specs {
		cells[i] = batchCell{index: indices[i], spec: spec}
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

// writeBodyError answers a body svc.ReadBatch or svc.ReadDSE refused:
// 413 past a cap, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if svc.TooLarge(err) {
		status = http.StatusRequestEntityTooLarge
	}
	writeGatewayError(w, status, err.Error())
}

// streamSubBatch routes one shard group through route, along the ring
// order of its first cell: the sub-batch is the attempt shape whose
// NDJSON answer is streamed line by line. Each attempt resends only the
// cells no earlier attempt answered, and whatever is still unanswered
// when the route ends comes back as failed lines naming why — the last
// shard failure or the exhausted budget — never a dropped index.
func (g *Gateway) streamSubBatch(r *http.Request, b budget, group []batchCell, mw *mergeWriter) {
	answered := make(map[int]bool, len(group))
	path := "/v1/batch"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	hdr := r.Header.Clone()
	hdr.Set("Content-Type", "application/x-ndjson")
	hdr.Del("Idempotency-Key") // one client key cannot name every sub-batch
	_, err := g.route(r.Context(), group[0].hash, b, hdr, func(ctx context.Context, shard string, hdr http.Header) (int, error) {
		return g.streamAttempt(ctx, shard, path, hdr, group, answered, mw)
	})
	for _, c := range group {
		if !answered[c.index] {
			mw.writeFailedCell(c, err.Error())
		}
	}
}

// streamAttempt POSTs the group's unanswered cells to one shard and
// relays its NDJSON stream line by line, marking each answered index.
// An answer below 500 other than 200 fails the pending cells in place —
// a successor would refuse the same specs — and still counts as the
// shard working. The attempt succeeds once every pending cell has a
// line, even if the stream then breaks; a stream that ends or breaks
// before that returns 0 and the error, for route to classify.
func (g *Gateway) streamAttempt(ctx context.Context, shard, path string, hdr http.Header, group []batchCell, answered map[int]bool, mw *mergeWriter) (int, error) {
	var pend []batchCell
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range group {
		if !answered[c.index] {
			pend = append(pend, c)
			_ = enc.Encode(struct {
				svc.JobSpec
				Index int `json:"index"`
			}{c.spec, c.index})
		}
	}
	resp, err := g.send(ctx, shard, http.MethodPost, path, buf.Bytes(), hdr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("shard %s: %s: %s", shard, resp.Status, bytes.TrimSpace(body))
		if resp.StatusCode < 500 {
			for _, c := range pend {
				answered[c.index] = true
				mw.writeFailedCell(c, err.Error())
			}
		}
		return resp.StatusCode, err
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
	for _, c := range pend {
		if !answered[c.index] {
			if err := sc.Err(); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("shard %s: stream ended before cell %d", shard, c.index)
		}
	}
	return http.StatusOK, nil
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
