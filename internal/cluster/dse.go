package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"sigkern/internal/svc"
)

// guardConfigConsensus refuses a write when the ready shards disagree
// on their hardware config-set hash. Routing a job into a split-config
// cluster is a wrong-result hazard, not an availability problem: both
// shards would answer 200, with different cycle counts for the same
// canonical spec hash, and reroutes/rebalances would mix them in the
// same memo space. 503 until the operator converges the fleet.
func (g *Gateway) guardConfigConsensus(w http.ResponseWriter) bool {
	if _, ok := g.prober.ConfigConsensus(); !ok {
		g.metrics.configMismatchInc()
		w.Header().Set("Retry-After", "1")
		writeGatewayError(w, http.StatusServiceUnavailable,
			"cluster: ready shards report different hardware config-set hashes; refusing to route until they agree")
		return false
	}
	return true
}

// handleDSE serves a design-space exploration through the batch path:
// the gateway expands the request exactly as a shard would, routes the
// design points as cells through splitBatch to the shards' /v1/batch,
// and writes each merged cell as a point line — through the same
// conversion a single simserved uses — followed by one summary whose
// Pareto frontier covers every completed point.
func (g *Gateway) handleDSE(w http.ResponseWriter, r *http.Request) {
	if !g.guardConfigConsensus(w) {
		return
	}
	var req svc.DSERequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeGatewayError(w, statusForBodyErr(err), "bad dse request: "+err.Error())
		return
	}
	designs, err := req.Expand()
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, svc.ErrDSETooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeGatewayError(w, status, err.Error())
		return
	}
	cells := make([]batchCell, len(designs))
	for i, d := range designs {
		cells[i] = batchCell{index: i, spec: d.Spec}
	}
	if !normalizeCells(w, cells, func(i int) string { return fmt.Sprintf("dse point %q", designs[i].Label) }) {
		return
	}
	w.Header().Set("X-DSE-Points", strconv.Itoa(len(cells)))
	sum := svc.DSESummary{Points: len(cells), Machine: req.Base.Machine}
	mw := g.splitBatch(w, r, cells, func(br svc.BatchResult) any {
		pt := svc.NewDSEPoint(br.Index, designs[br.Index].Label, br.Job)
		sum.Add(pt)
		return pt
	})
	sum.Finish()
	mw.writeLine(sum)
}
