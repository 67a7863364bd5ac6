package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"sigkern/internal/machines"
)

// ErrDSETooLarge reports an exploration expanding past MaxDSEPoints;
// the HTTP layers map it to 413.
var ErrDSETooLarge = errors.New("svc: exploration exceeds the point cap")

// MaxDSEPoints caps one design-space exploration's expanded point
// count — the 413 threshold of POST /v1/dse. It is deliberately far
// below MaxBatchCells: a sweep's value is a readable frontier, and the
// pool admission still treats the fan-out as one batch group.
const MaxDSEPoints = 512

// DSEAxis is one named sweep dimension of a design-space exploration:
// a hardware parameter and the values to try. Axes are conveniences
// over raw config deltas — each value expands to a semantically
// complete ConfigSet delta, scaling the co-dependent parameters a
// naive single-field override would miss (a VIRAM lane scales its FP
// datapath and its share of DRAM address/data bandwidth with it).
// Multiple axes form a cross product, in request order; when two axes
// write the same field the later axis wins.
type DSEAxis struct {
	// Param names the swept parameter; see dseAxisDefs for the
	// supported set ("viram.Lanes", "viram.MVL", "imagine.Clusters",
	// "raw.Mesh", "ppc.IssueWidth").
	Param string `json:"param"`
	// Values are the parameter settings to explore.
	Values []int `json:"values"`
}

// DSERequest is the body of POST /v1/dse: one base spec plus the
// design points to explore around it, as explicit config deltas and/or
// named sweep axes. With neither, the exploration has exactly one
// point — the base spec itself, which for a default base reproduces
// the paper cell bit for bit.
type DSERequest struct {
	Base JobSpec `json:"base"`
	// Deltas are explicit per-point config overrides. Each delta
	// REPLACES the base spec's config for its point (partial sections
	// merge over paper defaults, not over the base's override); an
	// empty delta object means paper defaults.
	Deltas []machines.ConfigSet `json:"deltas,omitempty"`
	// Axes expand to the cross product of their values, appended after
	// Deltas.
	Axes []DSEAxis `json:"axes,omitempty"`
}

// DSEDesign is one expanded design point before execution; its index
// is its position in the expansion.
type DSEDesign struct {
	// Label is a human-readable identity: "base", "delta[2]", or
	// "viram.Lanes=8 raw.Mesh=2" for axis points.
	Label string
	// Spec is the runnable spec: the base with Config replaced by the
	// point's delta. Not yet normalized.
	Spec JobSpec
}

// dseAxisDefs maps axis names to their delta expansions. Every
// expansion returns a ConfigSet-shaped JSON object; expansions of the
// axes in one point are deep-merged in request order before decoding
// over the paper defaults.
var dseAxisDefs = map[string]func(v int) (map[string]any, error){
	// viram.Lanes scales the whole vector datapath, the way VIRAM's
	// design space actually varies (the paper's part is 8 x 64-bit
	// lanes): the FP lane count tracks the lane count, and the embedded
	// DRAM's data/address bandwidth scales with it — n words per cycle
	// of sequential bandwidth and one address generator per lane pair,
	// matching the paper default at n=8 (8 wide, 4 generators) exactly.
	// A bare Lanes override would be inert on memory-bound kernels and
	// invalid below the default FP width; this expansion keeps the
	// sweep physical.
	"viram.Lanes": func(n int) (map[string]any, error) {
		if n < 1 {
			return nil, fmt.Errorf("svc: viram.Lanes must be >= 1, got %d", n)
		}
		return map[string]any{"viram": map[string]any{
			"Lanes":   n,
			"FPLanes": n,
			"DRAM": map[string]any{
				"SeqWordsPerCycle": n,
				"AddrGens":         max(1, n/2),
			},
		}}, nil
	},
	"viram.MVL": func(n int) (map[string]any, error) {
		if n < 1 {
			return nil, fmt.Errorf("svc: viram.MVL must be >= 1, got %d", n)
		}
		return map[string]any{"viram": map[string]any{"MVL": n}}, nil
	},
	"imagine.Clusters": func(n int) (map[string]any, error) {
		if n < 1 {
			return nil, fmt.Errorf("svc: imagine.Clusters must be >= 1, got %d", n)
		}
		return map[string]any{"imagine": map[string]any{"Clusters": n}}, nil
	},
	// raw.Mesh sweeps a square n x n tile grid.
	"raw.Mesh": func(n int) (map[string]any, error) {
		if n < 1 {
			return nil, fmt.Errorf("svc: raw.Mesh must be >= 1, got %d", n)
		}
		return map[string]any{"raw": map[string]any{
			"Mesh": map[string]any{"Width": n, "Height": n},
		}}, nil
	},
	"ppc.IssueWidth": func(n int) (map[string]any, error) {
		if n < 1 {
			return nil, fmt.Errorf("svc: ppc.IssueWidth must be >= 1, got %d", n)
		}
		return map[string]any{"ppc": map[string]any{"IssueWidth": n}}, nil
	},
}

// DSEAxisParams lists the supported axis names (sorted), for error
// messages and docs.
func DSEAxisParams() []string {
	out := make([]string, 0, len(dseAxisDefs))
	for k := range dseAxisDefs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// deepMerge merges src into dst recursively: nested maps merge,
// anything else overwrites.
func deepMerge(dst, src map[string]any) {
	for k, sv := range src {
		if sm, ok := sv.(map[string]any); ok {
			if dm, ok := dst[k].(map[string]any); ok {
				deepMerge(dm, sm)
				continue
			}
		}
		dst[k] = sv
	}
}

// Expand turns the request into its concrete design points: the
// explicit deltas first, then the axes' cross product. Axis deltas are
// built as JSON and decoded through ConfigSet's strict merge-over-
// defaults unmarshaler, so they get exactly the semantics of a
// hand-written delta.
func (r DSERequest) Expand() ([]DSEDesign, error) {
	var points []DSEDesign
	add := func(label string, delta *machines.ConfigSet) {
		spec := r.Base
		spec.Config = delta
		points = append(points, DSEDesign{Label: label, Spec: spec})
	}
	for i := range r.Deltas {
		d := r.Deltas[i]
		if d.Empty() {
			add(fmt.Sprintf("delta[%d]", i), nil)
		} else {
			add(fmt.Sprintf("delta[%d]", i), &d)
		}
	}
	if len(r.Axes) > 0 {
		// Check the nominal point count before materializing anything: a
		// hostile cross product must be refused in O(axes), not built.
		prod := 1
		for _, ax := range r.Axes {
			if _, ok := dseAxisDefs[ax.Param]; !ok {
				return nil, fmt.Errorf("svc: unknown sweep axis %q (want one of %v)", ax.Param, DSEAxisParams())
			}
			if len(ax.Values) == 0 {
				return nil, fmt.Errorf("svc: sweep axis %q has no values", ax.Param)
			}
			prod *= len(ax.Values)
			if n := len(r.Deltas) + prod; n > MaxDSEPoints {
				return nil, fmt.Errorf("%w: %d points (max %d)", ErrDSETooLarge, n, MaxDSEPoints)
			}
		}
		// Cross product, row-major: the first axis varies slowest.
		combo := make([]int, len(r.Axes))
		for {
			merged := map[string]any{}
			label := ""
			for ai, ax := range r.Axes {
				v := ax.Values[combo[ai]]
				m, err := dseAxisDefs[ax.Param](v)
				if err != nil {
					return nil, err
				}
				deepMerge(merged, m)
				if label != "" {
					label += " "
				}
				label += fmt.Sprintf("%s=%d", ax.Param, v)
			}
			data, err := json.Marshal(merged)
			if err != nil {
				return nil, fmt.Errorf("svc: encoding axis delta %s: %w", label, err)
			}
			var delta machines.ConfigSet
			if err := json.Unmarshal(data, &delta); err != nil {
				return nil, fmt.Errorf("svc: axis delta %s: %w", label, err)
			}
			add(label, &delta)
			// Odometer increment over the combo vector.
			ai := len(combo) - 1
			for ai >= 0 {
				combo[ai]++
				if combo[ai] < len(r.Axes[ai].Values) {
					break
				}
				combo[ai] = 0
				ai--
			}
			if ai < 0 {
				break
			}
		}
	}
	if len(points) == 0 {
		// No deltas, no axes: explore exactly the base spec. A default
		// base reproduces the paper cell bit for bit.
		add("base", r.Base.Config)
	}
	if len(points) > MaxDSEPoints {
		return nil, fmt.Errorf("%w: %d points (max %d)", ErrDSETooLarge, len(points), MaxDSEPoints)
	}
	return points, nil
}

// DSEPoint is one completed design point on the /v1/dse NDJSON stream.
type DSEPoint struct {
	Index int    `json:"index"`
	Label string `json:"label,omitempty"`
	// Config is the point's canonical config override (null for paper
	// defaults) — what the job actually ran with, after normalization.
	Config *machines.ConfigSet `json:"config,omitempty"`
	State  State               `json:"state"`
	// Cycles is the simulated cycle count (done points only) — bit-
	// identical to a single-job submission of the same spec.
	Cycles uint64 `json:"cycles,omitempty"`
	// Area is the machine's area proxy under the point's config, and
	// AreaDesc the formula (see machines.ConfigSet.AreaProxy).
	Area      float64 `json:"area,omitempty"`
	AreaDesc  string  `json:"area_desc,omitempty"`
	FromCache bool    `json:"from_cache,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// NewDSEPoint is the one conversion from a finished design-point job to
// its /v1/dse line, shared by simserved and the cluster gateway: the
// point's index and label from the expansion, the config the job ran
// with after normalization, cycles when done, and the area proxy —
// which depends only on the config, so a failed point still reports
// where it sits on the area axis.
func NewDSEPoint(index int, label string, j Job) DSEPoint {
	pt := DSEPoint{Index: index, Label: label, Config: j.Spec.Config, State: j.State, FromCache: j.FromCache, Error: j.Error}
	cs := machines.ConfigSet{}
	if j.Spec.Config != nil {
		cs = *j.Spec.Config
	}
	if area, desc, err := cs.AreaProxy(j.Spec.Machine); err == nil {
		pt.Area, pt.AreaDesc = area, desc
	}
	if j.State == Done && j.Result != nil {
		pt.Cycles = j.Result.Cycles
	}
	return pt
}

// DSESummary is the stream's trailer: counts plus the Pareto frontier
// over the completed points.
type DSESummary struct {
	Done     bool   `json:"done"`
	Points   int    `json:"points"`
	Failed   int    `json:"failed"`
	Machine  string `json:"machine,omitempty"`
	AreaDesc string `json:"area_desc,omitempty"`
	// Frontier holds the Pareto-optimal points (no other point is at
	// least as good on both cycles and area and strictly better on
	// one), sorted by ascending area.
	Frontier []DSEFrontierPoint `json:"frontier"`
}

// Add counts one streamed point: a failure, or a completed point kept
// as a frontier candidate.
func (s *DSESummary) Add(pt DSEPoint) {
	if pt.AreaDesc != "" {
		s.AreaDesc = pt.AreaDesc
	}
	if pt.State != Done {
		s.Failed++
		return
	}
	s.Frontier = append(s.Frontier, DSEFrontierPoint{Index: pt.Index, Label: pt.Label, Cycles: pt.Cycles, Area: pt.Area})
}

// Finish marks the summary complete and reduces the completed points
// to their Pareto frontier.
func (s *DSESummary) Finish() {
	s.Done = true
	s.Frontier = ParetoFrontier(s.Frontier)
}

// DSEFrontierPoint is one Pareto-optimal design point.
type DSEFrontierPoint struct {
	Index  int     `json:"index"`
	Label  string  `json:"label,omitempty"`
	Cycles uint64  `json:"cycles"`
	Area   float64 `json:"area"`
}

// ParetoFrontier returns the points minimal in (cycles, area): a point
// survives unless some other point is <= on both coordinates and < on
// at least one. Ties on both coordinates all survive (they are the
// same design trade-off, e.g. a cache hit and its twin). Sorted by
// ascending area, then cycles, then index.
func ParetoFrontier(points []DSEFrontierPoint) []DSEFrontierPoint {
	var out []DSEFrontierPoint
	for _, p := range points {
		dominated := false
		for _, q := range points {
			if q.Cycles <= p.Cycles && q.Area <= p.Area &&
				(q.Cycles < p.Cycles || q.Area < p.Area) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Area != out[j].Area {
			return out[i].Area < out[j].Area
		}
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles < out[j].Cycles
		}
		return out[i].Index < out[j].Index
	})
	return out
}
