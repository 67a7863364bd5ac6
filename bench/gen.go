package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/machines"
	"sigkern/internal/svc"
)

// Random streams. Each generator draws from its own stream of the run's
// seed, so changing how many requests one part of a workload makes
// never shifts another part's inputs.
const (
	streamSweep = iota + 1
	streamSweepSample
	streamInteractive
	streamInteractiveSample
	streamArrivals
	streamPaperSample
	streamLedgerSample
)

// newRNG returns the stream's generator for seed.
func newRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed<<8 | int64(stream)))
}

// sampleRate is the share of cold cells re-run in-process after the
// timed phase to cross-check the served cycles.
const sampleRate = 0.02

// sizes bounds the generated kernel instances. Sweep cells span the
// whole range; design-space explorations run near its top, the instance
// size a hardware study cares about; interactive cold cells stay in the
// small corner, since an interactive caller waits for each one.
type sizes struct {
	side     [2]int // corner-turn rows and cols
	samples  [2]int // CSLC samples per channel
	bandHop  [2]int // CSLC sub-band hop
	elements [2]int // beam-steering antenna elements
}

var (
	sweepSizes       = sizes{side: [2]int{16, 256}, samples: [2]int{256, 1216}, bandHop: [2]int{64, 128}, elements: [2]int{32, 536}}
	dseSizes         = sizes{side: [2]int{224, 256}, samples: [2]int{1088, 1216}, bandHop: [2]int{64, 72}, elements: [2]int{472, 536}}
	interactiveSizes = sizes{side: [2]int{16, 96}, samples: [2]int{256, 384}, bandHop: [2]int{96, 128}, elements: [2]int{32, 256}}
)

// fftPoints is the CSLC sub-band transform length, the paper's.
const fftPoints = 128

func between(rng *rand.Rand, r [2]int) int { return r[0] + rng.Intn(r[1]-r[0]+1) }

// unit is one generated (kernel, workload) pair; crossed with a machine
// it is a cell.
type unit struct {
	id     int
	kernel core.KernelID
	w      core.Workload
}

// cellSource hands out units whose workloads never repeat within a run,
// so every cell it makes is a memo miss the first time it is sent.
type cellSource struct {
	rng  *rand.Rand
	seen map[core.Workload]bool
	next int
}

func newCellSource(rng *rand.Rand) *cellSource {
	return &cellSource{rng: rng, seen: make(map[core.Workload]bool)}
}

// unique returns a unit of kernel k whose workload is drawn within size.
func (s *cellSource) unique(size sizes, k core.KernelID) unit {
	for {
		samples := between(s.rng, size.samples)
		w := core.Workload{
			CornerTurn: cornerturn.Spec{Rows: between(s.rng, size.side), Cols: between(s.rng, size.side), BlockSize: 16},
			CSLC: cslc.Spec{
				MainChannels: 2, AuxChannels: 2, Samples: samples, FFTSize: fftPoints,
				SubBands: 1 + (samples-fftPoints)/between(s.rng, size.bandHop),
				Radix:    fft.MixedRadix42,
			},
			Beam: beamsteer.Spec{Elements: between(s.rng, size.elements), Directions: 4, Dwells: 8, ShiftBits: 2, Rounding: 2},
		}
		if s.seen[w] {
			continue
		}
		s.seen[w] = true
		s.next++
		return unit{id: s.next, kernel: k, w: w}
	}
}

// anyKernel draws one of the three kernels.
func anyKernel(rng *rand.Rand) core.KernelID { return core.Kernels()[rng.Intn(3)] }

// spec builds the job spec of the unit on machine m.
func (u unit) spec(m string) svc.JobSpec {
	w := u.w
	return svc.JobSpec{Machine: m, Kernel: u.kernel, Workload: &w}
}

// cellKey identifies a cell across requests, so a repeat's answer can be
// checked against the first one.
type cellKey struct {
	unit    int
	machine string
}

// sweepCell is one line of a sweep batch.
type sweepCell struct {
	key    cellKey
	spec   svc.JobSpec
	repeat bool // sent before, in one of the previous two batches
	sample bool // re-run in-process after the timed phase
}

// sweepReq is one request of the design-space user: a batch or a DSE.
type sweepReq struct {
	batch []sweepCell     // set for a batch
	dse   *svc.DSERequest // set for a DSE
	// dseSample marks the DSE points re-run in-process.
	dseSample []bool
	body      []byte
}

// sweep shape: batches of batchUnits workloads on every machine, a
// quarter of them repeated from the previous two batches, alternating
// with dsePoints-point explorations.
const (
	batchUnits = 50
	dsePoints  = 16
)

// sweepGen generates the design-space user's request stream.
type sweepGen struct {
	src    *cellSource
	rng    *rand.Rand
	sample *rand.Rand
	prev   [2][]unit
	n      int // requests next has generated
	nb     int // batches generated
	ne     int // explorations generated
}

func newSweepGen(seed int64) *sweepGen {
	rng := newRNG(seed, streamSweep)
	return &sweepGen{src: newCellSource(rng), rng: rng, sample: newRNG(seed, streamSweepSample)}
}

// repeatsFor returns how many of batch nb's units repeat earlier ones:
// none in the first batch (nothing to repeat), then 12 and 13 in turn,
// which is 25% of the units over every pair of batches.
func repeatsFor(nb int) int {
	if nb == 0 {
		return 0
	}
	return batchUnits/4 + nb%2
}

// next returns the next request: batches and explorations alternate.
func (g *sweepGen) next() sweepReq {
	g.n++
	if g.n%2 == 1 {
		return g.nextBatch()
	}
	return g.nextDSE()
}

func (g *sweepGen) nextBatch() sweepReq {
	pool := append(append([]unit(nil), g.prev[0]...), g.prev[1]...)
	units := make([]unit, 0, batchUnits)
	repeated := make(map[int]bool)
	for _, i := range g.rng.Perm(len(pool)) {
		if len(units) == repeatsFor(g.nb) {
			break
		}
		if u := pool[i]; !repeated[u.id] {
			repeated[u.id] = true
			units = append(units, u)
		}
	}
	for len(units) < batchUnits {
		units = append(units, g.src.unique(sweepSizes, anyKernel(g.rng)))
	}
	g.rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	g.prev[1], g.prev[0] = g.prev[0], units
	g.nb++

	req := sweepReq{batch: make([]sweepCell, 0, batchUnits*len(machines.Names()))}
	var body bytes.Buffer
	for _, u := range units {
		for _, m := range machines.Names() {
			c := sweepCell{key: cellKey{u.id, m}, spec: u.spec(m), repeat: repeated[u.id]}
			c.sample = !c.repeat && g.sample.Float64() < sampleRate
			req.batch = append(req.batch, c)
			line, err := json.Marshal(c.spec)
			if err != nil {
				panic(err) // plain data: Marshal cannot fail
			}
			body.Write(line)
			body.WriteByte('\n')
		}
	}
	req.body = body.Bytes()
	return req
}

// dseAxes are the sweep axes each machine's exploration uses: 16 points
// per exploration, over every axis /v1/dse names.
func dseAxes(machine string) []svc.DSEAxis {
	upTo16 := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	switch machine {
	case "VIRAM":
		return []svc.DSEAxis{{Param: "viram.Lanes", Values: []int{2, 4, 8, 16}}, {Param: "viram.MVL", Values: []int{32, 64, 128, 256}}}
	case "Imagine":
		return []svc.DSEAxis{{Param: "imagine.Clusters", Values: upTo16}}
	case "Raw":
		return []svc.DSEAxis{{Param: "raw.Mesh", Values: upTo16}}
	default:
		return []svc.DSEAxis{{Param: "ppc.IssueWidth", Values: upTo16}}
	}
}

// nextDSE explores every (machine, kernel) pair in turn. Each explored
// configuration leaves a machine instance, sized by the largest instance
// it ran, in the server's per-worker cache; a random choice of pair or
// size would make the servers' memory depend on the seed.
func (g *sweepGen) nextDSE() sweepReq {
	names := machines.Names()
	e := g.ne
	g.ne++
	m := names[e%len(names)]
	u := g.src.unique(sweepSizes, core.Kernels()[e/len(names)%len(core.Kernels())])
	dse := svc.DSERequest{Base: u.spec(m), Axes: dseAxes(m)}
	body, err := json.Marshal(dse)
	if err != nil {
		panic(err) // plain data: Marshal cannot fail
	}
	sample := make([]bool, dsePoints)
	for i := range sample {
		sample[i] = g.sample.Float64() < sampleRate
	}
	return sweepReq{dse: &dse, dseSample: sample, body: body}
}

// request kinds of the interactive mix.
type ikind int

const (
	kindHit      ikind = iota // a paper cell already in the memo, ?wait=1
	kindCold                  // a unique small cell, ?wait=1
	kindEstimate              // a unique small cell, ?tier=estimate
)

func (k ikind) String() string { return [...]string{"hit", "cold", "estimate"}[k] }

// Mix shares of the interactive client.
const (
	shareHit  = 0.7
	shareCold = 0.2
)

// ireq is one interactive request.
type ireq struct {
	kind   ikind
	spec   svc.JobSpec
	sample bool
	body   []byte
}

func (r ireq) query() string {
	if r.kind == kindEstimate {
		return "tier=estimate"
	}
	return "wait=1"
}

// interactiveGen generates the API client's request mix.
type interactiveGen struct {
	src    *cellSource
	rng    *rand.Rand
	sample *rand.Rand
	paper  []paperCell
}

func newInteractiveGen(seed int64, paper []paperCell) *interactiveGen {
	rng := newRNG(seed, streamInteractive)
	return &interactiveGen{src: newCellSource(rng), rng: rng, sample: newRNG(seed, streamInteractiveSample), paper: paper}
}

func (g *interactiveGen) next() ireq {
	var r ireq
	switch u := g.rng.Float64(); {
	case u < shareHit:
		p := g.paper[g.rng.Intn(len(g.paper))]
		r = ireq{kind: kindHit, spec: svc.JobSpec{Machine: p.Machine, Kernel: p.Kernel}}
	case u < shareHit+shareCold:
		names := machines.Names()
		r = ireq{kind: kindCold, spec: g.src.unique(interactiveSizes, anyKernel(g.rng)).spec(names[g.rng.Intn(len(names))])}
		r.sample = g.sample.Float64() < sampleRate
	default:
		names := machines.Names()
		r = ireq{kind: kindEstimate, spec: g.src.unique(interactiveSizes, anyKernel(g.rng)).spec(names[g.rng.Intn(len(names))])}
	}
	body, err := json.Marshal(r.spec)
	if err != nil {
		panic(err) // plain data: Marshal cannot fail
	}
	r.body = body
	return r
}

// stage is one constant-rate segment of an open-loop schedule.
type stage struct {
	rate float64 // requests per second
	dur  time.Duration
}

// arrival is one scheduled request.
type arrival struct {
	due   time.Duration // offset from the schedule's start
	stage int
	req   ireq
}

// schedule draws Poisson arrivals for each stage in turn and attaches
// the next request of gen to each.
func schedule(rng *rand.Rand, stages []stage, gen *interactiveGen) []arrival {
	var out []arrival
	var t0 time.Duration
	for si, st := range stages {
		t := t0
		for {
			t += time.Duration(rng.ExpFloat64() / st.rate * float64(time.Second))
			if t >= t0+st.dur {
				break
			}
			out = append(out, arrival{due: t, stage: si, req: gen.next()})
		}
		t0 += st.dur
	}
	return out
}
