package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the tail rule's sample floor: a percentile is reported
// only when at least this many samples lie beyond it, so one outlier
// cannot be the whole tail.
const minBeyond = 10

// tailLadder is the set of percentiles the tail rule chooses from,
// highest first. A coarse ladder keeps the chosen percentile the same
// from run to run when sample counts jitter.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// sample is a set of measurements in one unit.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (the mean of the middle two for an
// even count); 0 for an empty sample.
func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// percentile returns the nearest-rank p-th percentile and how many
// samples lie beyond its rank.
func (s sample) percentile(p float64) (value float64, beyond int) {
	if len(s) == 0 {
		return 0, 0
	}
	v := s.sorted()
	// The epsilon keeps float error (99.9% of 10000 is 9990.000000000002)
	// from pushing an exact rank up by one.
	rank := int(math.Ceil(p*float64(len(v))/100 - 1e-9))
	rank = max(1, min(rank, len(v)))
	return v[rank-1], len(v) - rank
}

// tail is the reported tail of a latency sample: the highest ladder
// percentile with at least minBeyond samples beyond it.
type tail struct {
	P      float64 // the percentile chosen
	Value  float64
	N      int // sample count
	Beyond int // samples beyond the percentile's rank
}

// String renders the tail the way every report line shows it, with the
// sample count beside the value.
func (t tail) String() string {
	s := fmt.Sprintf("p%g of %d samples (%d beyond)", t.P, t.N, t.Beyond)
	if t.Beyond < minBeyond {
		s += ", too few samples for the tail rule"
	}
	return s
}

// tailOf applies the tail rule. With too few samples for any ladder
// percentile it falls back to the median, and String says so.
func (s sample) tailOf() tail {
	for _, p := range tailLadder {
		v, beyond := s.percentile(p)
		if beyond >= minBeyond {
			return tail{P: p, Value: v, N: len(s), Beyond: beyond}
		}
	}
	v, beyond := s.percentile(50)
	return tail{P: 50, Value: v, N: len(s), Beyond: beyond}
}

// quartiles returns the three cut points of statistics.quantiles(s,
// n=4) in Python's default ("exclusive") method — the rule the
// benchmark's acceptance spread is defined by. It needs at least two
// values.
func (s sample) quartiles() (q1, q2, q3 float64) {
	v := s.sorted()
	ld := len(v)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return v[0], v[0], v[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (v[j-1]*float64(n-delta) + v[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise measure bounds are compared against.
func (s sample) spread() float64 {
	q1, q2, q3 := s.quartiles()
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
