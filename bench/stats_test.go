package main

import (
	"strconv"
	"strings"
	"testing"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// The tail rule reports the highest ladder percentile with at least ten
// samples beyond it, and the count travels with the value.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{1000, 99, 990, 10}, // p99 has exactly ten beyond
		{999, 98, 980, 19},  // p99 would have nine: step down to p98
		{10000, 99.9, 9990, 10},
		{40, 75, 30, 10},
		{39, 50, 20, 19},
	}
	for _, c := range cases {
		got := seq(c.n).tailOf()
		if got.P != c.p || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g=%g with %d beyond", c.n, got, c.p, c.value, c.beyond)
		}
		if !strings.Contains(got.String(), "of "+strconv.Itoa(c.n)+" samples") {
			t.Errorf("n=%d: %q does not print the sample count", c.n, got.String())
		}
	}
	// Too few samples for any ladder percentile: the median, flagged.
	got := seq(12).tailOf()
	if got.P != 50 || got.Beyond >= minBeyond || !strings.Contains(got.String(), "too few samples") {
		t.Errorf("n=12: got %+v %q", got, got.String())
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4), which
// defines the acceptance spread.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         sample
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{sample{5.5, 1.25, 3, 9, 7.75}, 2.125, 5.5, 8.375},
		{sample{10, 20}, 7.5, 15, 22.5},
	}
	for _, c := range cases {
		q1, q2, q3 := c.in.quartiles()
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("%v: got %g %g %g, want %g %g %g", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got, want := seq(10).spread(), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestMedian(t *testing.T) {
	if got := (sample{3, 1, 2}).median(); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := (sample{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := (sample{}).median(); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "cells_per_s", Better: "higher", Bound: 0.1}
	base := sample{100, 101, 99, 100, 102, 98, 100}
	cases := []struct {
		def    metricDef
		change sample
		want   string
	}{
		{lower, sample{104, 105, 103, 104}, "ok"},
		{lower, sample{115, 116, 114, 115}, "regressed"},
		{lower, sample{80, 81, 79}, "improved"},
		{higher, sample{85, 86, 84}, "regressed"},
		{higher, sample{97, 98, 99}, "ok"},
		{metricDef{Name: "x", Better: "lower"}, sample{500}, "-"},
	}
	for _, c := range cases {
		if got := verdict(c.def, base, c.change); got != c.want {
			t.Errorf("%s %v: got %s, want %s", c.def.Name, c.change, got, c.want)
		}
	}
	// A base noisier than the bound cannot resolve a 15% change.
	noisy := sample{70, 130, 90, 110, 100, 60, 140}
	if got := verdict(lower, noisy, sample{115, 116}); got != "unresolved" {
		t.Errorf("noisy base: got %s, want unresolved", got)
	}
}
