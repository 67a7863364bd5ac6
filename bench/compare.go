package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// loadResults reads every -out file in dir and groups metric values by
// workload and metric name.
func loadResults(dir string) (map[string]map[string]sample, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files (*.json) in %s", dir)
	}
	out := make(map[string]map[string]sample)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[rf.Workload] == nil {
			out[rf.Workload] = make(map[string]sample)
		}
		for name, m := range rf.Result.Metrics {
			out[rf.Workload][name] = append(out[rf.Workload][name], m.Value)
		}
	}
	return out, nil
}

// verdict classifies one (workload, metric) pair from the base and the
// change's runs. A metric without a bound (per-layer) is only reported.
// Otherwise: every change run better than every base run is improved;
// a base whose own quartile spread exceeds the bound cannot resolve the
// bound, so the pair is unresolved; a change median worse than the base
// median by more than the bound is regressed; anything else is ok.
func verdict(def metricDef, base, change sample) string {
	if len(base) == 0 || len(change) == 0 {
		return "missing"
	}
	if def.Bound == 0 {
		return "-"
	}
	worse := func(a, b float64) bool { // a worse than b
		if def.Better == "higher" {
			return a < b
		}
		return a > b
	}
	allBetter := true
	for _, c := range change {
		for _, p := range base {
			if !worse(p, c) {
				allBetter = false
			}
		}
	}
	switch mb, mc := base.median(), change.median(); {
	case allBetter:
		return "improved"
	case base.spread() > def.Bound:
		return "unresolved"
	case worse(mc, mb) && abs(mc-mb) > def.Bound*abs(mb):
		return "regressed"
	default:
		return "ok"
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runCompare prints, per workload and metric, each side's median and
// quartiles and the verdict against the metric's bound. It exits 1 when
// any metric regressed.
func runCompare(spec *benchmarkSpec, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: sigbench -compare BASE_DIR CHANGE_DIR")
		return 2
	}
	base, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "sigbench: %v\n", err)
		return 2
	}
	change, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "sigbench: %v\n", err)
		return 2
	}
	quart := func(s sample) string {
		if len(s) == 0 {
			return "-"
		}
		q1, q2, q3 := s.quartiles()
		return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", q2, q1, q3, len(s))
	}
	fmt.Fprintf(stdout, "%-14s %-36s %-36s %-36s %9s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "change", "bound", "verdict")
	regressed := false
	for _, w := range spec.Workloads {
		for _, def := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
			b, c := base[w.Name][def.Name], change[w.Name][def.Name]
			if len(b) == 0 && len(c) == 0 {
				continue
			}
			v := verdict(def, b, c)
			regressed = regressed || v == "regressed"
			delta, bound := "-", "-"
			if len(b) > 0 && len(c) > 0 && b.median() != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(c.median()-b.median())/abs(b.median()))
			}
			if def.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*def.Bound)
			}
			fmt.Fprintf(stdout, "%-14s %-36s %-36s %-36s %9s %6s  %s\n", w.Name, def.Name, quart(b), quart(c), delta, bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
