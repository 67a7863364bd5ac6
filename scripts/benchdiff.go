// Command benchdiff converts `go test -bench` output into a stable JSON
// snapshot and compares two snapshots for regressions.
//
// Emit mode parses benchmark output and writes JSON to stdout:
//
//	go test -run='^$' -bench=. -benchmem . > bench.txt
//	go run scripts/benchdiff.go -emit bench.txt > BENCH.json
//
// Compare mode diffs two snapshots (baseline first) and exits non-zero
// on a regression:
//
//	go run scripts/benchdiff.go BENCH_PR4.json BENCH.json
//
// Two gates apply, matching what the simulator guarantees:
//
//   - sim-kcycles must be EXACTLY equal. The machine models are
//     bit-deterministic; any drift in simulated cycles is a correctness
//     bug, not noise, so no tolerance is given.
//   - ns/op may not regress by more than -tol (default 15%). Wall-clock
//     measures the simulator's own speed and is noisy, so only large
//     regressions fail.
//
// Benchmarks present in only one snapshot are reported but never fail
// the diff (the suite is allowed to grow and shrink). B/op and allocs/op
// are printed beside each row as a report; they gate nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the serialized form of one benchmark run.
type Snapshot struct {
	Schema string `json:"schema"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to
	// metric name ("ns/op", "sim-kcycles", "allocs/op", ...) to value.
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

const schemaID = "sigkern-bench/v1"

// benchLine matches one result line: name, iteration count, then
// value/unit pairs ("209218093 ns/op", "28098 sim-kcycles", ...).
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// cpuSuffix strips the -GOMAXPROCS tail go test appends to names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	emit := flag.Bool("emit", false, "parse `go test -bench` output (one file argument) and write a JSON snapshot to stdout")
	tol := flag.Float64("tol", 0.15, "allowed fractional ns/op regression before the diff fails")
	flag.Parse()

	var err error
	if *emit {
		err = runEmit(flag.Args())
	} else {
		err = runCompare(flag.Args(), *tol)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func runEmit(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("emit mode wants exactly one bench-output file, got %d args", len(args))
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()

	snap := Snapshot{Schema: schemaID, Benchmarks: map[string]map[string]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(m[1], "")
		metrics, err := parseMetrics(m[3])
		if err != nil {
			return fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		// -count>1 runs repeat names; keep the minimum ns/op line (least
		// noisy) and first-seen values for everything else.
		if prev, ok := snap.Benchmarks[name]; ok {
			if metrics["ns/op"] < prev["ns/op"] {
				snap.Benchmarks[name] = metrics
			}
			continue
		}
		snap.Benchmarks[name] = metrics
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", args[0])
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// parseMetrics splits "209218093 ns/op\t28098 sim-kcycles ..." into a
// metric map.
func parseMetrics(s string) (map[string]float64, error) {
	fields := strings.Fields(s)
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("odd value/unit field count %d", len(fields))
	}
	out := make(map[string]float64, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", fields[i], err)
		}
		out[fields[i+1]] = v
	}
	return out, nil
}

func runCompare(args []string, tol float64) error {
	if len(args) != 2 {
		return fmt.Errorf("compare mode wants two snapshot files (baseline new), got %d args", len(args))
	}
	base, err := loadSnapshot(args[0])
	if err != nil {
		return err
	}
	cur, err := loadSnapshot(args[1])
	if err != nil {
		return err
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	compared := 0
	for _, name := range names {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		if c == nil {
			fmt.Printf("  %-55s only in baseline (skipped)\n", name)
			continue
		}
		compared++
		if bk, ok := b["sim-kcycles"]; ok {
			if ck, cok := c["sim-kcycles"]; cok && bk != ck {
				failures = append(failures, fmt.Sprintf(
					"%s: sim-kcycles drifted %.4g -> %.4g (simulated cycles must be bit-identical)", name, bk, ck))
			}
		}
		bn, cn := b["ns/op"], c["ns/op"]
		delta := math.NaN()
		if bn > 0 {
			delta = (cn - bn) / bn
			if delta > tol {
				failures = append(failures, fmt.Sprintf(
					"%s: ns/op regressed %.4g -> %.4g (%+.1f%%, tolerance %.0f%%)",
					name, bn, cn, 100*delta, 100*tol))
			}
		}
		fmt.Printf("  %-55s ns/op %12.4g -> %12.4g (%+.1f%%)  B/op %g -> %g  allocs/op %g -> %g\n",
			name, bn, cn, 100*delta, b["B/op"], c["B/op"], b["allocs/op"], c["allocs/op"])
	}
	for name := range cur.Benchmarks {
		if base.Benchmarks[name] == nil {
			fmt.Printf("  %-55s only in new snapshot (skipped)\n", name)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no overlapping benchmarks between %s and %s", args[0], args[1])
	}
	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		return fmt.Errorf("%d regression(s)", len(failures))
	}
	fmt.Printf("\nok: %d benchmarks compared, no sim-cycle drift, no ns/op regression beyond %.0f%%\n", compared, 100*tol)
	return nil
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != schemaID {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, schemaID)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: empty snapshot", path)
	}
	return &s, nil
}
