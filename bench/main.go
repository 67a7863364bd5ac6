// Command sigbench is the served-system benchmark. It builds simserved
// and simgate from the checkout, starts them as child processes, drives
// them with one of four seeded workloads from one process (at most two
// client connections, GOMAXPROCS=2), checks every answer, and prints
// every metric by name with its unit. A trace run (-trace 1) reports
// the per-layer ledger instead of the end-to-end metrics.
//
// Run it from the repository root through bench/run.sh, which builds
// it with a build cache inside the checkout:
//
//	bash bench/run.sh --workload interactive --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload sweep --seed 1 --trace 1 --spans sweep.jsonl
//	bash bench/run.sh -compare parent-results change-results
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every answer was right. BENCHMARK.json at the root lists the
// workloads and metrics; bench/README.md explains them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// runDeadline bounds one run, set-up and build included, so a wedged
// server can never hold the benchmark past its time limit.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options configures one benchmark run.
type options struct {
	root     string // repository root
	buildDir string // where the daemons are built
	runDir   string // journals, address files, daemon logs, spans
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool
	spans    string // trace runs: span output file
}

// result is the final output line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// resultFile is what -out writes: the result with the run it came from,
// the input of -compare.
type resultFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sigbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Float64("seconds", 0, "length of the timed phase in seconds (0: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: a trace run, which reports the per-layer metrics")
	spans := fs.String("spans", "", "trace runs: write the spans as JSON lines to this file (default .bench_build/run/spans-<workload>-<seed>.jsonl)")
	out := fs.String("out", "", "also write the result, with its workload and seed, to this file (the input of -compare)")
	smoke := fs.Bool("smoke", false, "one set-up cycle and a short ledger, for quick checks")
	compare := fs.Bool("compare", false, "compare two directories of -out files: -compare BASE CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// run.sh starts the harness from the repository root.
	const root = "."
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "sigbench: %v\n", err)
		return 2
	}
	if *compare {
		return runCompare(spec, fs.Args(), stdout, stderr)
	}
	if !spec.hasWorkload(*workload) {
		fmt.Fprintf(stderr, "sigbench: unknown -workload %q (see BENCHMARK.json)\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "sigbench: -trace must be 0 or 1\n")
		return 2
	}
	secs := *seconds
	if secs <= 0 {
		secs = float64(spec.RunSeconds)
	}
	build := filepath.Join(root, ".bench_build")
	opts := options{
		root: root, buildDir: filepath.Join(build, "bin"), runDir: filepath.Join(build, "run"),
		workload: *workload, seed: *seed, seconds: time.Duration(secs * float64(time.Second)),
		trace: *trace == 1, smoke: *smoke, spans: *spans,
	}
	if opts.trace && opts.spans == "" {
		opts.spans = filepath.Join(opts.runDir, fmt.Sprintf("spans-%s-%d.jsonl", opts.workload, opts.seed))
	}

	// The harness itself gets the two CPUs the servers get.
	runtime.GOMAXPROCS(2)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	res, err := runBenchmark(ctx, spec, opts, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "sigbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "sigbench: %v\n", err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(resultFile{Workload: opts.workload, Seed: opts.seed, Trace: opts.trace, Result: *res}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "sigbench: writing -out: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runBenchmark builds the daemons, runs the workload, prints the report
// lines and returns the result. Errors are harness or environment
// failures; wrong answers come back as a result with Correct false.
func runBenchmark(ctx context.Context, spec *benchmarkSpec, opts options, stdout, stderr io.Writer) (*result, error) {
	if err := os.RemoveAll(opts.runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.runDir, 0o755); err != nil {
		return nil, err
	}
	if err := buildDaemons(ctx, opts.root, opts.buildDir, stderr); err != nil {
		return nil, err
	}
	cells, err := paperCells()
	if err != nil {
		return nil, err
	}
	b := &bench{
		spec: spec, workload: opts.workload, runDir: opts.runDir,
		seed: opts.seed, seconds: opts.seconds, traced: opts.trace, smoke: opts.smoke,
		procs: newProcSet(opts.buildDir, opts.runDir), check: newChecker(newPaperRef(cells)), paper: cells,
		metrics: make(map[string]float64), details: make(map[string]string),
	}
	if opts.trace {
		b.spans = newTracer()
	}
	defer b.procs.stopAll()

	fmt.Fprintf(stdout, "sigbench workload=%s seed=%d seconds=%g trace=%v\n", opts.workload, opts.seed, opts.seconds.Seconds(), opts.trace)
	start := time.Now()
	if err := b.execute(ctx); err != nil {
		return nil, err
	}
	b.procs.stopAll()
	b.notef("run took %.1f s", time.Since(start).Seconds())

	metrics, err := b.report(stdout)
	if err != nil {
		return nil, err
	}
	if opts.trace {
		spans := b.spans.snapshot()
		printLedger(stdout, spans)
		if err := writeSpanFile(opts.spans, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(spans), opts.spans)
	}
	correct, attempted, failed, errs := b.check.result()
	for _, e := range errs {
		fmt.Fprintln(stdout, "# "+e)
	}
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// buildDaemons builds cmd/simserved and cmd/simgate from the checkout.
func buildDaemons(ctx context.Context, root, dir string, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out+string(filepath.Separator), "./cmd/simserved", "./cmd/simgate")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the daemons: %w", err)
	}
	return nil
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLedger prints the spans aggregated by name: count, total, self
// time and median duration.
func printLedger(w io.Writer, spans []span) {
	fmt.Fprintf(w, "# ledger: %-34s %7s %12s %12s %11s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	for _, r := range ledger(spans) {
		fmt.Fprintf(w, "# ledger: %-34s %7d %12.3f %12.3f %11.4f\n", r.Name, r.Count, ms(r.Total), ms(r.Self), ms(r.P50))
	}
}
