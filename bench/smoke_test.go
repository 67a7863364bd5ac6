package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload for about a second against real
// servers, with the same answer checks as a full run, plus trace runs
// that produce the per-layer ledger, so the benchmark cannot rot
// unnoticed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the servers")
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runs := []struct {
		workload string
		trace    bool
	}{
		{"paper-grid", false}, {"sweep", false}, {"interactive", false}, {"cluster-mixed", false},
		{"paper-grid", true}, {"cluster-mixed", true},
	}
	for _, r := range runs {
		name := r.workload
		if r.trace {
			name += "-trace"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var out bytes.Buffer
			res, err := runBenchmark(ctx, spec, options{
				root: "..", buildDir: filepath.Join(dir, "bin"), runDir: filepath.Join(dir, "run-"+name),
				workload: r.workload, seed: 1, seconds: time.Second, trace: r.trace, smoke: true,
				spans: filepath.Join(dir, name+".jsonl"),
			}, &out, io.Discard)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if r.trace {
				want = spec.PerLayer
				if !strings.Contains(out.String(), "# ledger: ") {
					t.Errorf("trace run printed no ledger:\n%s", out.String())
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v", m.Name, got)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Fatalf("result line %s: want exactly correct, attempted, failed, metrics", line)
			}
		})
	}
}
