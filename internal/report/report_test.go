package report

import (
	"bytes"
	"strings"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
)

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, "Title", []string{"A", "Long header"},
		[][]string{{"x", "1"}, {"longer cell", "2"}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Fatalf("first line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "A ") || !strings.Contains(lines[1], "Long header") {
		t.Fatalf("header line %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("separator line %q", lines[2])
	}
	// Columns align: "1" and "2" start at the same offset.
	if strings.Index(lines[3], "1") != strings.Index(lines[4], "2") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableRowWidthMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Table(&buf, "", []string{"A"}, [][]string{{"x", "y"}}); err == nil {
		t.Fatal("mismatched row accepted")
	}
}

func TestLogBarChartScaling(t *testing.T) {
	var buf bytes.Buffer
	err := LogBarChart(&buf, "Chart", []string{"m1", "m2"},
		[]BarSeries{{Label: "k", Values: []float64{10, 1000}}}, 40)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Log scale: 1000 gets a full bar (40), 10 gets a third (13-14).
	var short, long int
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "m1") {
			short = strings.Count(line, "#")
		}
		if strings.Contains(line, "m2") {
			long = strings.Count(line, "#")
		}
	}
	if long < 39 || long > 41 {
		t.Fatalf("full bar = %d, want ~40", long)
	}
	if short < 12 || short > 15 {
		t.Fatalf("log bar for 10 = %d, want ~13 (one third of 40)", short)
	}
}

func TestLogBarChartRejectsNonPositive(t *testing.T) {
	var buf bytes.Buffer
	err := LogBarChart(&buf, "c", []string{"m"},
		[]BarSeries{{Label: "k", Values: []float64{0}}}, 20)
	if err == nil {
		t.Fatal("zero value accepted on log axis")
	}
	err = LogBarChart(&buf, "c", []string{"m"},
		[]BarSeries{{Label: "k", Values: []float64{1, 2}}}, 20)
	if err == nil {
		t.Fatal("mismatched series length accepted")
	}
}

func TestCSVEscaping(t *testing.T) {
	var buf bytes.Buffer
	err := CSV(&buf, []string{"a", "b"}, [][]string{{`x,y`, `he said "hi"`}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
	if err := CSV(&buf, []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("mismatched CSV row accepted")
	}
}

func TestFormatters(t *testing.T) {
	if KCycles(554_000) != "554" {
		t.Fatalf("KCycles = %q", KCycles(554_000))
	}
	if Speedup(8.25) != "8.2" {
		t.Fatalf("Speedup(8.25) = %q", Speedup(8.25))
	}
	if Speedup(201) != "201" {
		t.Fatalf("Speedup(201) = %q", Speedup(201))
	}
}

func TestParseStudyCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	headers := []string{"machine", "kernel", "cycles", "kcycles", "ops", "ops_per_cycle", "words"}
	rows := [][]string{
		{"VIRAM", "cslc", "480000", "480", "1", "1", "1"},
		{"Raw", "corner-turn", "147564", "148", "1", "1", "1"},
	}
	if err := CSV(&buf, headers, rows); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseStudyCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 {
		t.Fatalf("%d rows", len(parsed))
	}
	if parsed[0].Machine != "VIRAM" || parsed[0].Cycles != 480000 {
		t.Fatalf("row 0 = %+v", parsed[0])
	}
	if parsed[1].Kernel != "corner-turn" {
		t.Fatalf("row 1 = %+v", parsed[1])
	}
}

func TestParseStudyCSVErrors(t *testing.T) {
	cases := []string{
		"",                           // empty
		"machine,kernel\nv,c",        // missing cycles column
		"machine,kernel,cycles\na,b", // short row
		"machine,kernel,cycles\na,b,notanumber",
	}
	for i, c := range cases {
		if _, err := ParseStudyCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestHTMLReportStructure(t *testing.T) {
	sr := fakeStudy(t)
	var buf bytes.Buffer
	if err := HTMLReport(&buf, sr, "base"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "Table 1", "Table 2", "Table 3",
		"Figure 8", "Figure 9", "<svg", "</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// Escaping: no raw machine name should break out of a tag.
	if strings.Contains(out, "<fast>") {
		t.Error("unescaped content in HTML")
	}
}

// fakeStudy builds a minimal two-machine study for report tests.
func fakeStudy(t *testing.T) *core.StudyResults {
	t.Helper()
	sr, err := core.RunStudy([]core.Machine{
		&stubMachine{name: "base", clock: 1000, scale: 10},
		&stubMachine{name: "fast", clock: 300, scale: 1},
	}, core.PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

type stubMachine struct {
	name  string
	clock float64
	scale uint64
}

func (s *stubMachine) Name() string { return s.name }
func (s *stubMachine) Params() core.Params {
	return core.Params{ClockMHz: s.clock, ALUs: 1, PeakGFLOPS: 1}
}
func (s *stubMachine) Formulation(core.Workload) core.Formulation {
	return core.Formulation{CornerTurn: cornerturn.Transposer{Block: 16}, CSLC: fft.Radix2}
}
func (s *stubMachine) result(k core.KernelID, base uint64) (core.Result, error) {
	r := core.Result{Machine: s.name, Kernel: k, Cycles: base * s.scale, Ops: 1, Words: 1}
	r.Breakdown.Add("compute", base*s.scale)
	return r, nil
}
func (s *stubMachine) RunCornerTurn(cornerturn.Spec) (core.Result, error) {
	return s.result(core.CornerTurn, 1000)
}
func (s *stubMachine) RunCSLC(cslc.Spec) (core.Result, error) {
	return s.result(core.CSLC, 2000)
}
func (s *stubMachine) RunBeamSteering(beamsteer.Spec) (core.Result, error) {
	return s.result(core.BeamSteering, 100)
}

// TestRenderTable4 pins the reconstructed Table 4's rows: Table 1 order
// for exactly the Table 1 machines the study ran, and an error for a
// study that ran none.
func TestRenderTable4(t *testing.T) {
	sr, err := core.RunStudy([]core.Machine{
		&stubMachine{name: "Raw", clock: 250, scale: 1},
		&stubMachine{name: "PPC", clock: 1000, scale: 10},
	}, core.PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTable4(&buf, sr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ppcRow, rawRow := strings.Index(out, "\nPPC "), strings.Index(out, "\nRaw ")
	if ppcRow < 0 || rawRow < 0 || ppcRow > rawRow || strings.Contains(out, "\nVIRAM ") {
		t.Fatalf("rows not PPC then Raw:\n%s", out)
	}
	if err := RenderTable4(&buf, fakeStudy(t)); err == nil {
		t.Fatal("study without a Table 1 machine rendered a Table 4")
	}
}
