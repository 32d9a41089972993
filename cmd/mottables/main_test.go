package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/profiling"
)

// baseOpts returns options targeting sg208 with buffered output.
func baseOpts(table string) runOptions {
	return runOptions{
		table:        table,
		circuits:     "sg208",
		paper:        true,
		hitecCircuit: "sg298",
		workers:      1,
		prescreen:    true,
		out:          &bytes.Buffer{},
		errw:         &bytes.Buffer{},
	}
}

// tables runs run() against sg208 and returns the table output.
func tables(t *testing.T, table string, csv bool, workers int, prescreen bool) string {
	t.Helper()
	var out bytes.Buffer
	o := baseOpts(table)
	o.csv = csv
	o.workers = workers
	o.prescreen = prescreen
	o.skipNA = false
	o.verbose = true
	o.out = &out
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestRunRejects(t *testing.T) {
	cases := []struct {
		name  string
		mod   func(*runOptions)
		usage bool
	}{
		{"zeroWorkers", func(o *runOptions) { o.workers = 0 }, true},
		{"negativeWorkers", func(o *runOptions) { o.workers = -4 }, true},
		{"unknownTable", func(o *runOptions) { o.table = "5" }, true},
		{"unknownCircuit", func(o *runOptions) { o.circuits = "bogus" }, false},
		{"unknownHITECCircuit", func(o *runOptions) { o.table = "hitec"; o.hitecCircuit = "bogus" }, false},
	}
	for _, tc := range cases {
		o := baseOpts("2")
		tc.mod(&o)
		err := run(o)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if got := errors.As(err, &usageError{}); got != tc.usage {
			t.Errorf("%s: usageError = %v, want %v (err: %v)", tc.name, got, tc.usage, err)
		}
	}
}

func TestRunTable2(t *testing.T) {
	out := tables(t, "2", false, 1, true)
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "sg208") {
		t.Fatalf("unexpected table 2 output:\n%s", out)
	}
	if !strings.Contains(out, "shape:") {
		t.Fatalf("missing shape check line:\n%s", out)
	}
}

// TestRunMetricsAddr runs one table with the telemetry sidecar bound to
// an ephemeral port; the run must succeed and shut it down cleanly.
func TestRunMetricsAddr(t *testing.T) {
	o := baseOpts("2")
	o.metricsAddr = "127.0.0.1:0"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o = baseOpts("2")
	o.metricsAddr = "127.0.0.1:-1"
	if run(o) == nil {
		t.Error("invalid metrics address accepted")
	}
}

// TestRunSpanTrace generates Table 2 with span tracing on and checks a
// valid Chrome trace lands at the -span-trace path.
func TestRunSpanTrace(t *testing.T) {
	o := baseOpts("2")
	o.prof.SpanTrace = filepath.Join(t.TempDir(), "suite.trace.json")
	o.spanSample = 1
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(o.prof.SpanTrace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("span trace is not valid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) < 10 {
		t.Fatalf("suspiciously small suite trace: %d events", len(doc.TraceEvents))
	}

	for _, rate := range []float64{2, math.NaN()} {
		o = baseOpts("2")
		o.prof.SpanTrace = filepath.Join(t.TempDir(), "never.json")
		o.spanSample = rate
		if err := run(o); err == nil || !errors.As(err, &usageError{}) {
			t.Errorf("out-of-range -span-sample %v: err = %v, want usage error", rate, err)
		}
	}
}

func TestRunTable3CSV(t *testing.T) {
	out := tables(t, "3", true, 2, true)
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "sg208") {
		t.Fatalf("unexpected table 3 output:\n%s", out)
	}
}

// TestRunPrescreenInvariant asserts the emitted tables are identical with
// the prescreen on and off, and across worker counts: the flags change
// scheduling, never results.
func TestRunPrescreenInvariant(t *testing.T) {
	base := tables(t, "2", true, 1, true)
	for _, tc := range []struct {
		workers   int
		prescreen bool
	}{{1, false}, {4, true}, {4, false}} {
		got := tables(t, "2", true, tc.workers, tc.prescreen)
		if got != base {
			t.Errorf("workers=%d prescreen=%v: output differs:\n%s\n-- want --\n%s",
				tc.workers, tc.prescreen, got, base)
		}
	}
}

func TestRunVerboseProgress(t *testing.T) {
	var out, errw bytes.Buffer
	o := baseOpts("2")
	o.csv = true
	o.workers = 2
	o.verbose = true
	o.out = &out
	o.errw = &errw
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "sg208") {
		t.Fatalf("verbose run wrote no progress: %q", errw.String())
	}
}

// TestRunJSON drives -json with profiling enabled and checks the report
// carries the table rows, the per-circuit stage breakdowns and the
// profile artifacts.
func TestRunJSON(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	o := baseOpts("2")
	o.jsonOut = true
	o.workers = 2
	o.out = &out
	o.prof = profiling.Options{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
		ExecTrace:  filepath.Join(dir, "exec.out"),
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output not valid JSON: %v\n%s", err, out.String())
	}
	for _, key := range []string{"table2", "shape", "circuits"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("JSON report missing %q", key)
		}
	}
	circuits, ok := rep["circuits"].([]any)
	if !ok || len(circuits) != 1 {
		t.Fatalf("circuits not a 1-element array:\n%s", out.String())
	}
	cr := circuits[0].(map[string]any)
	prop, ok := cr["proposed"].(map[string]any)
	if !ok {
		t.Fatalf("circuit report missing proposed run:\n%s", out.String())
	}
	for _, key := range []string{"stages", "histograms", "coverage"} {
		if _, ok := prop[key]; !ok {
			t.Errorf("proposed run report missing %q", key)
		}
	}
	if _, ok := cr["baseline"]; !ok {
		t.Error("circuit report missing baseline run")
	}
	for _, p := range []string{o.prof.CPUProfile, o.prof.MemProfile, o.prof.ExecTrace} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestRunHITEC(t *testing.T) {
	if testing.Short() {
		t.Skip("greedy sequence generation in -short mode")
	}
	var out bytes.Buffer
	o := baseOpts("hitec")
	o.circuits = ""
	o.workers = 2
	o.out = &out
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sg298") || !strings.Contains(out.String(), "conventional:") {
		t.Fatalf("unexpected hitec output:\n%s", out.String())
	}
}
