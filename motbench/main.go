// Command motbench is motsim's benchmark: whole-list engine throughput on
// two suite circuits and motserve POST-to-done latency under a mixed
// request load, with a separate traced run that times the calls into
// each layer.
//
//	go run . --workload sg1423-step0 --seed 11423 --seconds 30 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics and writes its spans as Chrome
// trace JSON. Every run checks the program's outputs. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/xtrace"
)

// Run-shape constants.
const (
	setupReps         = 31                     // timed set-ups of a serve run; an engine run times half of them before its first op
	setupEvery        = 2                      // engine operations between two timed set-ups
	minCycles         = 2                      // passes over the pool an engine run makes at least
	layerReps         = 3                      // set-up layer replays per traced run
	serveLayerCycles  = 6                      // engine replay cycles in a traced serve-mixed run
	scrapeEvery       = 200 * time.Millisecond // scraper cadence
	serveClients      = 2                      // closed-loop clients of serve-mixed
	requestsPerSecond = 30                     // serve-mixed requests per --seconds
	minServeRequests  = 200                    // so p95 has ten samples beyond it
	requestTimeout    = 60 * time.Second       // per request; a failed request counts as this long
	loadDeadline      = 150 * time.Second      // the whole load of one serve pass
)

// errMismatch marks an operation whose outputs were checked and wrong.
var errMismatch = errors.New("output mismatch")

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"faults_per_s", "faults/s"},
	{"runs_per_s", "runs/s"},
	{"done_ms_p50", "ms"},
	{"done_ms_p95", "ms"},
	{"scrape_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, on every workload.
var perLayer = []metricDef{
	{"circuits.generate_ms", "ms"},
	{"fault.collapse_ms", "ms"},
	{"cir.compile_ms", "ms"},
	{"cir.cones_ms", "ms"},
	{"seqsim.good_ms", "ms"},
	{"seqsim.good_ns_per_gate_frame", "ns"},
	{"bitsim.prescreen_ms", "ms"},
	{"bitsim.ns_per_fault_frame", "ns"},
	{"bitsim.drop_ratio", "ratio"},
	{"seqsim.survivor_ms", "ms"},
	{"core.fault_us_p50", "us"},
	{"core.fault_us_p99", "us"},
	{"core.pruned_c_us_mean", "us"},
	{"core.expanded_ms_mean", "ms"},
	{"implic.imply_ns", "ns"},
	{"core.survivors", "count"},
	{"core.pruned_c", "count"},
	{"core.step0_waste_ratio", "ratio"},
	{"core.pairs", "count"},
	{"core.expansions", "count"},
	{"core.sequences", "count"},
	{"core.detected_conv", "count"},
	{"core.detected_mot", "count"},
	{"core.identified", "count"},
	{"serve.post_ms_p50", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.exec_ms_trace_hit_p50", "ms"},
	{"serve.exec_ms_trace_miss_p50", "ms"},
	{"serve.exec_share_trace_hit", "ratio"},
	{"serve.exec_share_trace_miss", "ratio"},
	{"serve.exec_share_circuit_miss", "ratio"},
	{"cache.circuit_hit_ratio", "ratio"},
	{"cache.trace_hit_ratio", "ratio"},
	{"serve.registry_runs", "count"},
	{"metrics.scrape_bytes", "bytes"},
	{"serve.sse_events_per_run", "count"},
	{"trace.run_ms", "ms"},
	{"trace.untraced_composed_ms", "ms"},
	{"trace.composed_ms", "ms"},
	{"trace.bitsim_core_self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.accounting_gap_ms", "ms"},
}

// workload is one benchmark workload.
type workload struct {
	name        string
	defaultSeed int64
	heldOutSeed int64
	engine      *engineSpec // nil for the service workload
}

var workloads = []*workload{
	{name: "sg1423-step0", defaultSeed: 11423, heldOutSeed: 52423,
		engine: &engineSpec{circuit: "sg1423", length: 64, pool: 8}},
	{name: "sg641-implic", defaultSeed: 1641, heldOutSeed: 90641,
		engine: &engineSpec{circuit: "sg641", length: 256, pool: 8}},
	{name: "serve-mixed", defaultSeed: 208, heldOutSeed: 4208},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runConfig is the shape of one run.
type runConfig struct {
	seed    int64
	seconds int
	budget  time.Duration
	trace   bool
}

// report collects a run's metrics, notes and correctness problems.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             map[string]string
	lines             []string
	problems          []string
}

func newReport() *report {
	return &report{values: make(map[string]float64), notes: make(map[string]string)}
}

// set records a metric value with a note (sample count, base).
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	r.notes[name] = note
}

// note adds an informational line.
func (r *report) note(s string) { r.lines = append(r.lines, s) }

// fail counts a failed operation and records why.
func (r *report) fail(why string) {
	r.failed++
	r.problems = append(r.problems, why)
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every metric by name and unit, the notes and problems,
// and then the result line carrying the metrics of defs.
func emit(w io.Writer, rep *report, defs []metricDef) error {
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	res := result{Correct: rep.failed == 0 && len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only failed operations may leave a metric without samples;
			// the result line then reports the failures, not a crash.
			if rep.failed == 0 {
				return fmt.Errorf("metric %s is %v (%s)", d.name, v, rep.notes[d.name])
			}
			v, rep.notes[d.name] = 0, "not measured: operations failed"
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(w, "%-32s %14.6g %-9s %s\n", d.name, v, d.unit, rep.notes[d.name])
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-32s %14.6g %-9s %d failed of %d attempted\n", "failed_ratio", ratio, "ratio", rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	if rep.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeTrace writes the spans to path as Chrome trace JSON and prints
// each span name's self time.
func writeTrace(w io.Writer, t *tracer, path string) error {
	spans, tracks := t.xt.Snapshot()
	if st := t.xt.Stats(); st.Dropped > 0 {
		return fmt.Errorf("%d of %d spans dropped: raise maxSpans", st.Dropped, st.Spans)
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	calls := make(map[string]int)
	for _, s := range spans {
		calls[s.Name]++
	}
	for _, n := range names {
		fmt.Fprintf(w, "self %-24s %12.3f ms over %d spans\n", n, ms(self[n]), calls[n])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := xtrace.WriteChromeTrace(f, spans, tracks); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d spans written to %s\n", len(spans), path)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("motbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 0, "workload seed; 0 selects the workload's default seed")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 for a traced run that prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "motbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "motbench: --seconds must be at least 1")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "motbench: --trace must be 0 or 1")
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, budget: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}
	if rc.seed == 0 {
		rc.seed = w.defaultSeed
	}
	fmt.Fprintf(stdout, "motbench %s seed %d (default %d, held-out %d) seconds %d trace %d\n",
		w.name, rc.seed, w.defaultSeed, w.heldOutSeed, rc.seconds, *traceFlag)

	var rep *report
	var rec *tracer
	var err error
	switch {
	case w.engine != nil && !rc.trace:
		rep, err = runEngine(w, rc)
	case w.engine != nil:
		rep, rec, err = traceEngine(w, rc)
	case !rc.trace:
		rep, err = runServe(rc)
	default:
		rep, rec, err = traceServe(rc)
	}
	if err != nil {
		fmt.Fprintf(stderr, "motbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
		path := filepath.Join(".bench_build", "motbench-"+w.name+".trace.json")
		if err := writeTrace(stdout, rec, path); err != nil {
			fmt.Fprintf(stderr, "motbench: trace: %v\n", err)
			return 1
		}
	}
	if err := emit(stdout, rep, defs); err != nil {
		fmt.Fprintf(stderr, "motbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
