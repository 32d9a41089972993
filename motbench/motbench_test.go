package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/xtrace"
)

// minSamplesFor is the smallest sample count whose nearest-rank
// q-quantile has at least minBeyond samples beyond it.
func minSamplesFor(q float64) int {
	for n := 1; ; n++ {
		if _, b := percentile(make([]float64, n), q); b >= minBeyond {
			return n
		}
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	if n := minSamplesFor(0.95); n != 200 {
		t.Errorf("p95 needs %d samples for ten beyond, want 200", n)
	}
	if n := minSamplesFor(0.99); n != 1000 {
		t.Errorf("p99 needs %d samples for ten beyond, want 1000", n)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // reversed: percentile must sort
	}
	v, beyond := percentile(xs, 0.95)
	if v != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
	if _, beyond := percentile(xs[:199], 0.95); beyond >= minBeyond {
		t.Errorf("199 samples leave %d beyond p95, want fewer than %d", beyond, minBeyond)
	}
	// Every serve-mixed run is long enough for its p95.
	for _, s := range []int{1, 5, 25, 60} {
		if n := serveRequests(s); n < minSamplesFor(0.95) {
			t.Errorf("serveRequests(%d) = %d, below the p95 minimum", s, n)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	d := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	spans := []xtrace.Span{
		{ID: 1, Name: "op", Start: d(0), Dur: d(10)},
		{ID: 2, Parent: 1, Name: "a", Start: d(1), Dur: d(2)},
		{ID: 3, Parent: 1, Name: "a", Start: d(2), Dur: d(3)},
		{ID: 4, Parent: 1, Name: "b", Start: d(7), Dur: d(1)},
		{ID: 5, Parent: 4, Name: "c", Start: d(7), Dur: d(2)}, // clipped to its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"op": 5 * time.Millisecond, "a": 5 * time.Millisecond, "b": 0, "c": 2 * time.Millisecond}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}

	// The tracer records parent links and writes Chrome trace JSON; a
	// nil tracer records nothing.
	var none *tracer
	if id := none.add(0, "x", 0, engineTrack, time.Now(), time.Now()); id != 0 || none.newID() != 0 {
		t.Error("nil tracer recorded a span")
	}
	tr := newTracer()
	root := tr.newID()
	start := time.Now()
	timed(tr, "child", root, func() { time.Sleep(time.Millisecond) })
	tr.add(root, "root", 0, engineTrack, start, time.Now())
	got, tracks := tr.xt.Snapshot()
	if len(got) != 2 || got[0].Parent != root || got[1].ID != root || got[0].Dur < int64(time.Millisecond) {
		t.Fatalf("spans %+v", got)
	}
	var buf bytes.Buffer
	if err := xtrace.WriteChromeTrace(&buf, got, tracks); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []struct{ Name, Ph string } }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(got)+len(tracks) {
		t.Errorf("chrome trace has %d events, want %d spans + %d tracks", len(doc.TraceEvents), len(got), len(tracks))
	}
}

// smallCases builds one sg298 case, quick enough for unit tests.
func smallCases(t *testing.T) []engineCase {
	t.Helper()
	cases, err := buildCases([]caseGroup{{"sg298", 64, []int64{1298}}}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dropCases(cases) })
	return cases
}

func TestDigestStable(t *testing.T) {
	k := &smallCases(t)[0]
	cfg := core.DefaultConfig()
	r1, _, _, err := runOp(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Prescreen = false
	r2, _, _, err := runOp(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1 := digest(r1.Outcomes)
	if d2 := digest(r2.Outcomes); d1 != d2 {
		t.Fatalf("digest with prescreen %s, without %s", d1, d2)
	}
	// Every recorded field reaches the digest.
	flip := []func(o *core.FaultOutcome){
		func(o *core.FaultOutcome) { o.FailedConditionC = !o.FailedConditionC },
		func(o *core.FaultOutcome) { o.ByIdentification = !o.ByIdentification },
		func(o *core.FaultOutcome) { o.Counters.Extra++ },
		func(o *core.FaultOutcome) { o.Pairs++ },
		func(o *core.FaultOutcome) { o.Sequences++ },
		func(o *core.FaultOutcome) { o.Expansions++ },
		func(o *core.FaultOutcome) { o.At.Time++ },
	}
	for i, f := range flip {
		outs := append([]core.FaultOutcome(nil), r1.Outcomes...)
		f(&outs[len(outs)/2])
		if digest(outs) == d1 {
			t.Errorf("change %d left the digest unchanged", i)
		}
	}
}

func TestPinnedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-list runs on sg1423 and sg641")
	}
	want := map[string]aggregates{
		"sg1423-step0": {Faults: 2488, Conv: 471, MOT: 12, PrunedC: 1985, Pairs: 4635, Expansions: 192, Sequences: 2048},
		"sg641-implic": {Faults: 1423, Conv: 576, MOT: 51, PrunedC: 745, Pairs: 57106, Expansions: 612, Sequences: 6528},
	}
	for name, agg := range want {
		w := workloadByName(name)
		pinned := goldensFor(name, w.defaultSeed)
		if len(pinned) != w.engine.pool {
			t.Fatalf("%s: %d pinned cases, pool has %d", name, len(pinned), w.engine.pool)
		}
		if goldensFor(name, w.heldOutSeed) != nil {
			t.Errorf("%s: goldens pinned at the held-out seed", name)
		}
		cases, err := buildCases([]caseGroup{{w.engine.circuit, w.engine.length, []int64{w.defaultSeed}}}, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, _, _, err := runOp(&cases[0], core.DefaultConfig())
		dropCases(cases)
		if err != nil {
			t.Fatal(err)
		}
		g := pinned[cases[0].label]
		if g.agg != agg || aggregatesOf(res) != agg || digest(res.Outcomes) != g.digest {
			t.Errorf("%s: run %v digest %s, pinned %v digest %s, want %v",
				name, aggregatesOf(res), digest(res.Outcomes), g.agg, g.digest, agg)
		}
	}
}

func TestComposedEqualsRun(t *testing.T) {
	cases := smallCases(t)
	tr := newTracer()
	ls := &layerStats{}
	ch := newChecker(nil)
	if err := traceCase(tr, &cases[0], core.DefaultConfig(), ch, ls, 0); err != nil {
		t.Fatalf("composed path: %v %v", err, ch.problems)
	}
	if ls.survivors == 0 || len(ls.faultUS) != ls.survivors || ls.dropped+ls.survivors != len(cases[0].faults) {
		t.Errorf("survivors %d, SimulateFault calls %d, dropped %d of %d",
			ls.survivors, len(ls.faultUS), ls.dropped, len(cases[0].faults))
	}
	// Only the traced pass records spans; both passes are paired.
	spans, _ := tr.xt.Snapshot()
	ops := 0
	for _, s := range spans {
		if s.Name == "op" {
			ops++
		}
	}
	if ops != 1 || len(ls.overheadMS) != 1 || len(ls.plainMS) != 1 {
		t.Errorf("%d op spans, %d paired cycles, want 1 and 1", ops, len(ls.overheadMS))
	}
	// A wrong expectation is reported as a mismatch.
	bad := newChecker(map[string]golden{cases[0].label: {digest: "wrong"}})
	if err := traceCase(tr, &cases[0], core.DefaultConfig(), bad, ls, 1); err != errMismatch || len(bad.problems) == 0 {
		t.Errorf("wrong golden: err %v problems %v", err, bad.problems)
	}
}

func TestAccountingCanFail(t *testing.T) {
	steady := []float64{-1, 0, 1, 0.5, -0.5, 0, 0.2, -0.2, 0.1}
	if _, _, _, ok := accounting(steady, []float64{0.1}); !ok {
		t.Error("gaps centred on zero fail the accounting")
	}
	offset := make([]float64, len(steady))
	for i, g := range steady {
		offset[i] = g + 5
	}
	if gap, over, notch, ok := accounting(offset, []float64{0.1}); ok {
		t.Errorf("a 5 ms gap passes: gap %v, overhead %v, notch %v", gap, over, notch)
	}
	if _, _, _, ok := accounting(offset, []float64{6}); !ok {
		t.Error("a 5 ms gap fails against a 6 ms overhead")
	}
}

func TestServeFailuresCount(t *testing.T) {
	// Against a real motserve whose registry holds only four runs, two
	// of six requests are refused with 503.
	reqs := make([]serveRequest, 6)
	for i := range reqs {
		reqs[i] = serveRequest{runBody{Circuit: "sg208", Random: 16, Seed: int64(1 + i%2), Workers: 1}, "hot"}
	}
	cfg := serveConfig(4)
	ls, err := startServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.close()
	cl := &http.Client{}
	results := runLoad(context.Background(), cl, ls.url, reqs, 1, nil)
	rep := newReport()
	accepted, err := checkResults(reqs, results, rep)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 4 || rep.attempted != 6 || rep.failed != 2 {
		t.Errorf("accepted %d attempted %d failed %d, want 4, 6, 2 (%v)", accepted, rep.attempted, rep.failed, rep.problems)
	}

	// A fake server: every third POST is refused, odd runs end failed,
	// even runs end done with a report that disagrees with the engine.
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", func(w http.ResponseWriter, r *http.Request) {
		n := posts.Add(1)
		if n%3 == 0 {
			http.Error(w, "registry full", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"r%d","cache":{"circuit_hit":true,"trace_hit":false}}`, n)
	})
	mux.HandleFunc("GET /runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		end := serve.StatusDone
		if id := r.PathValue("id"); (id[len(id)-1]-'0')%2 == 1 {
			end = serve.StatusFailed
		}
		fmt.Fprintf(w, "event: status\ndata: {\"status\":\"running\"}\n\nevent: status\ndata: {\"status\":%q}\n\n", end)
	})
	mux.HandleFunc("GET /runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"done","faults":1,"report":{"detected_conventional":1}}`)
	})
	fake := httptest.NewServer(mux)
	defer fake.Close()
	results = runLoad(context.Background(), fake.Client(), fake.URL, reqs, 2, nil)
	rep = newReport()
	if _, err := checkResults(reqs, results, rep); err != nil {
		t.Fatal(err)
	}
	if rep.attempted != 6 || rep.failed != 6 {
		t.Errorf("fake server: attempted %d failed %d, want 6 and 6 (%v)", rep.attempted, rep.failed, rep.problems)
	}
	var refused, ended, wrong int
	for _, p := range rep.problems {
		switch {
		case strings.Contains(p, "status 503"):
			refused++
		case strings.Contains(p, "run ended failed"):
			ended++
		case strings.Contains(p, "report"):
			wrong++
		}
	}
	if refused != 2 || ended+wrong != 4 || ended == 0 || wrong == 0 {
		t.Errorf("refused %d, failed runs %d, wrong reports %d: %v", refused, ended, wrong, rep.problems)
	}
}

func TestServeMixDeterministic(t *testing.T) {
	a, err := serveMix(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveMix(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two mixes of one seed", i)
		}
		kinds[a[i].kind]++
	}
	if kinds["hot"] == 0 || kinds["fresh"] == 0 || kinds["novel"] == 0 {
		t.Errorf("mix kinds %v, want all three", kinds)
	}
	c, err := serveMix(8, 300)
	if err != nil {
		t.Fatal(err)
	}
	if c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("another seed gives the same requests")
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in code", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in code", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	var setupBound, maxBound float64
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in code", i, w.Name, workloads[i].name)
		}
		for _, s := range []int64{workloads[i].defaultSeed, workloads[i].heldOutSeed} {
			if !strings.Contains(w.Why, fmt.Sprint(s)) {
				t.Errorf("workload %s: why does not state seed %d", w.Name, s)
			}
		}
	}
	for _, d := range doc.EndToEnd {
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, largest bound %v", setupBound, maxBound)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-mixed", "--trace", "2"},
		{"--workload", "serve-mixed", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
