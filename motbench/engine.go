package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bitsim"
	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/serve"
	"repro/internal/tgen"
	"repro/internal/xtrace"
)

// engineSpec is a whole-list engine workload: one suite circuit and a
// pool of random test sequences of one length, derived from the seed.
type engineSpec struct {
	circuit string
	length  int
	// pool is the number of sequences a run cycles through. A run
	// measures every sequence equally often, so the work of a run moves
	// less with the seed than the work of a single sequence does.
	pool int
}

// poolStride separates the sequence seeds of one pool.
const poolStride = 1_000_003

// poolSeeds returns the sequence seeds of the pool for a workload seed;
// the first is the workload seed itself.
func poolSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		out[k] = seed + int64(k)*poolStride
	}
	return out
}

// engineCase is one whole-list operation's input: a circuit, its
// collapsed fault list and one test sequence.
type engineCase struct {
	label  string
	seed   int64
	c      *netlist.Circuit
	faults []fault.Fault
	T      seqsim.Sequence
}

// caseGroup is a circuit with the sequence seeds run on it.
type caseGroup struct {
	circuit string
	length  int
	seeds   []int64
}

// buildCases generates each group's circuit, collapses its fault list,
// generates its sequences and builds a simulator for the first sequence
// on a cold compile. This is the engine set-up; every operation later
// builds its own simulator.
func buildCases(groups []caseGroup, cfg core.Config) ([]engineCase, error) {
	var cases []engineCase
	for _, g := range groups {
		e, err := circuits.SuiteEntryByName(g.circuit)
		if err != nil {
			return nil, err
		}
		c, err := circuits.Generate(e.Params)
		if err != nil {
			return nil, err
		}
		faults := fault.CollapsedList(c)
		first := len(cases)
		for _, s := range g.seeds {
			cases = append(cases, engineCase{
				label: fmt.Sprintf("%s/L%d/seed%d", g.circuit, g.length, s),
				seed:  s, c: c, faults: faults, T: tgen.Random(c.NumInputs(), g.length, s),
			})
		}
		cir.Drop(c)
		if _, err := core.NewSimulator(c, cases[first].T, cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", g.circuit, err)
		}
	}
	return cases, nil
}

// dropCases releases the compiled IR of the cases' circuits.
func dropCases(cases []engineCase) {
	for _, k := range cases {
		cir.Drop(k.c)
	}
}

// aggregates are the whole-list counts a run reports.
type aggregates struct {
	Faults, Conv, MOT, Identified, PrunedC, Pairs, Expansions, Sequences int
}

func aggregatesOf(r *core.Result) aggregates {
	return aggregates{
		Faults: r.Total, Conv: r.Conv, MOT: r.MOT, Identified: r.Identified,
		PrunedC: r.PrunedConditionC, Pairs: r.Pairs, Expansions: r.Expansions, Sequences: r.Sequences,
	}
}

func (a *aggregates) add(b aggregates) {
	a.Faults += b.Faults
	a.Conv += b.Conv
	a.MOT += b.MOT
	a.Identified += b.Identified
	a.PrunedC += b.PrunedC
	a.Pairs += b.Pairs
	a.Expansions += b.Expansions
	a.Sequences += b.Sequences
}

func (a aggregates) String() string {
	return fmt.Sprintf("faults %d conv %d mot %d identified %d pruned-(C) %d pairs %d expansions %d sequences %d",
		a.Faults, a.Conv, a.MOT, a.Identified, a.PrunedC, a.Pairs, a.Expansions, a.Sequences)
}

// digest hashes every per-fault outcome in list order: the fault, its
// outcome and conventional detection site, the Table 3 counters,
// expansions, sequences, pairs, the (C) flag and the identification flag.
func digest(outs []core.FaultOutcome) string {
	h := sha256.New()
	for _, o := range outs {
		f := o.Fault
		fmt.Fprintf(h, "%d %d %d %d|%d %d %d|%d %d %d|%d %d %d|%t %t\n",
			f.Node, f.Gate, f.Pin, f.Stuck,
			o.Outcome, o.At.Time, o.At.Output,
			o.Counters.Det, o.Counters.Conf, o.Counters.Extra,
			o.Expansions, o.Sequences, o.Pairs,
			o.FailedConditionC, o.ByIdentification)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// runOp is one whole-list operation: a fresh simulator and Run over the
// case's fault list. Wall time covers both; the usage sample brackets
// them from outside the timed region.
func runOp(k *engineCase, cfg core.Config) (*core.Result, time.Duration, usage, error) {
	runtime.GC()
	before := sampleUsage()
	start := time.Now()
	sim, err := core.NewSimulator(k.c, k.T, cfg)
	var res *core.Result
	if err == nil {
		res, err = sim.Run(k.faults, nil)
	}
	wall := time.Since(start)
	return res, wall, sampleUsage().sub(before), err
}

// checker compares each operation's outcome digest with the expected
// one: the pinned golden at a workload's default seed, otherwise the
// digest of the first operation on the same case.
type checker struct {
	want     map[string]string
	problems []string
}

func newChecker(pinned map[string]golden) *checker {
	ch := &checker{want: make(map[string]string)}
	for label, g := range pinned {
		ch.want[label] = g.digest
	}
	return ch
}

// check reports whether got matches the case's expected digest,
// adopting got as the expectation when there is none yet.
func (ch *checker) check(label, got, what string) bool {
	want, ok := ch.want[label]
	if !ok {
		ch.want[label] = got
		return true
	}
	if got != want {
		ch.problems = append(ch.problems, fmt.Sprintf("%s: %s digest %s, want %s", label, what, got, want))
		return false
	}
	return true
}

// checkPinned compares a case's aggregates with the pinned ones.
func (ch *checker) checkPinned(pinned map[string]golden, label string, a aggregates) bool {
	g, ok := pinned[label]
	if !ok || g.agg == a {
		return true
	}
	ch.problems = append(ch.problems, fmt.Sprintf("%s: aggregates %v, want %v", label, a, g.agg))
	return false
}

// runEngine is the untraced engine workload: set-up, then operations
// cycling over the pool until the budget is spent and every sequence ran
// at least minCycles times, with the batch CLIs' metrics sidecar scraped
// on a fixed cadence. Set-ups are timed before the first operation and
// after every setupEvery operations, so their median samples the whole
// run.
func runEngine(w *workload, rc runConfig) (*report, error) {
	rep := newReport()
	cfg := core.DefaultConfig()
	reg, live := serve.NewRunTelemetry("motfsim")
	cfg.Live = live

	groups := []caseGroup{{w.engine.circuit, w.engine.length, poolSeeds(rc.seed, w.engine.pool)}}
	var setups []float64
	setUp := func() ([]engineCase, error) {
		start := time.Now()
		cases, err := buildCases(groups, cfg)
		setups = append(setups, time.Since(start).Seconds())
		return cases, err
	}
	var cases []engineCase
	for i := 0; i < setupReps/2; i++ {
		dropCases(cases)
		var err error
		if cases, err = setUp(); err != nil {
			return nil, err
		}
	}
	defer dropCases(cases)

	// The batch CLIs' metrics sidecar, as under motfsim -metrics-addr.
	side, err := startHTTP(serve.MetricsMux(reg))
	if err != nil {
		return nil, err
	}
	defer side.close()
	scr := startScraper(side.url+"/metrics", scrapeEvery, nil)

	pinned := goldensFor(w.name, rc.seed)
	ch := newChecker(pinned)
	n := len(cases)
	walls := make([][]float64, n)
	cpus := make([][]float64, n)
	allocs := make([][]float64, n)
	start := time.Now()
	for op := 0; op < minCycles*n || time.Since(start) < rc.budget; op++ {
		k := &cases[op%n]
		res, wall, use, err := runOp(k, cfg)
		rep.attempted++
		if err != nil {
			rep.fail(fmt.Sprintf("%s: %v", k.label, err))
			continue
		}
		d := digest(res.Outcomes)
		ok := true
		if op < n {
			agg := aggregatesOf(res)
			rep.note(fmt.Sprintf("case %s: %v digest %s", k.label, agg, d))
			ok = ch.checkPinned(pinned, k.label, agg)
		}
		if !ch.check(k.label, d, "Run") || !ok {
			rep.failed++
		}
		walls[op%n] = append(walls[op%n], ms(wall))
		cpus[op%n] = append(cpus[op%n], ms(use.cpu))
		allocs[op%n] = append(allocs[op%n], float64(use.alloc)/1e6)
		if (op+1)%setupEvery == 0 {
			spare, err := setUp()
			if err != nil {
				return nil, err
			}
			dropCases(spare)
		}
	}
	scrapes := scr.stop()
	rep.problems = append(rep.problems, ch.problems...)

	// The engine is deterministic, so the spread of one sequence's walls
	// is interference from the host: on a shared 2-vCPU host the same
	// operation runs at two speeds for seconds at a time. Each sequence
	// therefore counts with its best operation, and the pool's sequences
	// are then summarized: every sequence counts once however many times
	// the budget let it run.
	best := make([]float64, n)
	bestCPU := make([]float64, n)
	medAlloc := make([]float64, n)
	for i := range cases {
		best[i] = minOf(walls[i])
		bestCPU[i] = minOf(cpus[i])
		medAlloc[i] = median(allocs[i])
	}
	bestS := mean(best) / 1e3
	note := fmt.Sprintf("best of %d-%d ops per sequence, %d sequences", minLen(walls), maxLen(walls), n)
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups spread over the run", len(setups)))
	rep.set("faults_per_s", float64(len(cases[0].faults))/bestS, "mean best whole-list wall; "+note)
	rep.set("runs_per_s", 1/bestS, "mean best whole-list wall; "+note)
	// The tail is that of every operation, host interference included:
	// the p95 of a pool's best walls would only be its heaviest sequence.
	var all []float64
	for _, ws := range walls {
		all = append(all, ws...)
	}
	p95, beyond := percentile(all, 0.95)
	rep.set("done_ms_p50", median(best), "median over sequences; "+note)
	rep.set("done_ms_p95", p95, fmt.Sprintf("over all %d ops, %d beyond", len(all), beyond))
	rep.set("cpu_ms_per_op", mean(bestCPU), "mean over sequences of the least CPU per op; "+note)
	rep.set("alloc_mb_per_op", mean(medAlloc), "mean over sequences of the median allocation per op")
	rep.set("scrape_ms_p50", median(scrapes.latencies), fmt.Sprintf("%d scrapes of the run-telemetry sidecar", len(scrapes.latencies)))
	rep.set("heap_mb", liveHeapMB(), "live heap after the last op and a GC")
	runtime.KeepAlive(cases)
	return rep, nil
}

// layerStats gathers the per-layer samples of a traced run.
type layerStats struct {
	generate, collapse, compile, cones []float64
	good, goodPerGateFrame             []float64
	prescreen, prescreenPerFaultFrame  []float64
	dropped, screened                  int
	survivor                           []float64
	faultUS, prunedUS, expandedMS      []float64
	implyNS                            float64
	implyCalls                         int
	// Per cycle of a case: Run's wall, the composed path's wall
	// untraced and traced, the traced path's bitsim and core self
	// time, and the paired differences traced - untraced composed
	// (the tracing overhead) and self - Run (the accounting gap).
	runMS, plainMS, tracedMS, selfMS []float64
	overheadMS, gapMS                []float64
	counts                           aggregates
	survivors                        int
}

// timed runs f inside a span on the engine track and returns its
// duration.
func timed(t *tracer, name string, parent xtrace.SpanID, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(0, name, parent, engineTrack, start, end)
	return end.Sub(start)
}

// traceSetupLayers replays the set-up layers of each group once, each
// call in its own span under a "setup" root: generate, collapse,
// compile, cone ordering and the fault-free simulation of every
// sequence. The circuits built here are dropped afterwards.
func traceSetupLayers(t *tracer, groups []caseGroup, ls *layerStats) error {
	for _, g := range groups {
		e, err := circuits.SuiteEntryByName(g.circuit)
		if err != nil {
			return err
		}
		root, start := t.newID(), time.Now()
		var c *netlist.Circuit
		d := timed(t, "circuits.Generate", root, func() { c, err = circuits.Generate(e.Params) })
		if err != nil {
			return err
		}
		ls.generate = append(ls.generate, ms(d))
		var faults []fault.Fault
		d = timed(t, "fault.CollapsedList", root, func() { faults = fault.CollapsedList(c) })
		ls.collapse = append(ls.collapse, ms(d))
		var cc *cir.CC
		d = timed(t, "cir.For", root, func() { cir.Drop(c); cc = cir.For(c) })
		ls.compile = append(ls.compile, ms(d))
		d = timed(t, "cir.SortFaultsByCone", root, func() { cir.SortFaultsByCone(cc, faults) })
		ls.cones = append(ls.cones, ms(d))
		for _, s := range g.seeds {
			T := tgen.Random(c.NumInputs(), g.length, s)
			d = timed(t, "seqsim.Run", root, func() { _, err = seqsim.NewCompiled(cc).Run(T, nil, true) })
			if err != nil {
				return err
			}
			ls.good = append(ls.good, ms(d))
			ls.goodPerGateFrame = append(ls.goodPerGateFrame, float64(d)/float64(c.NumGates()*len(T)))
		}
		t.add(root, "setup", 0, engineTrack, start, time.Now())
		cir.Drop(c)
	}
	return nil
}

// composedOp is one whole-list classification composed from outside
// the engine.
type composedOp struct {
	outs       []core.FaultOutcome
	survivors  []int // list indices of the faults the prescreen kept
	sim        *core.Simulator
	prescreen  time.Duration
	faultDur   []time.Duration // per survivor, in list order
	wall, self time.Duration   // self: the bitsim and core calls
}

// composed classifies the case's list the way Run does, from outside:
// a fresh simulator, the bitsim prescreen, then one SimulateFault per
// survivor. Every call is timed; with a tracer it is also a span under
// an "op" root. With a nil tracer the same code runs without recording,
// so the two walls differ by the cost of tracing.
func composed(t *tracer, k *engineCase, cfg core.Config) (*composedOp, error) {
	runtime.GC()
	c := &composedOp{outs: make([]core.FaultOutcome, len(k.faults))}
	root := t.newID()
	start := time.Now()
	var err error
	c.self = timed(t, "core.NewSimulator", root, func() { c.sim, err = core.NewSimulator(k.c, k.T, cfg) })
	if err != nil {
		return nil, err
	}
	var pre []seqsim.FaultResult
	c.prescreen = timed(t, "bitsim.Run", root, func() { pre, err = bitsim.Run(k.c, k.T, k.faults) })
	if err != nil {
		return nil, err
	}
	c.self += c.prescreen
	for j, f := range k.faults {
		if pre[j].Detected {
			c.outs[j] = core.FaultOutcome{Fault: f, Outcome: core.DetectedConventional, At: pre[j].At}
			continue
		}
		c.survivors = append(c.survivors, j)
		d := timed(t, "core.SimulateFault", root, func() { c.outs[j], err = c.sim.SimulateFault(f) })
		if err != nil {
			return nil, err
		}
		c.self += d
		c.faultDur = append(c.faultDur, d)
	}
	end := time.Now()
	c.wall = end.Sub(start)
	t.add(root, "op", 0, engineTrack, start, end)
	return c, nil
}

// traceCase runs one cycle's work on a case: an untraced whole-list Run,
// the same list composed from outside untraced and traced (in an order
// that alternates with the cycle), the serial step-0 replay of the
// survivors and the implication replay over the good trace. Both
// composed outcomes must equal Run's.
func traceCase(t *tracer, k *engineCase, cfg core.Config, ch *checker, ls *layerStats, cycle int) error {
	res, wall, _, err := runOp(k, cfg)
	if err != nil {
		return err
	}
	runDigest := digest(res.Outcomes)
	ok := ch.check(k.label, runDigest, "Run")
	if cycle == 0 {
		ls.counts.add(aggregatesOf(res))
		ls.survivors += res.Total - res.Stages.PrescreenDropped
	}

	var plain, traced *composedOp
	for pass := 0; pass < 2; pass++ {
		if (pass+cycle)%2 == 0 {
			plain, err = composed(nil, k, cfg)
		} else {
			traced, err = composed(t, k, cfg)
		}
		if err != nil {
			return err
		}
	}
	for _, c := range []*composedOp{plain, traced} {
		if got := digest(c.outs); got != runDigest {
			ch.problems = append(ch.problems, fmt.Sprintf("%s: composed digest %s, Run digest %s", k.label, got, runDigest))
			ok = false
		}
	}
	ls.runMS = append(ls.runMS, ms(wall))
	ls.plainMS = append(ls.plainMS, ms(plain.wall))
	ls.tracedMS = append(ls.tracedMS, ms(traced.wall))
	ls.selfMS = append(ls.selfMS, ms(traced.self))
	ls.overheadMS = append(ls.overheadMS, ms(traced.wall-plain.wall))
	ls.gapMS = append(ls.gapMS, ms(traced.self-wall))
	ls.prescreen = append(ls.prescreen, ms(traced.prescreen))
	ls.prescreenPerFaultFrame = append(ls.prescreenPerFaultFrame, float64(traced.prescreen)/float64(len(k.faults)*len(k.T)))
	for n, j := range traced.survivors {
		o, d := traced.outs[j], traced.faultDur[n]
		ls.faultUS = append(ls.faultUS, float64(d)/1e3)
		switch {
		case o.FailedConditionC:
			ls.prunedUS = append(ls.prunedUS, float64(d)/1e3)
		case o.Expansions > 0:
			ls.expandedMS = append(ls.expandedMS, ms(d))
		}
	}
	if cycle == 0 {
		ls.dropped += len(k.faults) - len(traced.survivors)
		ls.screened += len(k.faults)
	}

	// Step 0 replayed from outside: serial faulty simulation of every
	// survivor against the fault-free trace.
	good := traced.sim.Good()
	ssim := seqsim.NewCompiled(cir.For(k.c))
	d := timed(t, "seqsim.RunFault", 0, func() {
		for _, j := range traced.survivors {
			if _, _, _, err = ssim.RunFault(k.T, good, k.faults[j], true); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	ls.survivor = append(ls.survivor, ms(d))

	// Implication replay: a fault-free frame per (frame >= 1, flip-flop,
	// value), asserting the next state and running the two-pass schedule.
	cc := cir.For(k.c)
	calls := 0
	d = timed(t, "implic.ImplyTwoPass", 0, func() {
		for u := 1; u < len(k.T); u++ {
			for i := 0; i < cc.NumFFs(); i++ {
				for _, v := range [2]logic.Val{logic.Zero, logic.One} {
					fr := implic.NewCompiled(cc, nil, good.Nodes[u-1])
					if fr.AssignNextState(i, v) {
						fr.ImplyTwoPass()
					}
					calls++
				}
			}
		}
	})
	ls.implyNS += float64(d)
	ls.implyCalls += calls
	if !ok {
		return errMismatch
	}
	return nil
}

// setEngineLayers fills the engine per-layer metrics from ls.
func setEngineLayers(rep *report, ls *layerStats) {
	nCalls := func(xs []float64) string { return fmt.Sprintf("median of %d calls", len(xs)) }
	rep.set("circuits.generate_ms", median(ls.generate), nCalls(ls.generate))
	rep.set("fault.collapse_ms", median(ls.collapse), nCalls(ls.collapse))
	rep.set("cir.compile_ms", median(ls.compile), nCalls(ls.compile))
	rep.set("cir.cones_ms", median(ls.cones), nCalls(ls.cones))
	rep.set("seqsim.good_ms", median(ls.good), nCalls(ls.good))
	rep.set("seqsim.good_ns_per_gate_frame", median(ls.goodPerGateFrame), nCalls(ls.goodPerGateFrame))
	rep.set("bitsim.prescreen_ms", median(ls.prescreen), nCalls(ls.prescreen))
	rep.set("bitsim.ns_per_fault_frame", median(ls.prescreenPerFaultFrame), nCalls(ls.prescreenPerFaultFrame))
	rep.set("bitsim.drop_ratio", float64(ls.dropped)/float64(ls.screened), fmt.Sprintf("%d dropped of %d faults", ls.dropped, ls.screened))
	rep.set("seqsim.survivor_ms", median(ls.survivor), nCalls(ls.survivor)+" (all survivors per call)")
	p50 := median(ls.faultUS)
	p99, beyond := percentile(ls.faultUS, 0.99)
	rep.set("core.fault_us_p50", p50, nCalls(ls.faultUS))
	rep.set("core.fault_us_p99", p99, fmt.Sprintf("%d calls, %d beyond", len(ls.faultUS), beyond))
	rep.set("core.pruned_c_us_mean", mean(ls.prunedUS), fmt.Sprintf("mean of %d calls", len(ls.prunedUS)))
	rep.set("core.expanded_ms_mean", mean(ls.expandedMS), fmt.Sprintf("mean of %d calls", len(ls.expandedMS)))
	rep.set("implic.imply_ns", ls.implyNS/float64(ls.implyCalls), fmt.Sprintf("mean of %d calls", ls.implyCalls))
	c := ls.counts
	rep.set("core.survivors", float64(ls.survivors), "faults entering the per-fault pipeline")
	rep.set("core.pruned_c", float64(c.PrunedC), "")
	rep.set("core.step0_waste_ratio", float64(c.PrunedC)/float64(ls.survivors),
		fmt.Sprintf("%d pruned by (C) of %d survivors", c.PrunedC, ls.survivors))
	rep.set("core.pairs", float64(c.Pairs), "")
	rep.set("core.expansions", float64(c.Expansions), "")
	rep.set("core.sequences", float64(c.Sequences), "")
	rep.set("core.detected_conv", float64(c.Conv), "")
	rep.set("core.detected_mot", float64(c.MOT), "")
	rep.set("core.identified", float64(c.Identified), "")
	paired := fmt.Sprintf("median of %d paired cycles", len(ls.gapMS))
	run, self := median(ls.runMS), median(ls.selfMS)
	gap, over, notch, ok := accounting(ls.gapMS, ls.overheadMS)
	rep.set("trace.run_ms", run, "untraced whole-list op, "+nCalls(ls.runMS))
	rep.set("trace.untraced_composed_ms", median(ls.plainMS), "composed op without a tracer, "+nCalls(ls.plainMS))
	rep.set("trace.composed_ms", median(ls.tracedMS), "traced composed op, "+nCalls(ls.tracedMS))
	rep.set("trace.bitsim_core_self_ms", self, "self time of the bitsim and core spans per traced composed op, "+nCalls(ls.selfMS))
	rep.set("trace.overhead_ms", over, "traced minus untraced composed op, "+paired)
	rep.set("trace.accounting_gap_ms", gap, "bitsim and core self time minus untraced Run wall, "+paired)
	verdict := "holds"
	if !ok {
		verdict = "FAILS"
	}
	rep.note(fmt.Sprintf("accounting %s: bitsim+core self %.3f ms against untraced Run %.3f ms: gap %.3f ms (median uncertainty %.3f ms), composed-op tracing overhead %.3f ms",
		verdict, self, run, gap, notch, over))
}

// accounting checks that the bitsim and core self time accounts for
// Run's wall within the tracing overhead: the median paired gap (self
// minus Run) must lie within the median paired overhead, give or take
// the uncertainty of the gap's median (the boxplot notch,
// 1.57 IQR / sqrt(n)).
func accounting(gaps, overheads []float64) (gap, over, notch float64, ok bool) {
	gap, over = median(gaps), median(overheads)
	q1, _ := percentile(gaps, 0.25)
	q3, _ := percentile(gaps, 0.75)
	notch = 1.57 * (q3 - q1) / math.Sqrt(float64(len(gaps)))
	return gap, over, notch, math.Abs(gap) <= max(over, 0)+notch
}

// traceEngineLayers runs the engine layer replays for a traced run:
// the set-up layers layerReps times per group, then cycles over the cases
// the budget is spent (at least `cycles` times).
func traceEngineLayers(t *tracer, groups []caseGroup, cases []engineCase, pinned map[string]golden, budget time.Duration, cycles int, rep *report) error {
	cfg := core.DefaultConfig()
	ls := &layerStats{}
	for i := 0; i < layerReps; i++ {
		if err := traceSetupLayers(t, groups, ls); err != nil {
			return err
		}
	}
	ch := newChecker(pinned)
	start := time.Now()
	for cycle := 0; cycle < cycles || (budget > 0 && time.Since(start) < budget); cycle++ {
		for i := range cases {
			rep.attempted++
			err := traceCase(t, &cases[i], cfg, ch, ls, cycle)
			switch {
			case err == errMismatch:
				rep.failed++
			case err != nil:
				rep.fail(fmt.Sprintf("%s: %v", cases[i].label, err))
			}
		}
	}
	rep.problems = append(rep.problems, ch.problems...)
	setEngineLayers(rep, ls)
	return nil
}

// traceEngine is the traced engine workload: layer replays over the
// pool, then a short serve pass over the same circuit and sequences.
func traceEngine(w *workload, rc runConfig) (*report, *tracer, error) {
	rep := newReport()
	t := newTracer()
	groups := []caseGroup{{w.engine.circuit, w.engine.length, poolSeeds(rc.seed, w.engine.pool)}}
	cases, err := buildCases(groups, core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	defer dropCases(cases)
	if err := traceEngineLayers(t, groups, cases, goldensFor(w.name, rc.seed), rc.budget, 1, rep); err != nil {
		return nil, nil, err
	}

	// Serve pass: each of the first two sequences submitted twice, so
	// the pass sees a full miss, a circuit hit with a trace miss, and
	// trace hits.
	var reqs []serveRequest
	for _, k := range cases[:min(2, len(cases))] {
		body := runBody{Circuit: w.engine.circuit, Random: w.engine.length, Seed: k.seed, Workers: 1}
		reqs = append(reqs, serveRequest{body: body, kind: "engine"}, serveRequest{body: body, kind: "engine"})
	}
	pr, err := servePass(reqs, 1, 1, t, rep)
	if err != nil {
		return nil, nil, err
	}
	setServeLayers(rep, pr)
	return rep, t, nil
}
