package core

// Test-side reference implementations of the pipeline stages, each the
// straightforward version of a stage the engine runs in optimized form:
//
//   - collectPairsRef/collectOneRef/deepBackwardRef: pair collection
//     with a fresh implication frame per pair side and a map-backed
//     sv set (the engine uses one trail-restored frame per time unit and
//     arena-backed pair data);
//   - resimulateRef: Section 3.4 one sequence at a time through dense
//     EvalFrame passes (the engine packs up to 256 sequences per
//     region-confined vector pass);
//   - refSimulateFault: the Procedure 1 pipeline assembled from those
//     stages, with step 0 on the full-pass evaluator (the engine
//     evaluates faulty frames event-driven over the fault's cone).
//
// Expansion (Procedure 2) has a single implementation and is shared.

import (
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

// cloneStates deep-copies a state matrix.
func cloneStates(src [][]logic.Val) [][]logic.Val {
	dst := make([][]logic.Val, len(src))
	for u := range src {
		row := make([]logic.Val, len(src[u]))
		copy(row, src[u])
		dst[u] = row
	}
	return dst
}

// collectPairsRef is the allocate-per-pair collectPairs.
func (s *Simulator) collectPairsRef(f *fault.Fault, bad *seqsim.Trace, nout []int) []pairInfo {
	L := len(s.T)
	nFF := s.c.NumFFs()
	var pairs []pairInfo
	capReached := func() bool {
		return s.cfg.MaxPairs > 0 && len(pairs) >= s.cfg.MaxPairs
	}

	if nout[0] > 0 {
		for i := 0; i < nFF; i++ {
			if bad.States[0][i] != logic.X || capReached() {
				continue
			}
			pairs = append(pairs, trivialPair(0, i))
		}
	}
	for u := 1; u < L; u++ {
		if nout[u-1] == 0 || capReached() {
			break // nout is non-increasing: later units are useless too
		}
		for i := 0; i < nFF; i++ {
			if bad.States[u][i] != logic.X || capReached() {
				continue
			}
			if !s.cfg.UseBackwardImplications {
				pairs = append(pairs, trivialPair(u, i))
				continue
			}
			pairs = append(pairs, s.collectOneRef(f, bad, u, i))
		}
	}
	return pairs
}

// collectOneRef performs backward implication of y_i at time u for both
// values with a fresh implication frame per side and a map-backed sv set.
func (s *Simulator) collectOneRef(f *fault.Fault, bad *seqsim.Trace, u, i int) pairInfo {
	p := pairInfo{u: u, i: i}
	svSet := map[int]bool{i: true}
	for a := 0; a < 2; a++ {
		alpha := logic.Val(a)
		fr := implic.New(s.c, f, bad.Nodes[u-1])
		ok := fr.AssignNextState(i, alpha) && s.imply(fr)
		if !ok {
			p.conf[a] = true
			continue
		}
		if s.frameDetects(fr, u-1) {
			p.detect[a] = true
			continue
		}
		if s.cfg.BackwardDepth > 1 {
			switch s.deepBackwardRef(f, bad, fr, u-1, s.cfg.BackwardDepth-1) {
			case deepConflict:
				p.conf[a] = true
				continue
			case deepDetect:
				p.detect[a] = true
				continue
			}
		}
		var extra []svAssign
		for j := 0; j < s.c.NumFFs(); j++ {
			if bad.States[u][j] != logic.X {
				continue
			}
			if v := fr.NextState(j); v.IsBinary() {
				extra = append(extra, svAssign{j: j, v: v})
				svSet[j] = true
			}
		}
		p.extra[a] = extra
	}
	for j := range svSet {
		p.sv = append(p.sv, j)
	}
	// Map iteration order is random; the expansion path depends on sv
	// order, so sort for reproducible outcomes (same order as the pooled
	// path).
	sort.Ints(p.sv)
	return p
}

// deepBackwardRef recursively chases newly specified present-state
// variables into earlier frames, allocating a frame per time unit.
func (s *Simulator) deepBackwardRef(f *fault.Fault, bad *seqsim.Trace, fr *implic.Frame, u, depth int) deepResult {
	if depth <= 0 || u == 0 {
		return deepNothing
	}
	var newly []svAssign
	for j := 0; j < s.c.NumFFs(); j++ {
		if bad.States[u][j] != logic.X {
			continue
		}
		if v := fr.PresentState(j); v.IsBinary() {
			newly = append(newly, svAssign{j: j, v: v})
		}
	}
	if len(newly) == 0 {
		return deepNothing
	}
	prev := implic.New(s.c, f, bad.Nodes[u-1])
	for _, a := range newly {
		if !prev.AssignNextState(a.j, a.v) {
			return deepConflict
		}
	}
	if !s.imply(prev) {
		return deepConflict
	}
	if s.frameDetects(prev, u-1) {
		return deepDetect
	}
	return s.deepBackwardRef(f, bad, prev, u-1, depth-1)
}

// resimulateRef is Section 3.4 one sequence at a time: each marked frame
// of each sequence is evaluated densely with EvalFrame, a binary output
// contradicting a binary fault-free response resolves the sequence by
// detection, and each binary next-state value either refines the
// sequence at u+1 (marking it) or contradicts it (an infeasible
// sequence, also resolved). The fault is detected when every sequence
// resolves. Sequence states are refined in place.
func (s *Simulator) resimulateRef(f *fault.Fault, seqs []*sequence, baseMarks []bool) bool {
	c := s.c
	L := len(s.T)
	ev := s.cc.NewEvaluator()
	vals := make([]logic.Val, c.NumNodes())
	marks := make([]bool, L+1)
	for _, sq := range seqs {
		copy(marks, baseMarks)
		resolved := false
		for u := 0; u < L && !resolved; u++ {
			if !marks[u] {
				continue
			}
			ev.EvalFrame(s.T[u], sq.states[u], f, vals)
			g := s.good.Outputs[u]
			for j, id := range c.Outputs {
				v := vals[id]
				if v.IsBinary() && g[j].IsBinary() && v != g[j] {
					resolved = true
					break
				}
			}
			if resolved {
				break
			}
			next := sq.states[u+1]
			for j, ff := range c.FFs {
				v := f.Observed(ff.Q, vals[ff.D])
				if !v.IsBinary() {
					continue
				}
				switch next[j] {
				case logic.X:
					next[j] = v
					marks[u+1] = true
				case v:
					// consistent
				default:
					resolved = true // infeasible state sequence
				}
				if resolved {
					break
				}
			}
		}
		if !resolved {
			return false
		}
	}
	return true
}

// refSimulateFault is simulateFault assembled from the reference stages.
// full must be a full-pass simulator (seqsim.NewFullPass) of s's circuit.
func refSimulateFault(t *testing.T, s *Simulator, full *seqsim.Simulator, f fault.Fault) FaultOutcome {
	t.Helper()
	out := FaultOutcome{Fault: f}
	bad, at, detected, err := full.RunFault(s.T, s.good, f, s.cfg.UseBackwardImplications)
	if err != nil {
		t.Fatal(err)
	}
	if detected {
		out.Outcome = DetectedConventional
		out.At = at
		return out
	}
	nsv, nout := s.profile(bad)
	if !conditionC(nsv, nout) {
		out.FailedConditionC = true
		return out
	}
	pairs := s.collectPairsRef(&f, bad, nout)
	out.Pairs = len(pairs)
	if s.cfg.UseBackwardImplications {
		for k := range pairs {
			p := &pairs[k]
			if (p.detect[0] && p.resolved(1)) || (p.detect[1] && p.resolved(0)) {
				out.Outcome = DetectedMOT
				out.ByIdentification = true
				out.Counters.add(p.counters())
				out.Sequences = 1
				return out
			}
		}
	}
	if s.cfg.IdentificationOnly {
		return out
	}
	seqs, marks := s.expand(pairs, bad, nsv, nout, &out)
	out.Sequences = len(seqs)
	if s.resimulateRef(&f, seqs, marks) {
		out.Outcome = DetectedMOT
		return out
	}
	if s.cfg.UseBackwardImplications {
		var retry FaultOutcome
		seqs, marks = s.expand(s.trivialPairs(bad, nout), bad, nsv, nout, &retry)
		if s.resimulateRef(&f, seqs, marks) {
			out.Outcome = DetectedMOT
			out.Expansions += retry.Expansions
			out.Counters.add(retry.Counters)
			out.Sequences = len(seqs)
		}
	}
	return out
}

// crossCheckReference runs the fault list through Run and RunParallel(4)
// and asserts every FaultOutcome, and the Result aggregates, equal those
// of the reference pipeline (FaultOutcome has no reference-typed fields,
// so != is an exact field-by-field comparison).
func crossCheckReference(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config) {
	t.Helper()
	sim, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resSerial, err := sim.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := sim.RunParallel(faults, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := seqsim.NewFullPass(c)
	want := &Result{}
	for _, f := range faults {
		want.tally(refSimulateFault(t, ref, full, f))
	}
	for name, res := range map[string]*Result{"serial": resSerial, "parallel": resPar} {
		if len(res.Outcomes) != len(want.Outcomes) {
			t.Fatalf("%s: %d outcomes, reference %d", name, len(res.Outcomes), len(want.Outcomes))
		}
		for k := range res.Outcomes {
			if res.Outcomes[k] != want.Outcomes[k] {
				t.Fatalf("%s: fault %s differs from the reference pipeline:\n  engine:    %+v\n  reference: %+v",
					name, faults[k].Name(c), res.Outcomes[k], want.Outcomes[k])
			}
		}
		if res.Conv != want.Conv || res.MOT != want.MOT || res.Sum != want.Sum ||
			res.Expansions != want.Expansions || res.Pairs != want.Pairs ||
			res.Sequences != want.Sequences || res.Identified != want.Identified ||
			res.PrunedConditionC != want.PrunedConditionC {
			t.Fatalf("%s: aggregates differ from the reference pipeline:\n  engine:    %+v\n  reference: %+v",
				name, res, want)
		}
	}
}
