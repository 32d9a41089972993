package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

// resimCircuit: q1, q2 free-running; o1 = AND(a, q1), o2 = AND(a, q2);
// q1' = NOT(q1), q2' = BUFF(q2). With a=0 the fault-free outputs are 00.
const resimBench = `
INPUT(a)
OUTPUT(o1)
OUTPUT(o2)
q1 = DFF(d1)
q2 = DFF(d2)
d1 = NOT(q1)
d2 = BUFF(q2)
o1 = AND(a, q1)
o2 = AND(a, q2)
`

// resimSetup builds a simulator over the all-zero sequence and returns
// the faulty trace of the stem fault a stuck-at-1 (outputs observe the
// state variables).
func resimSetup(t *testing.T, L int) (*Simulator, fault.Fault, *seqsim.Trace) {
	t.Helper()
	c, err := bench.ParseString("resim", resimBench)
	if err != nil {
		t.Fatal(err)
	}
	T := make(seqsim.Sequence, L)
	for u := range T {
		T[u] = seqsim.Pattern{logic.Zero}
	}
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.NodeByName("a")
	f := fault.Fault{Node: a, Gate: netlist.NoGate, Stuck: logic.One}
	bad, _, detected, err := s.sim.RunFault(T, s.good, f, true)
	if err != nil {
		t.Fatal(err)
	}
	if detected {
		t.Fatal("setup fault should not be conventionally detected")
	}
	return s, f, bad
}

// testResimulate mirrors the expand/resimulate coupling for hand-built
// sequences: it seeds the assigned state variables by diffing each
// sequence against the base trace (as expand records them), then runs
// resimulate and the serial reference and asserts they agree. The vector
// pass runs first — the reference refines sequence states in place, the
// vector pass packs a copy.
func testResimulate(t *testing.T, s *Simulator, f *fault.Fault, bad *seqsim.Trace, seqs []*sequence, marks []bool) bool {
	t.Helper()
	s.seedReset()
	for _, sq := range seqs {
		for u := range sq.states {
			for j, v := range sq.states[u] {
				if v != bad.States[u][j] {
					s.seedAdd(j)
				}
			}
		}
	}
	bp := s.resimulate(f, bad, seqs, marks)
	if serial := s.resimulateRef(f, seqs, marks); bp != serial {
		t.Fatalf("resimulate = %v, serial reference = %v", bp, serial)
	}
	return bp
}

// TestResimulateDetection: pinning q1 = 1 at time 0 must produce o1 = 1,
// conflicting with the fault-free 0 — the sequence resolves by detection.
func TestResimulateDetection(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	sq := &sequence{states: cloneStates(bad.States)}
	sq.states[0][0] = logic.One
	marks := make([]bool, 4)
	marks[0] = true
	if !testResimulate(t, s, &f, bad, []*sequence{sq}, marks) {
		t.Fatal("detection not found")
	}
}

// TestResimulatePropagatesForward: pinning q1 = 0 at time 0 yields no
// conflict at time 0, but the toggle makes q1 = 1 at time 1, so the
// newly-marked frame 1 detects.
func TestResimulatePropagatesForward(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	sq := &sequence{states: cloneStates(bad.States)}
	sq.states[0][0] = logic.Zero
	marks := make([]bool, 4)
	marks[0] = true
	if !testResimulate(t, s, &f, bad, []*sequence{sq}, marks) {
		t.Fatal("forward-propagated detection not found")
	}
}

// TestResimulateInfeasible: a state assignment contradicting the next
// state computed from an earlier frame resolves as infeasible.
func TestResimulateInfeasible(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	sq := &sequence{states: cloneStates(bad.States)}
	// q2 holds its value (d2 = BUFF(q2)); claiming q2 = 0 at time 0 and
	// q2 = 1 at time 1 is infeasible, and the sequence resolves without a
	// detection on o2... but o1 may still detect through q1's toggle. Pin
	// q1 to keep o1 quiet is impossible (toggle always shows), so use a
	// dedicated check on the conflict branch: claim q2 values only and
	// verify resolution.
	sq.states[0][1] = logic.Zero
	sq.states[1][1] = logic.One
	marks := make([]bool, 4)
	marks[0] = true
	// Expansion marks every time unit it writes, so the hand-built
	// assignment at time 1 marks that unit too.
	marks[1] = true
	if !testResimulate(t, s, &f, bad, []*sequence{sq}, marks) {
		t.Fatal("sequence should resolve (infeasible or detected)")
	}
}

// TestResimulateSurvivor: with nothing marked, nothing resolves and the
// fault stays undetected.
func TestResimulateSurvivor(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	sq := &sequence{states: cloneStates(bad.States)}
	marks := make([]bool, 4)
	if testResimulate(t, s, &f, bad, []*sequence{sq}, marks) {
		t.Fatal("unmarked sequence should not resolve")
	}
}

// TestResimulateAllSequencesRequired: one resolving and one surviving
// sequence must not count as detection.
func TestResimulateAllSequencesRequired(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	det := &sequence{states: cloneStates(bad.States)}
	det.states[0][0] = logic.One
	surv := &sequence{states: cloneStates(bad.States)}
	marks := make([]bool, 4)
	marks[0] = true
	// The surviving sequence has everything unspecified at its marked
	// frame; simulation specifies nothing that conflicts, so it survives.
	if testResimulate(t, s, &f, bad, []*sequence{det, surv}, marks) {
		t.Fatal("survivor ignored")
	}
}

// TestResimulateChunked covers sequence sets wider than one 256-lane
// word: they replay as successive chunks, the fault is detected only
// when every chunk resolves, and the replay stops at the first chunk
// with an unresolved lane.
func TestResimulateChunked(t *testing.T) {
	const n = 600 // chunks of 256, 256 and 88 lanes
	for _, tc := range []struct {
		survivor   int // index of the one unresolved sequence, or -1
		want       bool
		wantPasses int
	}{
		{-1, true, 3},
		{0, false, 1},
		{300, false, 2},
		{n - 1, false, 3},
	} {
		s, f, bad := resimSetup(t, 3)
		seqs := make([]*sequence, n)
		for k := range seqs {
			seqs[k] = &sequence{states: cloneStates(bad.States)}
			if k != tc.survivor {
				seqs[k].states[0][0] = logic.One // detects at time 0
			}
		}
		marks := make([]bool, 4)
		marks[0] = true
		s.lastResim = ResimTrace{}
		if got := testResimulate(t, s, &f, bad, seqs, marks); got != tc.want {
			t.Errorf("survivor %d: resimulate = %v, want %v", tc.survivor, got, tc.want)
		}
		if s.lastResim.VectorPasses != tc.wantPasses {
			t.Errorf("survivor %d: %d vector passes, want %d", tc.survivor, s.lastResim.VectorPasses, tc.wantPasses)
		}
	}
}
