package seqsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// randomCircuitWide is randomCircuit with gate arities up to 4, so the
// packed base-3 LUT paths for 3- and 4-input gates (evalLUT3/evalLUT4)
// see property coverage alongside the 1- and 2-input fast paths. It
// uses its own rng so the existing randomCircuit-based tests keep their
// historical draws.
func randomCircuitWide(rng *rand.Rand, nPI, nFF, nGates int) (*netlist.Circuit, error) {
	b := netlist.NewBuilder("randwide")
	var pool []netlist.NodeID
	for i := 0; i < nPI; i++ {
		pool = append(pool, b.Input(fmt.Sprintf("i%d", i)))
	}
	for i := 0; i < nFF; i++ {
		pool = append(pool, b.FlipFlop(fmt.Sprintf("q%d", i), b.Signal(fmt.Sprintf("d%d", i))))
	}
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf}
	for i := 0; i < nGates; i++ {
		op := ops[rng.Intn(len(ops))]
		n := 1
		if op != logic.Not && op != logic.Buf {
			n = 2 + rng.Intn(3)
		}
		ins := make([]netlist.NodeID, n)
		for j := range ins {
			ins[j] = pool[rng.Intn(len(pool))]
		}
		var name string
		if i < nFF {
			name = fmt.Sprintf("d%d", i)
		} else {
			name = fmt.Sprintf("g%d", i)
		}
		pool = append(pool, b.Gate(op, name, ins...))
	}
	for i := 0; i < 3 && i < nGates-nFF; i++ {
		b.Output(fmt.Sprintf("g%d", nGates-1-i))
	}
	return b.Build()
}

// compareTraces asserts the trace got agrees with want on every stored
// row of got (a dropped fault's trace is a prefix of the full one).
func compareTraces(t *testing.T, tag string, got, want *Trace) {
	t.Helper()
	for u := range got.States {
		for j := range got.States[u] {
			if got.States[u][j] != want.States[u][j] {
				t.Fatalf("%s: state[%d][%d] event=%v golden=%v", tag, u, j, got.States[u][j], want.States[u][j])
			}
		}
	}
	for u := range got.Outputs {
		for j := range got.Outputs[u] {
			if got.Outputs[u][j] != want.Outputs[u][j] {
				t.Fatalf("%s: output[%d][%d] event=%v golden=%v", tag, u, j, got.Outputs[u][j], want.Outputs[u][j])
			}
		}
	}
	if (got.Nodes == nil) != (want.Nodes == nil) {
		t.Fatalf("%s: node rows kept on one trace only", tag)
	}
	for u := range got.Nodes {
		for n := range got.Nodes[u] {
			if got.Nodes[u][n] != want.Nodes[u][n] {
				t.Fatalf("%s: node[%d][%d] event=%v golden=%v", tag, u, n, got.Nodes[u][n], want.Nodes[u][n])
			}
		}
	}
}

// TestEventSimMatchesLevelOrder checks the event-driven sparse-delta
// evaluator against goldenRun, the level-order full-pass simulator on
// the pointer netlist: byte-identical traces (states, outputs and
// per-node rows) up to the first detection, the golden first detection,
// and one event frame per faulty frame simulated, for random circuits,
// faults and sequences including 3- and 4-input gates.
func TestEventSimMatchesLevelOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		c, err := randomCircuitWide(rng, 3, 4, 12+rng.Intn(30))
		if err != nil {
			continue
		}
		T := randomSequence(rng, c.NumInputs(), 2+rng.Intn(5))
		ev := New(c)
		good, err := ev.Run(T, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.List(c)
		for k := 0; k < 8; k++ {
			f := faults[rng.Intn(len(faults))]
			ev.ResetStats()
			tr, at, det, err := ev.RunFault(T, good, f, true)
			if err != nil {
				t.Fatal(err)
			}
			want := goldenRun(c, T, &f, true)
			wantAt, wantDet := FirstDetection(good, want)
			tag := fmt.Sprintf("trial %d fault %s", trial, f.Name(c))
			if det != wantDet || (det && at != wantAt) {
				t.Fatalf("%s: detection event=(%v,%+v) golden=(%v,%+v)", tag, det, at, wantDet, wantAt)
			}
			compareTraces(t, tag, tr, want)
			if st := ev.Stats(); st.EventFrames != int64(len(tr.Outputs)) || st.FullFrames != 0 {
				t.Fatalf("%s: %+v for %d faulty frames", tag, st, len(tr.Outputs))
			}
		}
	}
}

// TestEventSimFrameDeltaMatches checks the exported FrameDelta entry
// point against the full re-evaluation, for random frames, faults and
// divergent present states.
func TestEventSimFrameDeltaMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 30; trial++ {
		c, err := randomCircuitWide(rng, 3, 4, 12+rng.Intn(24))
		if err != nil {
			continue
		}
		ev := New(c)
		pat := make(Pattern, c.NumInputs())
		for i := range pat {
			pat[i] = logic.Val(rng.Intn(3))
		}
		goodPS := make([]logic.Val, c.NumFFs())
		badPS := make([]logic.Val, c.NumFFs())
		for i := range goodPS {
			goodPS[i] = logic.Val(rng.Intn(3))
			badPS[i] = logic.Val(rng.Intn(3))
		}
		goodVals := make([]logic.Val, c.NumNodes())
		EvalFrame(c, pat, goodPS, nil, goodVals)

		faults := fault.List(c)
		f := faults[rng.Intn(len(faults))]
		want := make([]logic.Val, c.NumNodes())
		EvalFrame(c, pat, badPS, &f, want)
		got := ev.FrameDelta(pat, badPS, goodVals, &f)
		for n := range want {
			if got[n] != want[n] {
				t.Fatalf("trial %d fault %s: node %s event=%v full=%v",
					trial, f.Name(c), c.NodeName(netlist.NodeID(n)), got[n], want[n])
			}
		}
		// Fault-free frames must pass through unchanged too.
		got = ev.FrameDelta(pat, goodPS, goodVals, nil)
		for n := range goodVals {
			if got[n] != goodVals[n] {
				t.Fatalf("trial %d: fault-free event delta diverged at node %d", trial, n)
			}
		}
	}
}

// eventFuzzBench mixes arities 1-4 over reconvergent FF fanout so the
// fuzzer exercises every packed-LUT width and the cone boundary.
const eventFuzzBench = `
INPUT(a)
INPUT(b)
OUTPUT(o1)
OUTPUT(o2)
q1 = DFF(d1)
q2 = DFF(d2)
n1 = NOT(q1)
w3 = AND(a, b, q1)
w4 = NOR(a, b, q1, q2)
d1 = XOR(n1, w4)
d2 = OR(w3, q2)
o1 = NAND(w3, w4, d1, d2)
o2 = XNOR(q1, q2)
`

// FuzzEventSimFrameDelta decodes the fuzz input as a frame (pattern
// bits, present-state values, fault pick) and asserts the event-driven
// FrameDelta agrees with a full re-evaluation.
func FuzzEventSimFrameDelta(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{9, 0, 1, 2, 0, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := mustParse(t, "eventfuzz", eventFuzzBench)
		ev := New(c)
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		pat := make(Pattern, c.NumInputs())
		for i := range pat {
			pat[i] = logic.Val(at(i) % 3)
		}
		goodPS := make([]logic.Val, c.NumFFs())
		badPS := make([]logic.Val, c.NumFFs())
		for i := range goodPS {
			goodPS[i] = logic.Val(at(len(pat)+i) % 3)
			badPS[i] = logic.Val(at(len(pat)+len(goodPS)+i) % 3)
		}
		goodVals := make([]logic.Val, c.NumNodes())
		EvalFrame(c, pat, goodPS, nil, goodVals)
		faults := fault.List(c)
		fl := faults[int(at(len(pat)+2*len(goodPS)))%len(faults)]
		want := make([]logic.Val, c.NumNodes())
		EvalFrame(c, pat, badPS, &fl, want)
		got := ev.FrameDelta(pat, badPS, goodVals, &fl)
		for n := range want {
			if got[n] != want[n] {
				t.Fatalf("fault %s: node %s event=%v full=%v",
					fl.Name(c), c.NodeName(netlist.NodeID(n)), got[n], want[n])
			}
		}
	})
}
