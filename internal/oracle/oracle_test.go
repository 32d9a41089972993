package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

func introOracle(t *testing.T) (*Oracle, *netlist.Circuit, fault.Fault) {
	t.Helper()
	c := circuits.Intro()
	T := seqsim.Sequence{{logic.Zero}, {logic.Zero}, {logic.Zero}}
	o, err := New(c, T)
	if err != nil {
		t.Fatal(err)
	}
	node, gate := circuits.IntroFault(c)
	return o, c, fault.Fault{Node: node, Gate: gate, Pin: 0, Stuck: logic.One}
}

func TestIntroVerdicts(t *testing.T) {
	o, _, f := introOracle(t)
	v, err := o.Decide(f)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conventional {
		t.Error("intro fault must not be conventionally detected")
	}
	if !v.RestrictedMOT {
		t.Error("intro fault must be restricted-MOT detectable")
	}
	if !v.FullMOT {
		t.Error("restricted-MOT detectability implies full-MOT detectability")
	}
}

func TestFFLimit(t *testing.T) {
	b := netlist.NewBuilder("big")
	a := b.Input("a")
	for i := 0; i < MaxFFs+1; i++ {
		q := b.FlipFlop(fmt.Sprintf("q%d", i), b.Signal(fmt.Sprintf("d%d", i)))
		b.Gate(logic.And, fmt.Sprintf("d%d", i), a, q)
	}
	b.GateNamed(logic.Buf, "o", "q0")
	b.Output("o")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(c, seqsim.Sequence{{logic.One}}); err == nil {
		t.Fatal("oracle accepted a circuit over the FF limit")
	}
}

func TestHierarchy(t *testing.T) {
	// Conventional implies restricted MOT implies full MOT, on an
	// assortment of random circuits and faults.
	rng := rand.New(rand.NewSource(13))
	trials := 0
	for trials < 12 {
		c, err := randomCircuit(rng, 2, 3, 8+rng.Intn(10))
		if err != nil {
			continue
		}
		trials++
		T := randomSequence(rng, c.NumInputs(), 5)
		o, err := New(c, T)
		if err != nil {
			t.Fatal(err)
		}
		counts, verdicts, err := o.DecideAll(fault.CollapsedList(c))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range verdicts {
			if v.Conventional && !v.RestrictedMOT {
				t.Fatalf("fault %d: conventional but not restricted-MOT", k)
			}
			if v.RestrictedMOT && !v.FullMOT {
				t.Fatalf("fault %d: restricted-MOT but not full-MOT", k)
			}
		}
		if counts.Conventional > counts.RestrictedMOT || counts.RestrictedMOT > counts.FullMOT {
			t.Fatalf("count hierarchy violated: %+v", counts)
		}
	}
}

// TestSimulatorNeverExceedsOracle is the completeness-side cross-check of
// the whole system: the MOT procedure must never claim a detection the
// restricted-MOT oracle denies (soundness), and conventional counts must
// agree exactly.
func TestSimulatorNeverExceedsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	trials := 0
	for trials < 12 {
		c, err := randomCircuit(rng, 2, 4, 10+rng.Intn(12))
		if err != nil {
			continue
		}
		trials++
		T := randomSequence(rng, c.NumInputs(), 6)
		o, err := New(c, T)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.CollapsedList(c)
		sim, err := core.NewSimulator(c, T, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faults {
			v, err := o.Decide(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.SimulateFault(f)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == core.DetectedConventional && !v.Conventional {
				t.Fatalf("fault %s: simulator says conventional, oracle denies", f.Name(c))
			}
			if res.Outcome == core.DetectedMOT && !v.RestrictedMOT {
				t.Fatalf("fault %s: simulator says MOT-detected, oracle denies", f.Name(c))
			}
			if v.Conventional && res.Outcome == core.Undetected {
				t.Fatalf("fault %s: oracle says conventional, simulator missed it", f.Name(c))
			}
		}
	}
}

// fuzzMaxFFs caps the fuzzed flip-flop count well below MaxFFs: the
// oracle enumerates 2^FFs initial states per fault, and each fuzz input
// must stay fast.
const fuzzMaxFFs = 5

// fuzzCircuit decodes data into a random sequential netlist and test
// sequence: sizes from the first bytes, then one (op, arity, fanins)
// record per gate drawn from the nodes built so far, then the pattern
// bits. Missing bytes read as zero.
func fuzzCircuit(data []byte) (*netlist.Circuit, seqsim.Sequence, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nPI, nFF := 1+next()%3, 1+next()%min(fuzzMaxFFs, MaxFFs)
	nGates, L := nFF+2+next()%12, 2+next()%6
	b := netlist.NewBuilder("fuzz")
	var pool []netlist.NodeID
	for i := 0; i < nPI; i++ {
		pool = append(pool, b.Input(fmt.Sprintf("i%d", i)))
	}
	for i := 0; i < nFF; i++ {
		pool = append(pool, b.FlipFlop(fmt.Sprintf("q%d", i), b.Signal(fmt.Sprintf("d%d", i))))
	}
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf}
	for i := 0; i < nGates; i++ {
		op := ops[next()%len(ops)]
		n := 1
		if op != logic.Not && op != logic.Buf {
			n = 2 + next()%3
		}
		ins := make([]netlist.NodeID, n)
		for j := range ins {
			ins[j] = pool[next()%len(pool)]
		}
		name := fmt.Sprintf("g%d", i)
		if i < nFF {
			name = fmt.Sprintf("d%d", i)
		}
		pool = append(pool, b.Gate(op, name, ins...))
	}
	b.Output(fmt.Sprintf("g%d", nGates-1))
	b.Output(fmt.Sprintf("g%d", nGates-2))
	c, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	T := make(seqsim.Sequence, L)
	for u := range T {
		bits := next()
		T[u] = make(seqsim.Pattern, nPI)
		for i := range T[u] {
			T[u][i] = logic.FromBool(bits>>i&1 == 1)
		}
	}
	return c, T, nil
}

// FuzzMOTNeverExceedsOracle runs random small-FF netlists through Run
// and RunParallel under the Default and Baseline configurations and
// asserts, per fault, conventional detections (bitsim) ⊆ MOT detections
// ⊆ the oracle's restricted-MOT detectable set, with identical outcomes
// from both run modes.
func FuzzMOTNeverExceedsOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 4, 9, 5, 0, 1, 3, 7, 2, 6, 1, 4, 5, 0, 3, 2, 8, 1, 9, 255, 0, 170, 85})
	f.Add([]byte{0, 3, 11, 3, 6, 0, 4, 2, 2, 5, 7, 1, 3, 4, 1, 2, 6, 3, 0, 5, 7, 1, 2, 3, 129, 66})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, T, err := fuzzCircuit(data)
		if err != nil {
			return // not every wiring builds a valid netlist
		}
		o, err := New(c, T)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.CollapsedList(c)
		_, verdicts, err := o.DecideAll(faults)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := bitsim.Run(c, T, faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []core.Config{core.DefaultConfig(), core.BaselineConfig()} {
			sim, err := core.NewSimulator(c, T, cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := sim.Run(faults, nil)
			if err != nil {
				t.Fatal(err)
			}
			par, err := sim.RunParallel(faults, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k, fl := range faults {
				got := serial.Outcomes[k]
				if par.Outcomes[k] != got {
					t.Fatalf("fault %s: RunParallel %+v, Run %+v", fl.Name(c), par.Outcomes[k], got)
				}
				if conv[k].Detected && !got.Outcome.Detected() {
					t.Fatalf("fault %s: conventionally detected, MOT run says %v", fl.Name(c), got.Outcome)
				}
				if got.Outcome.Detected() && !verdicts[k].RestrictedMOT {
					t.Fatalf("fault %s (backward=%t): run says %v, oracle denies restricted-MOT detection",
						fl.Name(c), cfg.UseBackwardImplications, got.Outcome)
				}
			}
		}
	})
}

func TestRespondWidthCheck(t *testing.T) {
	c, err := bench.ParseString("w", "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(c, seqsim.Sequence{{logic.One}}); err == nil {
		t.Fatal("narrow pattern accepted")
	}
}

// --- helpers shared with other packages' tests ---

func randomCircuit(rng *rand.Rand, nPI, nFF, nGates int) (*netlist.Circuit, error) {
	b := netlist.NewBuilder("rand")
	var pool []netlist.NodeID
	for i := 0; i < nPI; i++ {
		pool = append(pool, b.Input(fmt.Sprintf("i%d", i)))
	}
	for i := 0; i < nFF; i++ {
		pool = append(pool, b.FlipFlop(fmt.Sprintf("q%d", i), b.Signal(fmt.Sprintf("d%d", i))))
	}
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not}
	for i := 0; i < nGates; i++ {
		op := ops[rng.Intn(len(ops))]
		n := 1
		if op != logic.Not {
			n = 2 + rng.Intn(2)
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
	for i := 0; i < 2 && i < nGates-nFF; i++ {
		b.Output(fmt.Sprintf("g%d", nGates-1-i))
	}
	return b.Build()
}

func randomSequence(rng *rand.Rand, width, length int) seqsim.Sequence {
	T := make(seqsim.Sequence, length)
	for u := range T {
		p := make(seqsim.Pattern, width)
		for i := range p {
			p[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		T[u] = p
	}
	return T
}
