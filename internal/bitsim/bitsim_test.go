package bitsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

func TestVVHelpers(t *testing.T) {
	one := cir.Broadcast4(logic.One)
	zero := cir.Broadcast4(logic.Zero)
	x := cir.Broadcast4(logic.X)
	if one.Lane(0) != logic.One || zero.Lane(Lanes-1) != logic.Zero || x.Lane(5) != logic.X {
		t.Fatal("broadcast/lane wrong")
	}
	if one.Not().Lane(3) != logic.Zero {
		t.Fatal("not wrong")
	}
	fold := func(op logic.Op, a, b VV) logic.Val { return cir.EvalOpVV4(op, []VV{a, b}).Lane(0) }
	if fold(logic.And, one, x) != logic.X || fold(logic.And, zero, x) != logic.Zero {
		t.Fatal("and three-valued semantics wrong")
	}
	if fold(logic.Or, one, x) != logic.One || fold(logic.Or, zero, x) != logic.X {
		t.Fatal("or three-valued semantics wrong")
	}
	if fold(logic.Xor, one, x) != logic.X || fold(logic.Xor, one, zero) != logic.One {
		t.Fatal("xor three-valued semantics wrong")
	}
}

func TestBatchTooLarge(t *testing.T) {
	c := circuits.S27()
	faults := make([]fault.Fault, Lanes)
	if _, err := newBatch(c, faults); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestPatternWidthChecked(t *testing.T) {
	c := circuits.S27()
	T := seqsim.Sequence{{logic.One}}
	if _, err := Run(c, T, fault.CollapsedList(c)); err == nil {
		t.Fatal("narrow pattern accepted")
	}
}

// gateEvalReference cross-checks evalGate against logic.Eval lane by lane
// for random VV inputs.
func TestGateEvalMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf}
	for trial := 0; trial < 200; trial++ {
		op := ops[rng.Intn(len(ops))]
		n := 1
		if op != logic.Not && op != logic.Buf {
			n = 2 + rng.Intn(3)
		}
		// Build a tiny circuit with one gate.
		b := netlist.NewBuilder("g1")
		ins := make([]netlist.NodeID, n)
		for i := range ins {
			ins[i] = b.Input(fmt.Sprintf("i%d", i))
		}
		b.Gate(op, "y", ins...)
		b.Output("y")
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		bt, err := newBatch(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Random lane values per input.
		scalar := make([][]logic.Val, n)
		for i := range ins {
			scalar[i] = make([]logic.Val, Lanes)
			var vv VV
			for k := 0; k < Lanes; k++ {
				v := logic.Val(rng.Intn(3))
				scalar[i][k] = v
				vv.SetLane(uint(k), v)
			}
			bt.vals[ins[i]] = vv
		}
		out := bt.evalGate(0)
		in := make([]logic.Val, n)
		for k := 0; k < Lanes; k++ {
			for i := range in {
				in[i] = scalar[i][k]
			}
			want := logic.Eval(op, in)
			if got := out.Lane(uint(k)); got != want {
				t.Fatalf("op %v lane %d: got %v, want %v (inputs %v)", op, k, got, want, in)
			}
		}
	}
}

// randomCircuit mirrors the helper used across packages.
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

// TestRunMatchesSerial is the central property: bit-parallel results must
// equal the serial simulator's fault by fault, including detection sites.
func TestRunMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 0
	for trials < 20 {
		c, err := randomCircuit(rng, 3, 4, 10+rng.Intn(25))
		if err != nil {
			continue
		}
		trials++
		T := make(seqsim.Sequence, 8)
		for u := range T {
			p := make(seqsim.Pattern, c.NumInputs())
			for i := range p {
				p[i] = logic.FromBool(rng.Intn(2) == 1)
			}
			T[u] = p
		}
		faults := fault.List(c) // full list: exercises branch faults too
		fast, err := Run(c, T, faults)
		if err != nil {
			t.Fatal(err)
		}
		s := seqsim.New(c)
		good, err := s.Run(T, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := s.RunFaults(T, good, faults)
		if err != nil {
			t.Fatal(err)
		}
		for k := range faults {
			if fast[k].Detected != slow[k].Detected {
				t.Fatalf("trial %d fault %s: bitsim detected=%v serial=%v",
					trials, faults[k].Name(c), fast[k].Detected, slow[k].Detected)
			}
			if fast[k].Detected && fast[k].At != slow[k].At {
				t.Fatalf("trial %d fault %s: bitsim at %+v serial at %+v",
					trials, faults[k].Name(c), fast[k].At, slow[k].At)
			}
		}
	}
}

func TestRunS27AllFaults(t *testing.T) {
	c := circuits.S27()
	T := make(seqsim.Sequence, 40)
	rng := rand.New(rand.NewSource(9))
	for u := range T {
		p := make(seqsim.Pattern, 4)
		for i := range p {
			p[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		T[u] = p
	}
	faults := fault.List(c)
	fast, err := Run(c, T, faults)
	if err != nil {
		t.Fatal(err)
	}
	s := seqsim.New(c)
	good, _ := s.Run(T, nil, true)
	slow, err := s.RunFaults(T, good, faults)
	if err != nil {
		t.Fatal(err)
	}
	for k := range faults {
		if fast[k].Detected != slow[k].Detected {
			t.Fatalf("fault %s differs", faults[k].Name(c))
		}
	}
}

// TestManyBatches covers the multi-batch path (more than 255 faults).
func TestManyBatches(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
	prev := "a"
	for i := 0; i < 120; i++ {
		src += fmt.Sprintf("n%d = XOR(%s, b)\n", i, prev)
		prev = fmt.Sprintf("n%d", i)
	}
	src += fmt.Sprintf("y = BUFF(%s)\n", prev)
	c, err := bench.ParseString("chain", src)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.List(c)
	if len(faults) <= Lanes {
		t.Fatalf("need more than %d faults, got %d", Lanes, len(faults))
	}
	T := seqsim.Sequence{{logic.One, logic.Zero}, {logic.Zero, logic.One}, {logic.One, logic.One}}
	fast, err := Run(c, T, faults)
	if err != nil {
		t.Fatal(err)
	}
	s := seqsim.New(c)
	good, _ := s.Run(T, nil, true)
	slow, err := s.RunFaults(T, good, faults)
	if err != nil {
		t.Fatal(err)
	}
	for k := range faults {
		if fast[k].Detected != slow[k].Detected || (fast[k].Detected && fast[k].At != slow[k].At) {
			t.Fatalf("fault %s differs across batches", faults[k].Name(c))
		}
	}
}

func TestBatches(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 255: 1, 256: 2, 510: 2, 511: 3}
	for n, want := range cases {
		if got := Batches(n); got != want {
			t.Errorf("Batches(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestRunParallelMatchesRun checks the sharded batch runner against the
// serial batch loop on a multi-batch fault list.
func TestRunParallelMatchesRun(t *testing.T) {
	c := circuits.S27()
	T := make(seqsim.Sequence, 24)
	rng := rand.New(rand.NewSource(41))
	for u := range T {
		p := make(seqsim.Pattern, 4)
		for i := range p {
			p[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		T[u] = p
	}
	// Repeat the full list so several batches are needed.
	var faults []fault.Fault
	for i := 0; i < 16; i++ {
		faults = append(faults, fault.List(c)...)
	}
	if Batches(len(faults)) < 2 {
		t.Fatalf("need at least 2 batches, got %d", Batches(len(faults)))
	}
	serial, err := Run(c, T, faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		par, err := RunParallel(c, T, faults, workers)
		if err != nil {
			t.Fatal(err)
		}
		for k := range faults {
			if par[k] != serial[k] {
				t.Fatalf("workers=%d fault %d: parallel %+v != serial %+v",
					workers, k, par[k], serial[k])
			}
		}
	}
	// Errors propagate out of the pool.
	bad := append(seqsim.Sequence{}, T...)
	bad[len(bad)-1] = bad[len(bad)-1][:2]
	if _, err := RunParallel(c, bad, faults, 4); err == nil {
		t.Fatal("broken sequence not reported")
	}
}
