package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// crossCheckBPResim drives every fault of the list through the engine's
// stages up to expansion and checks each expansion's resimulate verdict
// (256-lane vector passes, chunked above 256 sequences) against the
// serial dense reference resimulateRef, for both the proposed expansion
// and the portfolio retry's trivial one. One simulator serves the whole
// list, so its pooled region, lane scratch and seed sets are reused
// across faults of widely varying expansion shapes. It returns the
// largest sequence set resimulated.
func crossCheckBPResim(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config) (widest int) {
	t.Helper()
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range faults {
		bad, _, detected, err := s.runBad(f)
		if err != nil {
			t.Fatal(err)
		}
		if detected {
			continue
		}
		nsv, nout := s.profile(bad)
		if !conditionC(nsv, nout) {
			continue
		}
		pairs := s.collectPairs(&f, bad, nout)
		for pass, ps := range [][]pairInfo{pairs, s.trivialPairs(bad, nout)} {
			var out FaultOutcome
			seqs, marks := s.expand(ps, bad, nsv, nout, &out)
			widest = max(widest, len(seqs))
			refSeqs := make([]*sequence, len(seqs))
			for k, sq := range seqs {
				refSeqs[k] = &sequence{states: cloneStates(sq.states)}
			}
			got := s.resimulate(&f, bad, seqs, marks)
			if want := s.resimulateRef(&f, refSeqs, marks); got != want {
				t.Fatalf("fault %s expansion %d (%d sequences): resimulate = %v, serial reference = %v",
					f.Name(c), pass, len(seqs), got, want)
			}
			s.releaseSeqs(seqs)
		}
	}
	return widest
}

func TestBPResimCrossCheckS27(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	crossCheckBPResim(t, c, T, fault.CollapsedList(c), DefaultConfig())
}

func TestBPResimCrossCheckSynthetic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *netlist.Circuit
	}{
		{"fig4", circuits.Fig4},
		{"intro", circuits.Intro},
		{"table1", circuits.Table1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			T := tgen.Random(c.NumInputs(), 16, 11)
			crossCheckBPResim(t, c, T, fault.CollapsedList(c), DefaultConfig())
		})
	}
}

// TestBPResimCrossCheckLongList covers the uncollapsed sg208 list: one
// simulator's pooled region, lane scratch and seed sets serve hundreds
// of consecutive faults with widely varying expansion shapes.
func TestBPResimCrossCheckLongList(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	faults := fault.List(c)
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	crossCheckBPResim(t, c, T, faults, DefaultConfig())
}

// TestBPResimCrossCheckVariants sweeps the configuration axes that
// change what reaches resimulation: the [4] baseline (no implication
// pruning, more surviving sequences), deep backward implications, the
// fixpoint schedule, a tight pair cap, a small sequence budget, and the
// prescreen off.
func TestBPResimCrossCheckVariants(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	faults := fault.CollapsedList(c)
	variants := map[string]func(*Config){
		"baseline":     func(cfg *Config) { cfg.UseBackwardImplications = false },
		"deep2":        func(cfg *Config) { cfg.BackwardDepth = 2 },
		"deep4":        func(cfg *Config) { cfg.BackwardDepth = 4 },
		"fixpoint":     func(cfg *Config) { cfg.Schedule = Fixpoint },
		"maxpairs4":    func(cfg *Config) { cfg.MaxPairs = 4 },
		"nstates2":     func(cfg *Config) { cfg.NStates = 2 },
		"no-prescreen": func(cfg *Config) { cfg.Prescreen = false },
	}
	for name, tweak := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			tweak(&cfg)
			crossCheckBPResim(t, c, T, faults, cfg)
		})
	}
}

// TestBPResimCrossCheckChunkedLongList raises N_STATES to 512 on the
// uncollapsed sg208 list, so expansions wider than one 256-lane word
// resimulate as successive chunks, and checks them against the serial
// reference.
func TestBPResimCrossCheckChunkedLongList(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	cfg := DefaultConfig()
	cfg.NStates = 512
	if widest := crossCheckBPResim(t, c, T, fault.List(c), cfg); widest <= cir.Lanes4 {
		t.Fatalf("widest sequence set %d fits one %d-lane word; no chunked replay exercised", widest, cir.Lanes4)
	}
}

// fuzzResimBench adds a reconvergent output so region frontiers carry
// fault-free values into live gates.
const fuzzResimBench = `
INPUT(a)
OUTPUT(o1)
OUTPUT(o2)
OUTPUT(o3)
q1 = DFF(d1)
q2 = DFF(d2)
d1 = NOT(q1)
d2 = XOR(q2, a)
o1 = AND(a, q1)
o2 = AND(a, q2)
o3 = OR(q1, q2)
`

// FuzzResimCrossCheck drives hand-built divergent expansion sets
// through resimulate and the serial reference and asserts they agree. The fuzz
// input is decoded as (time unit, state variable, value) triples under
// the expand invariants: assignments are binary, land at time units
// below L, and mark the unit they write.
func FuzzResimCrossCheck(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1})
	f.Add([]byte{2, 0, 0, 1, 9, 1, 1, 0})
	f.Add([]byte{3, 4, 0, 1, 5, 1, 0, 255, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c, err := bench.ParseString("fuzzresim", fuzzResimBench)
		if err != nil {
			t.Fatal(err)
		}
		const L = 4
		T := make(seqsim.Sequence, L)
		for u := range T {
			T[u] = seqsim.Pattern{logic.FromBool(u%2 == 0)}
		}
		s, err := NewSimulator(c, T, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		a, _ := c.NodeByName("a")
		fl := fault.Fault{Node: a, Gate: netlist.NoGate, Stuck: logic.One}
		bad, _, _, err := s.sim.RunFault(T, s.good, fl, true)
		if err != nil {
			t.Fatal(err)
		}
		nFF := c.NumFFs()
		n := 1 + int(data[0])%4
		data = data[1:]
		seqs := make([]*sequence, n)
		for k := range seqs {
			seqs[k] = &sequence{states: cloneStates(bad.States)}
		}
		marks := make([]bool, L+1)
		for i := 0; i+2 < len(data); i += 3 {
			u := int(data[i]) % L
			j := int(data[i+1]) % nFF
			v := logic.FromBool(data[i+2]%2 == 1)
			sq := seqs[(i/3)%n]
			sq.states[u][j] = v
			marks[u] = true
		}
		testResimulate(t, s, &fl, bad, seqs, marks)
	})
}
