package core

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// collectSetup builds an sg298 simulator and picks the undetected fault
// with the most candidate pairs, so the benchmark exercises a realistic
// pair-collection workload (many pairs across several time units).
func collectSetup(b *testing.B) (*Simulator, fault.Fault, *seqsim.Trace, []int) {
	b.Helper()
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var (
		bestFault fault.Fault
		bestBad   *seqsim.Trace
		bestNout  []int
		bestPairs = -1
	)
	for _, f := range fault.CollapsedList(c) {
		bad, _, detected, err := s.sim.RunFault(s.T, s.good, f, true)
		if err != nil {
			b.Fatal(err)
		}
		if detected {
			continue
		}
		nsv, nout := s.profile(bad)
		if !conditionC(nsv, nout) {
			continue
		}
		if n := len(s.collectPairs(&f, bad, nout)); n > bestPairs {
			bestFault, bestBad, bestNout, bestPairs = f, bad, nout, n
		}
	}
	if bestPairs < 8 {
		b.Fatalf("no fault with enough pairs found (best %d)", bestPairs)
	}
	return s, bestFault, bestBad, bestNout
}

// BenchmarkCollectPairs measures the pooled/trail pair-collection path:
// one frame per time unit restored by trail undo, arena-backed pair data.
func BenchmarkCollectPairs(b *testing.B) {
	s, f, bad, nout := collectSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := s.collectPairs(&f, bad, nout)
		if len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkSimulateList measures the whole per-fault MOT pipeline
// (without the bit-parallel prescreen) over the collapsed fault list.
func BenchmarkSimulateList(b *testing.B) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	cfg := DefaultConfig()
	cfg.Prescreen = false
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.CollapsedList(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(faults, nil); err != nil {
			b.Fatal(err)
		}
	}
}
