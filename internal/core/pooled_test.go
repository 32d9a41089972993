package core

import (
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// crossCheckPooled checks the pooled/trail pair collection pair by pair
// against the allocate-per-pair reference (collectPairsRef) for every
// fault that reaches Section 3.1, then the whole pipeline against the
// reference pipeline (crossCheckReference). The pooled path runs serially
// (one simulator reusing its pools across the whole list) and in
// parallel (per-worker pools).
func crossCheckPooled(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config) {
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
		want := s.collectPairsRef(&f, bad, nout)
		got := s.collectPairs(&f, bad, nout)
		if len(got) != len(want) {
			t.Fatalf("fault %s: %d pooled pairs, reference %d", f.Name(c), len(got), len(want))
		}
		for k := range got {
			if !reflect.DeepEqual(normPair(got[k]), normPair(want[k])) {
				t.Fatalf("fault %s pair %d differs from reference:\n  pooled: %+v\n  ref:    %+v",
					f.Name(c), k, got[k], want[k])
			}
		}
	}
	crossCheckReference(t, c, T, faults, cfg)
}

// normPair maps empty slices to nil so arena-backed and freshly
// allocated pairs compare equal under reflect.DeepEqual.
func normPair(p pairInfo) pairInfo {
	for a := range p.extra {
		if len(p.extra[a]) == 0 {
			p.extra[a] = nil
		}
	}
	if len(p.sv) == 0 {
		p.sv = nil
	}
	return p
}

func TestPooledCrossCheckS27(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	crossCheckPooled(t, c, T, fault.CollapsedList(c), DefaultConfig())
}

func TestPooledCrossCheckSynthetic(t *testing.T) {
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
			crossCheckPooled(t, c, T, fault.CollapsedList(c), DefaultConfig())
		})
	}
}

// TestPooledCrossCheckLongList covers a fault list well beyond 64 faults
// (the uncollapsed sg208 list), so one simulator's pools serve hundreds of
// consecutive faults, including the frame-cache reuse across time units
// and the sequence free-list cycling through the portfolio retry.
func TestPooledCrossCheckLongList(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	faults := fault.List(c)
	if len(faults) <= 64 {
		t.Fatalf("fault list too short: %d", len(faults))
	}
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	crossCheckPooled(t, c, T, faults, DefaultConfig())
}

// TestPooledCrossCheckVariants sweeps the configuration axes that steer
// the pooled code down different paths: the [4] baseline (pooled trivial
// pairs only), deep backward implications (the level-indexed frame pool),
// the fixpoint schedule, a tight pair cap, and identification-only mode.
func TestPooledCrossCheckVariants(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	faults := fault.CollapsedList(c)
	variants := map[string]func(*Config){
		"baseline":     func(cfg *Config) { cfg.UseBackwardImplications = false },
		"deep2":        func(cfg *Config) { cfg.BackwardDepth = 2 },
		"deep4":        func(cfg *Config) { cfg.BackwardDepth = 4 },
		"fixpoint":     func(cfg *Config) { cfg.Schedule = Fixpoint },
		"maxpairs4":    func(cfg *Config) { cfg.MaxPairs = 4 },
		"identifyonly": func(cfg *Config) { cfg.IdentificationOnly = true },
		"nstates8":     func(cfg *Config) { cfg.NStates = 8 },
		"no-prescreen": func(cfg *Config) { cfg.Prescreen = false },
	}
	for name, tweak := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			tweak(&cfg)
			crossCheckPooled(t, c, T, faults, cfg)
		})
	}
}

// TestParallelPooledIsolation runs a larger parallel job twice on the same
// simulator and asserts run-to-run determinism — with shared pools a data
// race would corrupt outcomes. Run under -race this is the pooled-path
// race test required by the verify recipe.
func TestParallelPooledIsolation(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	faults := fault.CollapsedList(c)
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.RunParallel(faults, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunParallel(faults, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range first.Outcomes {
		if first.Outcomes[k] != second.Outcomes[k] {
			t.Fatalf("fault %s: run-to-run mismatch:\n  first:  %+v\n  second: %+v",
				faults[k].Name(c), first.Outcomes[k], second.Outcomes[k])
		}
	}
}
