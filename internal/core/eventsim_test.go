package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// crossCheckEventSim checks step 0 of every fault — the engine's
// event-driven faulty-frame evaluation over the fault's cone, into the
// pooled trace — against the full-pass evaluator: identical detection,
// and identical states, outputs and (when kept) node rows up to the
// detection frame. It then checks the whole pipeline against the
// reference pipeline (crossCheckReference), serially and through
// RunParallel (per-worker EventEval scratch and schedule binding).
func crossCheckEventSim(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config) {
	t.Helper()
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := seqsim.NewFullPass(c)
	for _, f := range faults {
		got, gotAt, gotDet, err := s.runBad(f)
		if err != nil {
			t.Fatal(err)
		}
		want, wantAt, wantDet, err := full.RunFault(T, s.good, f, cfg.UseBackwardImplications)
		if err != nil {
			t.Fatal(err)
		}
		if gotDet != wantDet || gotAt != wantAt {
			t.Fatalf("fault %s: detection (%v,%+v), full pass (%v,%+v)", f.Name(c), gotDet, gotAt, wantDet, wantAt)
		}
		if !reflect.DeepEqual(got.States, want.States) || !reflect.DeepEqual(got.Outputs, want.Outputs) ||
			!reflect.DeepEqual(got.Nodes, want.Nodes) {
			t.Fatalf("fault %s: step-0 trace differs from the full pass", f.Name(c))
		}
	}
	crossCheckReference(t, c, T, faults, cfg)
}

func TestEventSimCrossCheckS27(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	crossCheckEventSim(t, c, T, fault.CollapsedList(c), DefaultConfig())
}

func TestEventSimCrossCheckSynthetic(t *testing.T) {
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
			crossCheckEventSim(t, c, T, fault.CollapsedList(c), DefaultConfig())
		})
	}
}

// TestEventSimCrossCheckLongList covers the uncollapsed sg208 list: one
// simulator's event scratch, cone schedules and epoch stamps serve
// hundreds of consecutive faults, crossing the uint32 epoch reuse path
// many times over.
func TestEventSimCrossCheckLongList(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	faults := fault.List(c)
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	crossCheckEventSim(t, c, T, faults, DefaultConfig())
}

// TestEventSimCrossCheckVariants sweeps the configuration axes that
// change which frames the evaluator sees and what the pipeline does with
// them: the [4] baseline (no node rows kept), deep backward
// implications, the fixpoint schedule, tight pair and sequence budgets,
// and the prescreen off (conventionally detected faults run the
// per-fault pipeline too).
func TestEventSimCrossCheckVariants(t *testing.T) {
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
			crossCheckEventSim(t, c, T, faults, cfg)
		})
	}
}

// TestEventSimTraceCrossCheck checks the per-fault step-0 counters in
// the JSONL trace against the full-pass reference: every fault that
// entered the per-fault pipeline reports one sparse frame per frame
// step 0 simulated (through its detection frame, or the whole sequence),
// and the trace is byte-identical between 1 and 4 workers.
func TestEventSimTraceCrossCheck(t *testing.T) {
	c, T, faults := statsSetup(t)
	cfg := DefaultConfig()
	cfg.Prescreen = false // every fault runs step 0
	tr1, _ := traceRun(t, c, T, faults, cfg, 1)
	tr4, _ := traceRun(t, c, T, faults, cfg, 4)
	if tr1 != tr4 {
		t.Fatalf("trace differs between 1 and 4 workers:\n--- 1 ---\n%s\n--- 4 ---\n%s", tr1, tr4)
	}
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := seqsim.NewFullPass(c)
	lines := strings.Split(strings.TrimRight(tr1, "\n"), "\n")
	for i, line := range lines {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		bad, _, _, err := full.RunFault(T, s.good, faults[i], false)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Sim == nil || ev.Sim.Frames != int64(len(bad.Outputs)) {
			t.Fatalf("fault %s: trace sim %+v, want %d step-0 frames", ev.Fault, ev.Sim, len(bad.Outputs))
		}
	}
}

// FuzzEventSimCrossCheck drives random short fault lists and pattern
// sequences through whole runs and asserts the outcomes equal the
// reference pipeline's (full-pass step 0, reference collection and
// serial resimulation). The fuzz input picks the pattern seed, the
// sequence length, N_STATES and which collapsed faults to simulate.
func FuzzEventSimCrossCheck(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{7, 0, 255, 16, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c, err := bench.ParseString("fuzzevent", fuzzResimBench)
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(data[0])
		L := 2 + int(data[0])%6
		T := tgen.Random(c.NumInputs(), L, seed)
		all := fault.CollapsedList(c)
		var faults []fault.Fault
		for i, b := range data[1:] {
			if i >= 8 {
				break
			}
			faults = append(faults, all[int(b)%len(all)])
		}
		if len(faults) == 0 {
			faults = all
		}
		cfg := DefaultConfig()
		if len(data) > 1 && data[1]%2 == 1 {
			cfg.NStates = 2
		}
		crossCheckReference(t, c, T, faults, cfg)
	})
}

// TestEventSimLiveCounters asserts the live snapshot carries the event
// counters and agrees between worker counts.
func TestEventSimLiveCounters(t *testing.T) {
	c, T, faults := statsSetup(t)
	run := func(workers int) *LiveSnapshot {
		live := &LiveStats{}
		cfg := DefaultConfig()
		cfg.Live = live
		s, err := NewSimulator(c, T, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			_, err = s.Run(faults, nil)
		} else {
			_, err = s.RunParallel(faults, workers, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		snap := live.Snapshot()
		return &snap
	}
	on := run(1)
	if on.EventFrames == 0 || on.EventGateEvals == 0 || on.Events == 0 {
		t.Errorf("event-driven live counters empty: %+v", on)
	}
	par := run(8)
	if par.EventFrames != on.EventFrames || par.EventGateEvals != on.EventGateEvals || par.Events != on.Events {
		t.Errorf("live event counters differ between 1 and 8 workers:\n  1: %+v\n  8: %+v", on, par)
	}
}
