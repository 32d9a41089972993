package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/tgen"
)

// outcomeDigest hashes every FaultOutcome field of a run, one line per
// fault in list order (the same shape as motbench's digest).
func outcomeDigest(outs []FaultOutcome) string {
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

// TestGoldenDigestParallel pins the per-fault outcomes of whole-list runs
// on suite circuits (collapsed faults, random length-144 sequence, seed
// 1, as `motfsim -circuit X -random 144`). The nstates-512 case replays
// sequence sets wider than one 256-lane resimulation word. Each case is
// checked through both Run and RunParallel(4).
func TestGoldenDigestParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-list runs")
	}
	cases := []struct {
		circuit string
		cfg     func() Config
		nstates int
		want    string
	}{
		{"sg298", DefaultConfig, 0, "a5a4d59e24f0e3c9ebaf67877a47293d"},
		{"sg298", BaselineConfig, 0, "e95a1552cb1702880bfc62e84c57309d"},
		{"sg298", DefaultConfig, 512, "6d8e0b3d7fadcc6fb48738999e04f274"},
		{"sg641", DefaultConfig, 0, "4c3a86364d20a88b490e5c460f45b37a"},
		{"sg641", BaselineConfig, 0, "759713c04cb1b312a3c1e9b557dd8094"},
	}
	for _, tc := range cases {
		cfg := tc.cfg()
		if tc.nstates > 0 {
			cfg.NStates = tc.nstates
		}
		name := fmt.Sprintf("%s/backward=%t/nstates=%d", tc.circuit, cfg.UseBackwardImplications, cfg.NStates)
		t.Run(name, func(t *testing.T) {
			c, err := circuits.ByName(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			T := tgen.Random(c.NumInputs(), 144, 1)
			faults := fault.CollapsedList(c)
			for _, workers := range []int{0, 4} {
				s, err := NewSimulator(c, T, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var res *Result
				if workers == 0 {
					res, err = s.Run(faults, nil)
				} else {
					res, err = s.RunParallel(faults, workers, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := outcomeDigest(res.Outcomes); got != tc.want {
					t.Errorf("workers=%d: digest %s, want %s", workers, got, tc.want)
				}
			}
		})
	}
}
