package core

// Bit-parallel resimulation of expanded state sequences (Section 3.4).
//
// The expanded sequences of one fault differ only in a handful of
// injected state-variable values, so resimulating them one at a time
// would repeat almost all of the work. Instead every sequence rides one
// lane of a 256-lane cir.VV4 word: lane k carries sequence k's state
// values, and one vector pass over the fault's region evaluates every
// sequence at once. Per-lane bit masks replace the per-sequence control
// flow of Section 3.4 (marked time units, detection, infeasibility
// conflicts); the tests check the pass lane-for-lane against a serial
// dense-EvalFrame reference.
//
// The pass is confined to the fault's *region* (cir.Region): the
// sequential fanout closure of the fault site plus the Q nodes of every
// state variable the expansion assigned. Values outside the region
// never diverge from the retained fault-free trace — expansion assigns
// only state variables (whose Q nodes seed the closure), dynamic
// refinements land only on flip-flops whose D node is inside the
// region (so their Q is too, by the closure), and the region contains
// the fault's active cone — so frontier nodes are broadcast from
// good.Nodes, detection scans region outputs only, and next-state
// comparison visits region D nodes only. Each confinement is exact,
// not an approximation.

import (
	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/seqsim"
)

// laneMask is a 256-lane membership mask, one bit per packed sequence,
// mirroring the VV4 word layout.
type laneMask [4]uint64

// ResimTrace summarizes the resimulation passes of one fault for the
// JSONL trace: how many vector passes ran (one per expansion, or one per
// 256-lane chunk of a wider sequence set), the frames those passes
// evaluated, and the lanes they packed (summed over passes — the
// portfolio retry adds a second pass). All fields are deterministic for
// a given configuration.
type ResimTrace struct {
	VectorPasses int `json:"resim_vector_passes,omitempty"`
	VectorFrames int `json:"resim_vector_frames,omitempty"`
	Lanes        int `json:"resim_lanes,omitempty"`
}

// seedReset starts a new epoch of the expansion-assigned state-variable
// set (the region seeds). expand calls it once per invocation.
func (s *Simulator) seedReset() {
	if len(s.pools.seedStamp) != s.c.NumFFs() {
		s.pools.seedStamp = make([]int32, s.c.NumFFs())
		s.pools.seedGen = 0
	}
	s.pools.seedGen++
	if s.pools.seedGen <= 0 { // generation counter wrapped: restamp from 1
		for i := range s.pools.seedStamp {
			s.pools.seedStamp[i] = 0
		}
		s.pools.seedGen = 1
	}
	s.pools.seedFFs = s.pools.seedFFs[:0]
}

// seedAdd records state variable j as assigned by the current expand.
func (s *Simulator) seedAdd(j int) {
	if s.pools.seedStamp[j] != s.pools.seedGen {
		s.pools.seedStamp[j] = s.pools.seedGen
		s.pools.seedFFs = append(s.pools.seedFFs, int32(j))
	}
}

// resimRegion fills the pooled region for the current fault and seed
// set.
func (s *Simulator) resimRegion(f *fault.Fault) *cir.Region {
	if s.pools.region == nil {
		s.pools.region = s.cc.NewRegion()
	}
	s.cc.FillRegion(f, s.pools.seedFFs, s.pools.region)
	return s.pools.region
}

// vresimScratch returns the node-value vector, the (L+1) packed state
// rows of nq lane words each, and the per-frame lane-mark masks. None
// need clearing: every row and mask is fully initialized by the pack
// stage, and region evaluation writes every node it reads.
func (s *Simulator) vresimScratch(nq int) (vals []cir.VV4, state [][]cir.VV4, markRows []laneMask) {
	nNodes, rows := s.c.NumNodes(), len(s.T)+1
	need := rows * nq
	p := &s.pools
	if cap(p.vvVals) < nNodes {
		p.vvVals = make([]cir.VV4, nNodes)
	}
	if cap(p.vvFlat) < need {
		p.vvFlat = make([]cir.VV4, need)
	}
	flat := p.vvFlat[:need]
	if cap(p.vvState) < rows {
		p.vvState = make([][]cir.VV4, rows)
	}
	p.vvState = p.vvState[:rows]
	state = p.vvState
	for u := 0; u < rows; u++ {
		state[u] = flat[u*nq : (u+1)*nq : (u+1)*nq]
	}
	if cap(p.vvMarks) < rows {
		p.vvMarks = make([]laneMask, rows)
	}
	return p.vvVals[:nNodes], state, p.vvMarks[:rows]
}

// qPosScratch returns the FF-index -> region.QFFs-position map. Only
// entries for the current region's QFFs are filled; stale entries are
// never read (every lookup is for a flip-flop whose Q is in the region).
func (s *Simulator) qPosScratch() []int32 {
	if len(s.pools.qPos) != s.c.NumFFs() {
		s.pools.qPos = make([]int32, s.c.NumFFs())
	}
	return s.pools.qPos
}

// resimulateVV resimulates up to 256 sequences in one vector pass: every
// sequence occupies one lane, and each frame evaluates the fault's
// region once for all sequences. Caller guarantees len(seqs) <= 256 and
// that seqs came from the immediately preceding expand call (whose
// assigned state variables, still in pools.seedFFs, seed the region).
func (s *Simulator) resimulateVV(f *fault.Fault, bad *seqsim.Trace, seqs []*sequence, baseMarks []bool) bool {
	cc := s.cc
	L := len(s.T)
	n := len(seqs)
	reg := s.resimRegion(f)
	vals, state, markRows := s.vresimScratch(len(reg.QFFs))
	qPos := s.qPosScratch()
	for qi, j := range reg.QFFs {
		qPos[j] = int32(qi)
	}

	// all marks the occupied lanes. Only the first nw words hold any —
	// the default NStates cap of 64 fills exactly one — so every plane
	// loop below runs to nw, not 4. Words at and above nw hold stale
	// garbage from earlier passes; they are never read, because every
	// mask is a subset of all, which is zero there.
	const allBits = ^uint64(0)
	nw := (n + 63) >> 6
	var all laneMask
	for w := 0; w < 4; w++ {
		switch {
		case n >= (w+1)*64:
			all[w] = allBits
		case n > w*64:
			all[w] = 1<<uint(n-w*64) - 1
		}
	}

	// Pack. Every lane starts as the shared base (bad) trace; sequences
	// diverge from it only at marked time units on expansion-assigned
	// state variables (expand marks every unit it writes), so only those
	// cells are scanned for per-lane diffs. Each sequence's copy of
	// baseMarks becomes an all-lanes mask per marked unit.
	for u := 0; u <= L; u++ {
		row, badRow := state[u], bad.States[u]
		for qi, j := range reg.QFFs {
			var one, zero uint64
			switch badRow[j] {
			case logic.One:
				one = allBits
			case logic.Zero:
				zero = allBits
			}
			c := &row[qi]
			for w := 0; w < nw; w++ {
				c.One[w], c.Zero[w] = one, zero
			}
		}
		if baseMarks[u] {
			markRows[u] = all
		} else {
			markRows[u] = laneMask{}
		}
	}
	for k, sq := range seqs {
		for u := 0; u < L; u++ {
			if !baseMarks[u] {
				continue
			}
			row, badRow := sq.states[u], bad.States[u]
			for _, j := range s.pools.seedFFs {
				if v := row[j]; v != badRow[j] {
					state[u][qPos[j]].SetLane(uint(k), v)
				}
			}
		}
	}

	stem := f.IsStem()
	stuck := cir.Broadcast4(f.Stuck)
	badNodes := bad.Nodes
	var resolvedM laneMask
	frames := 0
	for u := 0; u < L && resolvedM != all; u++ {
		var active laneMask
		anyActive := uint64(0)
		for w := 0; w < nw; w++ {
			active[w] = markRows[u][w] &^ resolvedM[w]
			anyActive |= active[w]
		}
		if anyActive == 0 {
			continue
		}
		frames++
		row := state[u]

		// Clean-frame fast path: when no still-active lane's packed
		// state differs from the base faulty trace at u, every active
		// lane's frame values equal bad.Nodes[u], so detection and the
		// next-state comparison lift from the retained scalar trace and
		// the dense region evaluation is skipped entirely. This is the
		// common tail of a pass: expansion injections sit at a few
		// frames, and once the lanes that own them detect or conflict,
		// the surviving lanes ride the base trace through the rest of
		// the marked window. (bad.Nodes is retained whenever backward
		// implications are on; without it every frame takes the dense
		// path below.)
		if badNodes != nil {
			badRow := bad.States[u]
			dirty := uint64(0)
			for qi, j := range reg.QFFs {
				var bOne, bZero uint64
				switch badRow[j] {
				case logic.One:
					bOne = allBits
				case logic.Zero:
					bZero = allBits
				}
				c := &row[qi]
				for w := 0; w < nw; w++ {
					dirty |= (c.One[w] ^ bOne | c.Zero[w] ^ bZero) & active[w]
				}
			}
			if dirty == 0 {
				bn := badNodes[u]
				goodOuts := s.good.Outputs[u]
				detected := false
				for _, oj := range reg.Outs {
					g := goodOuts[oj]
					v := bn[cc.Outputs[oj]]
					if g.IsBinary() && v.IsBinary() && v != g {
						detected = true
						break
					}
				}
				if detected {
					// Every active lane detects here, exactly the
					// dense path's det == active case.
					for w := 0; w < nw; w++ {
						resolvedM[w] |= active[w]
					}
					continue
				}
				next := state[u+1]
				nextMarks := &markRows[u+1]
				act := active
				for _, j := range reg.DFFs {
					dv := bn[cc.FFD[j]]
					if stem && cc.FFQ[j] == f.Node {
						dv = f.Stuck
					}
					var vOne, vZero uint64
					switch dv {
					case logic.One:
						vOne = allBits
					case logic.Zero:
						vZero = allBits
					default:
						continue // X next value: no refine, no conflict
					}
					cell := &next[qPos[j]]
					for w := 0; w < nw; w++ {
						a := act[w]
						if a == 0 {
							continue
						}
						nOne, nZero := cell.One[w], cell.Zero[w]
						conflict := (vOne&nZero | vZero&nOne) & a
						refine := (vOne | vZero) &^ (nOne | nZero) & a
						cell.One[w] = nOne | vOne&refine
						cell.Zero[w] = nZero | vZero&refine
						nextMarks[w] |= refine
						resolvedM[w] |= conflict
						act[w] = a &^ conflict
					}
				}
				continue
			}
		}

		// Frame evaluation confined to the region: frontier nodes carry
		// the fault-free value on every lane, region Q nodes load the
		// packed state, a stem fault site is stuck on every lane (its
		// driver, if any, is skipped), and region gates evaluate in
		// level order. The gate fold is inlined over the live words —
		// this loop is the hot core of the pass, and the shared
		// VV4Fold's per-gate constructor and per-fanin call overhead
		// dominate it otherwise. Only the fault's own branch gate (at
		// most one per region) takes the shared fold, to keep the fast
		// path free of the pin-override test.
		goodNodes := s.good.Nodes[u]
		for _, id := range reg.Frontier {
			var one, zero uint64
			switch goodNodes[id] {
			case logic.One:
				one = allBits
			case logic.Zero:
				zero = allBits
			}
			v := &vals[id]
			for w := 0; w < nw; w++ {
				v.One[w], v.Zero[w] = one, zero
			}
		}
		for qi, j := range reg.QFFs {
			v, c := &vals[cc.FFQ[j]], &row[qi]
			for w := 0; w < nw; w++ {
				v.One[w], v.Zero[w] = c.One[w], c.Zero[w]
			}
		}
		if stem {
			vals[f.Node] = stuck
		}
		for _, gi := range reg.Gates {
			out := cc.GOut[gi]
			if stem && out == f.Node {
				continue
			}
			if !stem && gi == f.Gate {
				// Branch fault: the faulty pin observes the stuck value.
				fo := cir.StartVV4(cc.Ops[gi])
				lo, hi := cc.FaninStart[gi], cc.FaninStart[gi+1]
				for k := lo; k < hi; k++ {
					if k-lo == f.Pin {
						fo.Add(stuck)
					} else {
						fo.Add(vals[cc.Fanin[k]])
					}
				}
				vals[out] = fo.Result()
				continue
			}
			op := cc.Ops[gi]
			lo, hi := cc.FaninStart[gi], cc.FaninStart[gi+1]
			var one, zero [4]uint64
			switch op {
			case logic.And, logic.Nand:
				for w := 0; w < nw; w++ {
					one[w] = allBits
				}
				for k := lo; k < hi; k++ {
					in := &vals[cc.Fanin[k]]
					for w := 0; w < nw; w++ {
						one[w] &= in.One[w]
						zero[w] |= in.Zero[w]
					}
				}
			case logic.Xor, logic.Xnor:
				for w := 0; w < nw; w++ {
					zero[w] = allBits
				}
				for k := lo; k < hi; k++ {
					in := &vals[cc.Fanin[k]]
					for w := 0; w < nw; w++ {
						o := one[w]&in.Zero[w] | zero[w]&in.One[w]
						zero[w] = one[w]&in.One[w] | zero[w]&in.Zero[w]
						one[w] = o
					}
				}
			case logic.Const0:
				for w := 0; w < nw; w++ {
					zero[w] = allBits
				}
			case logic.Const1:
				for w := 0; w < nw; w++ {
					one[w] = allBits
				}
			default: // Or, Nor, Buf, Not: the or-fold
				for w := 0; w < nw; w++ {
					zero[w] = allBits
				}
				for k := lo; k < hi; k++ {
					in := &vals[cc.Fanin[k]]
					for w := 0; w < nw; w++ {
						one[w] |= in.One[w]
						zero[w] &= in.Zero[w]
					}
				}
			}
			v := &vals[out]
			if op != logic.Const0 && op != logic.Const1 && op.Inverting() {
				for w := 0; w < nw; w++ {
					v.One[w], v.Zero[w] = zero[w], one[w]
				}
			} else {
				for w := 0; w < nw; w++ {
					v.One[w], v.Zero[w] = one[w], zero[w]
				}
			}
		}

		// Detections: a lane whose binary output value contradicts a
		// binary fault-free response resolves, as in a per-sequence scan.
		// Only region outputs can differ (the region contains the cone).
		var det laneMask
		goodOuts := s.good.Outputs[u]
		for _, oj := range reg.Outs {
			g := goodOuts[oj]
			if !g.IsBinary() {
				continue
			}
			v := &vals[cc.Outputs[oj]]
			mism := &v.One
			if g == logic.One {
				mism = &v.Zero
			}
			for w := 0; w < nw; w++ {
				det[w] |= mism[w]
			}
		}
		var act laneMask
		anyAct := uint64(0)
		for w := 0; w < nw; w++ {
			det[w] &= active[w]
			resolvedM[w] |= det[w]
			act[w] = active[w] &^ det[w]
			anyAct |= act[w]
		}
		if anyAct == 0 {
			// Every active lane detected this frame; a detected
			// sequence skips the next-state step.
			continue
		}

		// Next-state comparison against the packed state at u+1, lane
		// rules identical to a per-sequence comparison: a binary computed value
		// against X refines the lane (and marks u+1 for it), against the
		// opposite binary value conflicts (infeasible sequence, lane
		// resolved, later flip-flops untouched — act drops the lane).
		next := state[u+1]
		nextMarks := &markRows[u+1]
		for _, j := range reg.DFFs {
			v := vals[cc.FFD[j]]
			if stem && cc.FFQ[j] == f.Node {
				// The stem fault holds this flip-flop's observed next
				// state at the stuck value (fault.Observed).
				v = stuck
			}
			cell := &next[qPos[j]]
			for w := 0; w < nw; w++ {
				a := act[w]
				if a == 0 {
					continue
				}
				one, zero := v.One[w], v.Zero[w]
				nOne, nZero := cell.One[w], cell.Zero[w]
				conflict := (one&nZero | zero&nOne) & a
				refine := (one | zero) &^ (nOne | nZero) & a
				cell.One[w] = nOne | one&refine
				cell.Zero[w] = nZero | zero&refine
				nextMarks[w] |= refine
				resolvedM[w] |= conflict
				act[w] = a &^ conflict
			}
		}
	}

	if st := s.stats; st != nil {
		st.resimVectorPasses++
		st.resimVectorFrames += int64(frames)
	}
	if s.hist != nil {
		s.hist.ResimLanesPerPass.Observe(int64(n))
	}
	s.lastResim.VectorPasses++
	s.lastResim.VectorFrames += frames
	s.lastResim.Lanes += n
	return resolvedM == all
}
