package cir

// 256-lane bit-parallel three-valued values, the bit-parallel half of
// the gate semantics (EvalOpVV4) next to the scalar half (EvalOp), backed
// by [4]uint64 words. Pure Go word-parallel operations — each lane-wise
// op is four independent uint64 ops the compiler keeps in registers; no
// explicit SIMD. bitsim packs 255 faulty machines per word with these, and the
// core resimulation stage packs one fault's expanded state sequences.

import "repro/internal/logic"

// Lanes4 is the lane count of a VV4.
const Lanes4 = 256

// VV4 is a 256-lane three-valued vector: bit k of word k/64 of One set
// means lane k carries 1, the same bit of Zero means lane k carries 0,
// neither set means X. (Both set is invalid.)
type VV4 struct {
	Zero, One [4]uint64
}

// Broadcast4 returns the VV4 carrying v on every lane.
func Broadcast4(v logic.Val) VV4 {
	const all = ^uint64(0)
	switch v {
	case logic.Zero:
		return VV4{Zero: [4]uint64{all, all, all, all}}
	case logic.One:
		return VV4{One: [4]uint64{all, all, all, all}}
	}
	return VV4{}
}

// Lane extracts the value of lane k.
func (v VV4) Lane(k uint) logic.Val {
	w, b := k>>6, k&63
	switch {
	case v.One[w]>>b&1 == 1:
		return logic.One
	case v.Zero[w]>>b&1 == 1:
		return logic.Zero
	}
	return logic.X
}

// SetLane overwrites lane k with val, clearing it first.
func (v *VV4) SetLane(k uint, val logic.Val) {
	w, b := k>>6, uint64(1)<<(k&63)
	v.One[w] &^= b
	v.Zero[w] &^= b
	switch val {
	case logic.One:
		v.One[w] |= b
	case logic.Zero:
		v.Zero[w] |= b
	}
}

// Not complements all lanes.
func (v VV4) Not() VV4 { return VV4{Zero: v.One, One: v.Zero} }

// foldKind selects the two-operand fold an operator reduces under.
type foldKind uint8

const (
	foldAnd foldKind = iota
	foldOr           // also Buf/Not: Or from the identity passes the input through
	foldXor
)

// VV4Fold streams a gate's input vectors through the 256-lane fold one at
// a time, keeping the accumulator in registers instead of requiring
// callers to materialize a gathered input slice. The accumulator starts
// at the fold's identity element (all-1 lanes for AND, all-0 lanes for
// OR and XOR), so Add has no first-input special case.
type VV4Fold struct {
	op   logic.Op
	kind foldKind
	acc  VV4
}

// StartVV4 begins a fold under op.
func StartVV4(op logic.Op) VV4Fold {
	switch op {
	case logic.And, logic.Nand:
		return VV4Fold{op: op, kind: foldAnd, acc: Broadcast4(logic.One)}
	case logic.Xor, logic.Xnor:
		return VV4Fold{op: op, kind: foldXor, acc: Broadcast4(logic.Zero)}
	}
	return VV4Fold{op: op, kind: foldOr, acc: Broadcast4(logic.Zero)}
}

// Add folds the next input vector into the accumulator.
func (f *VV4Fold) Add(v VV4) {
	switch f.kind {
	case foldAnd:
		for w := 0; w < 4; w++ {
			f.acc.One[w] &= v.One[w]
			f.acc.Zero[w] |= v.Zero[w]
		}
	case foldOr:
		for w := 0; w < 4; w++ {
			f.acc.One[w] |= v.One[w]
			f.acc.Zero[w] &= v.Zero[w]
		}
	default:
		a := f.acc
		for w := 0; w < 4; w++ {
			f.acc.One[w] = a.One[w]&v.Zero[w] | a.Zero[w]&v.One[w]
			f.acc.Zero[w] = a.One[w]&v.One[w] | a.Zero[w]&v.Zero[w]
		}
	}
}

// Result completes the fold, applying the operator's output inversion.
func (f *VV4Fold) Result() VV4 {
	switch f.op {
	case logic.Const0:
		return Broadcast4(logic.Zero)
	case logic.Const1:
		return Broadcast4(logic.One)
	}
	if f.op.Inverting() {
		return f.acc.Not()
	}
	return f.acc
}

// EvalOpVV4 folds the gathered input vectors under op — the 256-lane
// counterpart of EvalOp, lane-for-lane equivalent to logic.Eval.
func EvalOpVV4(op logic.Op, in []VV4) VV4 {
	f := StartVV4(op)
	for _, v := range in {
		f.Add(v)
	}
	return f.Result()
}
