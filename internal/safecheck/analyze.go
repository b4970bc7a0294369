package safecheck

import (
	"math"
	"sort"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/schedcheck"
)

// The analyzer: a forward abstract interpretation over the same machine-level
// CFG schedcheck certifies (schedcheck.CFG), one abstract state per
// instruction word. The word transfer function is deliberately latency-free:
// on a schedcheck-clean image every read that could observe an in-flight
// write is an error-severity finding (stale read, retire race, inverted
// WAW), so for the images safecheck certifies — which must also hold a
// resource certificate — beat-0 reads see the word-entry state, beat-1 reads
// see beat-0 results, and successors see everything. Where the machine's
// timing is ambiguous inside one word (two writes to one register), the
// abstract write joins instead of overwriting. Images that violate those
// scheduling invariants simply cannot reach guard-free execution: Certify
// requires the resource certificate first.

const (
	nIRegs = 4 * 64 // I-register state: board*64+idx
	nBB    = 4 * 8  // branch-bank predicates: board*8+idx

	widenAt       = 8     // joins at one word before widening kicks in
	narrowRounds  = 64    // descending-sweep cap after the ascending fixpoint
	defaultBudget = 50000 // word-transfer cap before the analysis gives up
)

// operand is one side of a recorded branch predicate: an immediate or an
// I-register (index board*64+idx).
type operand struct {
	imm bool
	val int64
	reg int16
}

// pred records what a branch-bank bit means: "kind(a, b) held when this bit
// was written, and neither a nor b has been overwritten since". The compare
// is re-evaluated symbolically at branch edges to refine operand ranges.
type pred struct {
	ok   bool
	kind ir.OpKind // CmpEQ..CmpGE
	a, b operand
}

// rel records an exact affine equality between two live registers:
// value(reg) == value(base) + delta, right now. Rotated loops carry the
// incremented induction variable in a different register than the one the
// exit test constrains ("i1.14 = i1.11 + 1; ...; brT i1.11 < n"), so a
// pure interval domain loses every loop bound; these equalities let a
// branch refinement on one register propagate to its affine copies.
type rel struct {
	ok    bool
	base  int16
	delta int64
}

// state is the abstract machine state at a word boundary. It is a plain
// comparable value: fixpoint change detection is ==.
//
// ipred mirrors preds for integer registers: compilers route branch
// conditions through the I-bank ("i = cmplt a, b; bb = cmpeq i, #0"), so a
// register written by a compare remembers the relation it tested; refining
// "i == 0" then refines a and b. An ok ipred also certifies the register's
// value is exactly 0 or 1.
type state struct {
	regs  [nIRegs]Val
	preds [nBB]pred
	eq    [nIRegs]rel
	ipred [nIRegs]pred
}

func (s *state) argVal(a mach.Arg) Val {
	if a.IsImm {
		return Exact(int64(a.Imm))
	}
	if !a.Reg.Valid() {
		return Exact(0) // readArg returns 0 for an unwired operand
	}
	switch a.Reg.Bank {
	case mach.BankI:
		if ri, ok := iregIndex(a.Reg); ok {
			return s.regs[ri]
		}
	case mach.BankB:
		return val01
	}
	return Top // F/SF bits reinterpreted as i32: anything
}

func iregIndex(r mach.PReg) (int, bool) {
	if int(r.Board) >= 4 || int(r.Idx) >= 64 {
		return 0, false
	}
	return int(r.Board)*64 + int(r.Idx), true
}

func bbIndex(r mach.PReg) (int, bool) {
	if int(r.Board) >= 4 || int(r.Idx) >= 8 {
		return 0, false
	}
	return int(r.Board)*8 + int(r.Idx), true
}

func trackOperand(a mach.Arg) (operand, bool) {
	if a.IsImm {
		return operand{imm: true, val: int64(a.Imm), reg: -1}, true
	}
	if a.Reg.Valid() && a.Reg.Bank == mach.BankI {
		if ri, ok := iregIndex(a.Reg); ok {
			return operand{reg: int16(ri)}, true
		}
	}
	return operand{}, false
}

func (s *state) operandVal(o operand) Val {
	if o.imm {
		// No int32 wrap: predicate shifting can push an immediate past the
		// int32 range ("i < 256" hoisted over i += 1 becomes "i < 257"
		// repeatedly), and the comparison math here is pure int64.
		return Val{o.val, o.val, 0, o.val}
	}
	return s.regs[o.reg]
}

// joinState merges two word-entry states: register values join in the
// lattice; predicates and affine equalities survive only when both sides
// agree exactly (an equality that holds on every incoming path still holds
// after the join).
func joinState(a, b state) state {
	var out state
	for i := range a.regs {
		out.regs[i] = a.regs[i].Join(b.regs[i])
	}
	for i := range a.preds {
		if a.preds[i].ok && a.preds[i] == b.preds[i] {
			out.preds[i] = a.preds[i]
		}
	}
	for i := range a.eq {
		if a.eq[i].ok && a.eq[i] == b.eq[i] {
			out.eq[i] = a.eq[i]
		}
	}
	for i := range a.ipred {
		if a.ipred[i].ok && a.ipred[i] == b.ipred[i] {
			out.ipred[i] = a.ipred[i]
		}
	}
	return out
}

// widenState accelerates a join that keeps growing. Predicates and affine
// equalities are exact relational facts independent of the interval bounds,
// so the joined set carries over untouched.
func widenState(old, next state) state {
	var out state
	for i := range next.regs {
		out.regs[i] = next.regs[i].Widen(old.regs[i])
	}
	out.preds = next.preds
	out.eq = next.eq
	out.ipred = next.ipred
	return out
}

type analyzer struct {
	img    *isa.Image
	succ   [][]int
	memLen int64
	src    schedcheck.SourceMap
	fnames []string
	fbases []int

	budget int
}

type wordOut struct {
	st state
	// wrote[ri] is 1+lastWriteBeat of the word's writes to I-register ri
	// (0: untouched). predBorn[bi] is 1+issueBeat of a predicate recorded
	// this word (0: inherited from the entry state). Together they decide
	// which predicates survive the word: a compare at beat b reads operand
	// values from before beat b, so any operand write at a beat >= b means
	// the recorded relation talks about stale values.
	wrote    [nIRegs]uint8
	predBorn [nBB]uint8
}

func (o *wordOut) dirty(ri int16) bool { return ri >= 0 && o.wrote[ri] > 0 }

type write struct {
	dst mach.PReg
	v   Val
	op  *mach.Op
}

// xfer runs one word's transfer function. When rep is non-nil it also emits
// the per-site safety verdicts (the final reporting sweep).
func (a *analyzer) xfer(w int, s0 state, rep *Report) wordOut {
	a.budget--
	st := s0
	var out wordOut
	var writes []write
	in := a.img.Instrs[w]
	for beat := 0; beat < 2; beat++ {
		writes = writes[:0]
		for si := range in.Slots {
			s := &in.Slots[si]
			if int(s.Beat&1) != beat {
				continue
			}
			o := &s.Op
			if s.Unit.Kind == mach.UBR {
				switch o.Kind {
				case mach.OpCall:
					// link register receives the return address
					writes = append(writes, write{mach.RegLR, Exact(int64(w + 1)), o})
				case mach.OpJmpR:
					if rep != nil {
						a.addJmpRSite(rep, w, s, &st)
					}
				}
				continue
			}
			switch o.Kind {
			case ir.Nop:
			case ir.Load, ir.LoadSpec:
				if rep != nil {
					a.addMemSite(rep, w, s, &st)
				}
				writes = append(writes, write{o.Dst, Top, o})
			case ir.Store:
				if rep != nil {
					a.addMemSite(rep, w, s, &st)
				}
			case ir.Div, ir.Rem:
				if rep != nil {
					a.addDivSite(rep, w, s, &st)
				}
				writes = append(writes, write{o.Dst, evalOp(&st, o), o})
			default:
				if o.Dst.Valid() {
					writes = append(writes, write{o.Dst, evalOp(&st, o), o})
				}
			}
		}
		for i := range writes {
			applyWrite(&st, &out, &writes[i], uint8(beat))
		}
	}
	out.st = st
	return out
}

func applyWrite(st *state, out *wordOut, x *write, beat uint8) {
	switch x.dst.Bank {
	case mach.BankI:
		ri, ok := iregIndex(x.dst)
		if !ok {
			return
		}
		// Relational bookkeeping, all against the pre-write state: does the
		// new value relate to the old one (r' = r + delta), and does it
		// relate exactly to some other live register?
		delta, affine := selfDelta(st, out, x.op, ri, beat)
		old := st.regs[ri]
		canShift := affine && out.wrote[ri] == 0 &&
			old.Lo+delta >= math.MinInt32 && old.Hi+delta <= math.MaxInt32
		newRel := eqRelFor(st, out, x.op, ri, beat)
		shiftPreds(st, out, ri, delta, canShift, beat)
		for c := range st.eq {
			if e := &st.eq[c]; e.ok && e.base == int16(ri) && c != ri {
				if canShift {
					// c == old_ri + d and new_ri == old_ri + delta, so
					// c == new_ri + (d - delta)
					e.delta -= delta
				} else {
					*e = rel{}
				}
			}
		}
		switch {
		case out.wrote[ri] == 0 && newRel.ok:
			st.eq[ri] = newRel
		case canShift && st.eq[ri].ok:
			// old_ri == base + d, new_ri == old_ri + delta
			st.eq[ri] = rel{ok: true, base: st.eq[ri].base, delta: st.eq[ri].delta + delta}
		default:
			st.eq[ri] = rel{}
		}
		// A compare retiring into the I-bank remembers its relation, with
		// the same stillborn and double-write rules as branch-bank bits.
		np := pred{}
		if out.wrote[ri] == 0 {
			np = predFor(x.op)
			if np.ok && ((np.a.reg >= 0 && out.wrote[np.a.reg] == beat+1) ||
				(np.b.reg >= 0 && out.wrote[np.b.reg] == beat+1) ||
				np.a.reg == int16(ri) || np.b.reg == int16(ri)) {
				// operand rewritten this beat, or the compare overwrites its
				// own operand: the relation talks about a dead value
				np = pred{}
			}
		}
		st.ipred[ri] = np
		if out.wrote[ri] > 0 {
			// two retires into one register within one word: the winner
			// depends on latencies we do not model, so keep both
			st.regs[ri] = st.regs[ri].Join(x.v)
		} else {
			st.regs[ri] = x.v
		}
		out.wrote[ri] = beat + 1
	case mach.BankB:
		bi, ok := bbIndex(x.dst)
		if !ok {
			return
		}
		p := pred{}
		if out.predBorn[bi] == 0 { // double write: meaning ambiguous
			p = predFor(x.op)
		}
		// An operand already rewritten this beat: the compare read the old
		// value, the state holds the new one — the relation is stillborn.
		if p.ok && ((p.a.reg >= 0 && out.wrote[p.a.reg] == beat+1) ||
			(p.b.reg >= 0 && out.wrote[p.b.reg] == beat+1)) {
			p = pred{}
		}
		st.preds[bi] = p
		out.predBorn[bi] = beat + 1
	}
}

// shiftPreds keeps the recorded branch predicates consistent when one of
// their operand registers is overwritten. Schedulers routinely hoist the
// induction update above the exit branch (`i = i+1; ...; brT i<256`), so a
// plain invalidation would lose every loop bound. For an update that adds a
// known constant to the register's own old value (r = r ± imm directly, or
// via an affine copy — see selfDelta) and provably cannot wrap, the
// predicate's immediate side shifts by the delta ("old r < 256" becomes
// "new r < 257"); anything else invalidates the predicate.
func shiftPreds(st *state, out *wordOut, ri int, delta int64, canShift bool, beat uint8) {
	for i := range st.preds {
		p := &st.preds[i]
		if !p.ok || (p.a.reg != int16(ri) && p.b.reg != int16(ri)) {
			continue
		}
		if out.predBorn[i] > beat+1 {
			continue // compare issued after this write: it read the new value
		}
		switch {
		case !canShift:
			*p = pred{}
		case p.a.reg == int16(ri) && p.b.imm:
			p.b.val += delta
		case p.b.reg == int16(ri) && p.a.imm:
			p.a.val += delta
		default:
			*p = pred{}
		}
	}
	for i := range st.ipred {
		p := &st.ipred[i]
		if !p.ok || (p.a.reg != int16(ri) && p.b.reg != int16(ri)) {
			continue
		}
		if out.wrote[i] > beat+1 {
			continue // compare issued after this write: it read the new value
		}
		switch {
		case !canShift:
			*p = pred{}
		case p.a.reg == int16(ri) && p.b.imm:
			p.b.val += delta
		case p.b.reg == int16(ri) && p.a.imm:
			p.a.val += delta
		default:
			*p = pred{}
		}
	}
}

// constArg resolves an operand the op read to a compile-time constant: an
// immediate, or an I-register whose abstract value is exact. The latter is
// what narrow machines produce — with too few immediate slots per word, the
// scheduler materializes strides and loop bounds into registers ("add i14,
// i22" where i22 always holds 1), and the affine bookkeeping must see
// through that or every rotated loop on such a machine loses its bound.
// The register must still hold the value the op read (no write at this or
// a later beat).
func constArg(st *state, out *wordOut, arg mach.Arg, beat uint8) (int64, bool) {
	if arg.IsImm {
		return int64(arg.Imm), true
	}
	if !arg.Reg.Valid() || arg.Reg.Bank != mach.BankI {
		return 0, false
	}
	j, ok := iregIndex(arg.Reg)
	if !ok || out.wrote[j] > beat {
		return 0, false
	}
	if v := st.regs[j]; v.M == 0 {
		return v.R, true
	}
	return 0, false
}

// selfDelta recognizes writes whose new value equals the register's own old
// value plus a constant: directly (r = r ± imm), or through a recorded
// affine copy (r = mov r2 or r = r2 ± imm where r2 == r + d) — the shape
// rotated loops produce when the scheduler carries the incremented counter
// in a scratch register and copies it back. Source registers must still
// hold the value the op read (no write at this or a later beat).
func selfDelta(st *state, out *wordOut, o *mach.Op, ri int, beat uint8) (int64, bool) {
	if d, ok := affineDelta(st, out, o, ri, beat); ok {
		return d, true
	}
	src := func(arg mach.Arg) (int16, bool) {
		if arg.IsImm || !arg.Reg.Valid() || arg.Reg.Bank != mach.BankI {
			return 0, false
		}
		j, ok := iregIndex(arg.Reg)
		if !ok || out.wrote[j] > beat {
			return 0, false
		}
		return int16(j), true
	}
	base := func(rs int16) (int64, bool) {
		return st.deltaTo(rs, ri)
	}
	switch o.Kind {
	case ir.Mov:
		if o.Type == ir.F64 {
			return 0, false
		}
		if rs, ok := src(o.A); ok {
			if int(rs) == ri {
				return 0, true
			}
			if d, ok := base(rs); ok {
				return d, true
			}
		}
	case ir.Add:
		if rs, ok := src(o.A); ok {
			if c, okc := constArg(st, out, o.B, beat); okc {
				if d, ok := base(rs); ok {
					return d + c, true
				}
			}
		}
		if rs, ok := src(o.B); ok {
			if c, okc := constArg(st, out, o.A, beat); okc {
				if d, ok := base(rs); ok {
					return d + c, true
				}
			}
		}
	case ir.Sub:
		if rs, ok := src(o.A); ok {
			if c, okc := constArg(st, out, o.B, beat); okc {
				if d, ok := base(rs); ok {
					return d - c, true
				}
			}
		}
	}
	return 0, false
}

// deltaTo resolves value(rs) == value(ri) + d by walking parent links of
// the equality graph (hop-bounded: consistent cycles exist and are fine).
func (s *state) deltaTo(rs int16, ri int) (int64, bool) {
	d := int64(0)
	for hops := 0; hops < nIRegs; hops++ {
		if int(rs) == ri {
			return d, true
		}
		e := s.eq[rs]
		if !e.ok {
			return 0, false
		}
		d += e.delta
		rs = e.base
	}
	return 0, false
}

// eqRelFor derives the written value's exact affine relation to another
// live register: reg-to-reg copies and reg ± imm where the add provably
// cannot wrap (otherwise the int64 equality would be false on the wrapped
// path). The relation is recorded against the source operand itself — NOT
// compressed through the source's own equality chain. Bases picked by
// compression depend on whatever relations happen to hold on the first
// visit (often an init-path artifact), and the accumulating fixpoint join
// permanently drops any relation that differs between two visits; operand
// bases are the ones the loop body recreates identically every iteration.
// Refinement walks the graph transitively instead (refineReg).
func eqRelFor(st *state, out *wordOut, o *mach.Op, ri int, beat uint8) rel {
	src := func(arg mach.Arg) (int16, bool) {
		if arg.IsImm || !arg.Reg.Valid() || arg.Reg.Bank != mach.BankI {
			return 0, false
		}
		j, ok := iregIndex(arg.Reg)
		if !ok || j == ri || out.wrote[j] > beat {
			return 0, false
		}
		return int16(j), true
	}
	mkRel := func(rs int16, imm int64) rel {
		v := st.regs[rs]
		if v.Lo+imm < math.MinInt32 || v.Hi+imm > math.MaxInt32 {
			return rel{} // the write may wrap: no exact int64 equality
		}
		return rel{ok: true, base: rs, delta: imm}
	}
	switch o.Kind {
	case ir.Mov:
		if o.Type != ir.F64 {
			if rs, ok := src(o.A); ok {
				return mkRel(rs, 0)
			}
		}
	case ir.Add:
		if rs, ok := src(o.A); ok {
			if c, okc := constArg(st, out, o.B, beat); okc {
				return mkRel(rs, c)
			}
		}
		if rs, ok := src(o.B); ok {
			if c, okc := constArg(st, out, o.A, beat); okc {
				return mkRel(rs, c)
			}
		}
	case ir.Sub:
		if rs, ok := src(o.A); ok {
			if c, okc := constArg(st, out, o.B, beat); okc {
				return mkRel(rs, -c)
			}
		}
	}
	return rel{}
}

// affineDelta recognizes r' = r + delta updates of register ri.
func affineDelta(st *state, out *wordOut, o *mach.Op, ri int, beat uint8) (int64, bool) {
	regIs := func(arg mach.Arg) bool {
		if arg.IsImm || !arg.Reg.Valid() || arg.Reg.Bank != mach.BankI {
			return false
		}
		j, ok := iregIndex(arg.Reg)
		return ok && j == ri
	}
	switch o.Kind {
	case ir.Add:
		if regIs(o.A) {
			if c, ok := constArg(st, out, o.B, beat); ok {
				return c, true
			}
		}
		if regIs(o.B) {
			if c, ok := constArg(st, out, o.A, beat); ok {
				return c, true
			}
		}
	case ir.Sub:
		if regIs(o.A) {
			if c, ok := constArg(st, out, o.B, beat); ok {
				return -c, true
			}
		}
	}
	return 0, false
}

// predFor records the meaning of a compare writing the branch bank; any
// other producer leaves the bit opaque.
func predFor(o *mach.Op) pred {
	switch o.Kind {
	case ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
		pa, oka := trackOperand(o.A)
		pb, okb := trackOperand(o.B)
		if oka && okb {
			return pred{ok: true, kind: o.Kind, a: pa, b: pb}
		}
	}
	return pred{}
}

// evalOp abstracts one non-memory ALU op, mirroring exec.go's wrapping i32
// semantics. Results destined for non-integer banks are discarded by
// applyWrite, so float ops may safely report Top.
func evalOp(st *state, o *mach.Op) Val {
	va := func() Val { return st.argVal(o.A) }
	vb := func() Val { return st.argVal(o.B) }
	switch o.Kind {
	case ir.ConstI:
		return va()
	case ir.Mov, mach.OpMovSF:
		if o.Type == ir.F64 {
			return Top
		}
		return va()
	case ir.Add:
		return va().Add(vb())
	case ir.Sub:
		return va().Sub(vb())
	case ir.Mul:
		return va().Mul(vb())
	case ir.Div:
		return va().Div(vb())
	case ir.Rem:
		return va().Rem(vb())
	case ir.And:
		return va().And(vb())
	case ir.Or:
		return va().Or(vb())
	case ir.Xor:
		return va().Xor(vb())
	case ir.Shl:
		return va().Shl(vb())
	case ir.Shr:
		return va().Shr(vb())
	case ir.Sra:
		return va().Sra(vb())
	case ir.Neg:
		return va().Neg()
	case ir.Not:
		return va().Not()
	case ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		return val01
	case ir.Select:
		return st.argVal(o.B).Join(st.argVal(o.C))
	}
	return Top
}

// edge is one refined CFG edge out of a word.
type edge struct {
	to   int
	st   state
	dead bool
}

// edges computes the out-edges of word w with branch-predicate refinement
// applied. Refinement is valid only for registers the word itself did not
// write (their out-state value is the one the branch tested).
func (a *analyzer) edges(w int, s0 *state, o *wordOut) []edge {
	succ := a.succ[w]
	if len(succ) == 0 {
		return nil
	}
	in := a.img.Instrs[w]
	type brt struct {
		target int
		arg    mach.Arg
	}
	var brs []brt
	var jumps []int // static always-taken targets (jmp, call)
	hasJmpR := false
	transfer := false
	for si := range in.Slots {
		s := &in.Slots[si]
		if s.Unit.Kind != mach.UBR {
			continue
		}
		switch s.Op.Kind {
		case mach.OpBrT:
			brs = append(brs, brt{s.Op.Target, s.Op.A})
		case mach.OpJmp, mach.OpCall:
			transfer = true
			jumps = append(jumps, s.Op.Target)
		case mach.OpJmpR:
			transfer = true
			hasJmpR = true
		}
	}
	fallthru := -1
	if !transfer {
		fallthru = w + 1
	}

	var es []edge
	seen := map[int]bool{}
	for _, t := range succ {
		if seen[t] {
			continue
		}
		seen[t] = true
		e := edge{to: t, st: o.st}
		if !hasJmpR { // jmpr targets are return sites; causes ambiguous
			brCount, brArg := 0, mach.Arg{}
			for _, b := range brs {
				if b.target == t {
					brCount++
					brArg = b.arg
				}
			}
			otherCause := t == fallthru
			for _, j := range jumps {
				if j == t {
					otherCause = true
				}
			}
			switch {
			case brCount == 1 && !otherCause:
				// sole cause: this branch tested true
				e.dead = !refineCond(&e.st, s0, o, brArg, true)
			case brCount == 0 && t == fallthru:
				// fallthrough: every branch test in the word was false
				for _, b := range brs {
					if !refineCond(&e.st, s0, o, b.arg, false) {
						e.dead = true
						break
					}
				}
			}
		}
		es = append(es, e)
	}
	return es
}

// refineCond narrows st under "this branch condition evaluated to want".
// The condition value was read at beat 0 of the word, i.e. against s0.
// Predicates come in two flavors of validity: the out-state predicate (kept
// aligned with the out-state register values by shiftPreds) refines freely,
// while a predicate only valid in s0 — the word rewrote the bit, or
// invalidated the out-state copy by overwriting an operand — still refines
// every register the word left untouched (clean-only mode: for those, the
// read-time value IS the out-state value). Reports false when the condition
// is infeasible — the edge is dead.
func refineCond(st *state, s0 *state, o *wordOut, arg mach.Arg, want bool) bool {
	if arg.IsImm {
		return (arg.Imm != 0) == want
	}
	if !arg.Reg.Valid() {
		return !want // unwired condition reads 0: never taken
	}
	switch arg.Reg.Bank {
	case mach.BankB:
		bi, ok := bbIndex(arg.Reg)
		if !ok {
			return true
		}
		if o.predBorn[bi] == 0 {
			if p := st.preds[bi]; p.ok {
				return refinePred(st, st, o, false, p, want, 0)
			}
		}
		// Rewritten bit (the branch read the OLD one — retires are
		// next-beat) or invalidated predicate: fall back to what the branch
		// actually read, clamping only clean registers.
		if p := s0.preds[bi]; p.ok {
			return refinePred(st, s0, o, true, p, want, 0)
		}
		return true
	case mach.BankI:
		ri, ok := iregIndex(arg.Reg)
		if !ok {
			return true
		}
		if !o.dirty(int16(ri)) {
			if want {
				v, live := st.regs[ri].trimNE(0)
				if !live {
					return false
				}
				st.regs[ri] = v
			} else if !refineReg(st, int16(ri), 0, 0) {
				return false
			}
			// A compare result branched on directly: 0/1 value, so taken
			// means the compare held and fallthrough means its negation.
			if p := st.ipred[ri]; p.ok {
				return refinePred(st, st, o, false, p, want, 0)
			}
			return true
		}
		if p := s0.ipred[ri]; p.ok {
			return refinePred(st, s0, o, true, p, want, 0)
		}
	}
	return true
}

// refinePred applies predicate p (negated when want is false) to target.
// view supplies the operand values and relational facts the predicate talks
// about; in clean-only mode (view == s0) clamps apply only to registers the
// word did not write.
func refinePred(target, view *state, o *wordOut, cleanOnly bool, p pred, want bool, depth int) bool {
	k := p.kind
	if !want {
		k = negateCmp(k)
	}
	return refineCmp(target, view, o, cleanOnly, k, p.a, p.b, depth)
}

func negateCmp(k ir.OpKind) ir.OpKind {
	switch k {
	case ir.CmpEQ:
		return ir.CmpNE
	case ir.CmpNE:
		return ir.CmpEQ
	case ir.CmpLT:
		return ir.CmpGE
	case ir.CmpGE:
		return ir.CmpLT
	case ir.CmpLE:
		return ir.CmpGT
	case ir.CmpGT:
		return ir.CmpLE
	}
	return k
}

// refineReg clamps one register to [lo, hi] and propagates the new bounds
// through the whole affine-equality graph (breadth-first over parent and
// child links, composing deltas — equalities are exact, so every hop
// transfers the clamp losslessly). Returns false when any intersection is
// empty — the refinement is infeasible and the edge it came from is dead.
func refineReg(st *state, ri int16, lo, hi int64) bool {
	type item struct {
		reg    int16
		lo, hi int64
	}
	var seen [nIRegs]bool
	queue := []item{{ri, lo, hi}}
	seen[ri] = true
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		v, ok := st.regs[it.reg].Clamp(it.lo, it.hi)
		if !ok {
			return false
		}
		st.regs[it.reg] = v
		if e := st.eq[it.reg]; e.ok && !seen[e.base] {
			seen[e.base] = true
			queue = append(queue, item{e.base, v.Lo - e.delta, v.Hi - e.delta})
		}
		for c := range st.eq {
			if ce := st.eq[c]; ce.ok && ce.base == it.reg && !seen[c] {
				seen[c] = true
				queue = append(queue, item{int16(c), v.Lo + ce.delta, v.Hi + ce.delta})
			}
		}
	}
	return true
}

// refineCmp narrows the operand registers under "kind(a, b) is true".
// Operand values and nested facts come from view; clamps land in target
// (identical unless clean-only mode fell back to the entry state). Returns
// false when the comparison is infeasible for the view ranges — even a
// clamp skipped for dirtiness proves the edge dead when it is empty.
func refineCmp(target, view *state, o *wordOut, cleanOnly bool, k ir.OpKind, a, b operand, depth int) bool {
	va, vb := view.operandVal(a), view.operandVal(b)
	const lo, hi = math.MinInt32, math.MaxInt32
	// Clamp targets, computed against the original operand values; the NE
	// case is an endpoint trim, not a clamp, and skips equality propagation.
	var loA, hiA, loB, hiB int64
	trim := false
	switch k {
	case ir.CmpEQ:
		loA, hiA, loB, hiB = vb.Lo, vb.Hi, va.Lo, va.Hi
	case ir.CmpNE:
		trim = true
	case ir.CmpLT:
		loA, hiA, loB, hiB = lo, vb.Hi-1, va.Lo+1, hi
	case ir.CmpLE:
		loA, hiA, loB, hiB = lo, vb.Hi, va.Lo, hi
	case ir.CmpGT:
		loA, hiA, loB, hiB = vb.Lo+1, hi, lo, va.Hi-1
	case ir.CmpGE:
		loA, hiA, loB, hiB = vb.Lo, hi, lo, va.Hi
	default:
		return true
	}
	clamp := func(op operand, v Val, clo, chi int64) bool {
		if _, ok := v.Clamp(clo, chi); !ok {
			return false // infeasible at read time: dead edge
		}
		if op.reg >= 0 && (!cleanOnly || !o.dirty(op.reg)) {
			return refineReg(target, op.reg, clo, chi)
		}
		return true
	}
	trimTo := func(op operand, v Val, c int64) bool {
		nv, ok := v.trimNE(c)
		if !ok {
			return false
		}
		if op.reg >= 0 && (!cleanOnly || !o.dirty(op.reg)) {
			tv, tok := target.regs[op.reg].Clamp(nv.Lo, nv.Hi)
			if !tok {
				return false
			}
			target.regs[op.reg] = tv
		}
		return true
	}
	switch {
	case !trim:
		if !clamp(a, va, loA, hiA) || !clamp(b, vb, loB, hiB) {
			return false
		}
	default:
		if vb.IsExact() && !trimTo(a, va, vb.R) {
			return false
		}
		if va.IsExact() && !trimTo(b, vb, va.R) {
			return false
		}
	}
	// A compare result tested against a constant refines the compare's own
	// relation: "i = cmplt x, y; brT i == 0" means x >= y. The ipred being
	// live certifies the register holds exactly 0 or 1.
	if depth < 4 {
		if a.reg >= 0 && b.imm {
			if p := view.ipred[a.reg]; p.ok {
				if w, known := boolTest(k, b.val); known {
					if !refinePred(target, view, o, cleanOnly, p, w, depth+1) {
						return false
					}
				}
			}
		}
		if b.reg >= 0 && a.imm {
			if p := view.ipred[b.reg]; p.ok {
				if w, known := boolTest(flipCmp(k), a.val); known {
					if !refinePred(target, view, o, cleanOnly, p, w, depth+1) {
						return false
					}
				}
			}
		}
	}
	return true
}

// boolTest interprets "v k c is true" for a v known to be exactly 0 or 1:
// does it pin v's truth value?
func boolTest(k ir.OpKind, c int64) (val, known bool) {
	switch k {
	case ir.CmpEQ:
		if c == 0 || c == 1 {
			return c == 1, true
		}
	case ir.CmpNE:
		if c == 0 || c == 1 {
			return c == 0, true
		}
	case ir.CmpLT: // v < c
		if c == 1 {
			return false, true
		}
	case ir.CmpLE: // v <= c
		if c == 0 {
			return false, true
		}
	case ir.CmpGT: // v > c
		if c == 0 {
			return true, true
		}
	case ir.CmpGE: // v >= c
		if c == 1 {
			return true, true
		}
	}
	return false, false
}

// flipCmp rewrites "a k b" as "b flip(k) a".
func flipCmp(k ir.OpKind) ir.OpKind {
	switch k {
	case ir.CmpLT:
		return ir.CmpGT
	case ir.CmpLE:
		return ir.CmpGE
	case ir.CmpGT:
		return ir.CmpLT
	case ir.CmpGE:
		return ir.CmpLE
	}
	return k // EQ and NE are symmetric
}

// bootState mirrors Context.boot(): every register is zero except SP, which
// points at the 8-aligned top of the program's RAM.
func (a *analyzer) bootState() state {
	var s state
	for i := range s.regs {
		s.regs[i] = Exact(0)
	}
	if ri, ok := iregIndex(mach.RegSP); ok {
		s.regs[ri] = Exact(a.memLen &^ 7)
	}
	return s
}

func (a *analyzer) funcOf(w int) string {
	i := sort.SearchInts(a.fbases, w+1) - 1
	if i < 0 {
		return ""
	}
	name := a.fnames[i]
	if w < a.fbases[i]+a.img.FuncLen[name] {
		return name
	}
	return ""
}

// run drives the fixpoint: ascending worklist with widening, then a fixed
// number of descending sweeps (one parallel application of the transfer
// function each — monotone, so the result stays above the least fixpoint),
// then the reporting sweep that mints per-site verdicts into rep.
func (a *analyzer) run(rep *Report) {
	n := len(a.img.Instrs)
	entry := a.img.Entry
	if n == 0 || entry < 0 || entry >= n {
		a.sweepUnproven(rep, "no entry point: analysis not run")
		return
	}

	in := make([]state, n)
	visited := make([]bool, n)
	joins := make([]int, n)
	inWork := make([]bool, n)
	work := []int{entry}
	in[entry] = a.bootState()
	visited[entry] = true
	inWork[entry] = true

	flow := func(e edge, update func(t int, st state)) {
		if e.dead || e.to < 0 || e.to >= n {
			return
		}
		update(e.to, e.st)
	}

	for len(work) > 0 {
		if a.budget <= 0 {
			rep.Exhausted = true
			a.sweepUnproven(rep, "analysis budget exhausted: value ranges unavailable")
			return
		}
		w := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[w] = false
		s0 := in[w]
		o := a.xfer(w, s0, nil)
		for _, e := range a.edges(w, &s0, &o) {
			flow(e, func(t int, st state) {
				if !visited[t] {
					visited[t] = true
					in[t] = st
				} else {
					next := joinState(in[t], st)
					if next == in[t] {
						return
					}
					joins[t]++
					if joins[t] > widenAt {
						next = widenState(in[t], next)
					}
					in[t] = next
				}
				if !inWork[t] {
					inWork[t] = true
					work = append(work, t)
				}
			})
		}
	}

	// Descending sweeps: recompute every entry state from scratch as the
	// join of its (refined) incoming edges, recovering the precision the
	// widening threw away. Each sweep reads only the previous iterate and is
	// independently sound (it applies one parallel step of the sound
	// transfer system to a superset of the reachable states), so iterating
	// until the states stop changing — bounded by narrowRounds and the
	// transfer budget — is safe and lets a narrowed loop bound propagate
	// through arbitrarily long loop bodies.
	//
	// The sweeps alternate between two state arrays instead of allocating
	// one per round: a state is tens of KiB, so each array is as large as
	// everything else the analysis keeps, and a fresh one per round would
	// leave the live heap depending on when the collector runs.
	nin := make([]state, n)
	nvis := make([]bool, n)
	for round := 0; round < narrowRounds; round++ {
		if a.budget <= 0 {
			break // keep the last iterate: still sound, just less precise
		}
		clear(nin)
		clear(nvis)
		nin[entry] = a.bootState()
		nvis[entry] = true
		for w := 0; w < n; w++ {
			if !visited[w] {
				continue
			}
			s0 := in[w]
			o := a.xfer(w, s0, nil)
			for _, e := range a.edges(w, &s0, &o) {
				flow(e, func(t int, st state) {
					if nvis[t] {
						nin[t] = joinState(nin[t], st)
					} else {
						nvis[t] = true
						nin[t] = st
					}
				})
			}
		}
		stable := true
		for w := 0; w < n && stable; w++ {
			if nvis[w] != visited[w] || nin[w] != in[w] {
				stable = false
			}
		}
		in, nin = nin, in
		visited, nvis = nvis, visited
		if stable {
			break
		}
	}

	// Reporting sweep.
	for w := 0; w < n; w++ {
		if visited[w] {
			a.xfer(w, in[w], rep)
		} else {
			a.wordUnreachable(rep, w)
		}
	}
}

// sweepUnproven emits every site as unproven with a blanket reason (budget
// exhaustion, missing entry) — the sound answer when no fixpoint exists.
func (a *analyzer) sweepUnproven(rep *Report, reason string) {
	for w := range a.img.Instrs {
		a.eachSite(w, func(s *mach.SlotOp) {
			rep.add(a.site(w, s, false, reason))
		})
	}
}

// wordUnreachable emits the sites of a word no abstract path reaches. The
// abstraction over-approximates reachable concrete states, so these sites
// provably never execute — trivially safe.
func (a *analyzer) wordUnreachable(rep *Report, w int) {
	a.eachSite(w, func(s *mach.SlotOp) {
		rep.add(a.site(w, s, true, "unreachable: no path executes this site"))
	})
}

func (a *analyzer) eachSite(w int, f func(s *mach.SlotOp)) {
	in := a.img.Instrs[w]
	for si := range in.Slots {
		s := &in.Slots[si]
		switch {
		case s.Unit.Kind == mach.UBR:
			if s.Op.Kind == mach.OpJmpR {
				f(s)
			}
		case s.Op.Kind == ir.Load || s.Op.Kind == ir.LoadSpec || s.Op.Kind == ir.Store,
			s.Op.Kind == ir.Div || s.Op.Kind == ir.Rem:
			f(s)
		}
	}
}

func (a *analyzer) site(w int, s *mach.SlotOp, proven bool, detail string) Site {
	st := Site{
		Word:   w,
		Beat:   int(s.Beat),
		Unit:   s.Unit,
		Kind:   s.Op.Kind,
		Proven: proven,
		Detail: detail,
	}
	if a.src != nil {
		st.Func, st.Line = a.src(w, s.Unit, s.Beat)
	}
	if st.Func == "" {
		st.Func = a.funcOf(w)
	}
	return st
}
