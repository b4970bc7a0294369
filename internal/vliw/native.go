package vliw

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// This file is the native tier: a per-image translator that compiles the
// image one step further than plan.go's pre-decoder. Where the checked
// interpreter still walks planOps and switches on the opcode for every
// executed slot, the translator runs once per (image, certificate) and
// fuses each beat's slot list into a sequence of Go closures — one
// superinstruction per beat — with everything static baked in at
// translation time:
//
//   - operand access is resolved per slot: immediates become captured
//     constants, register reads become direct masked indexing into the
//     context's banks (no Arg re-decode, no readArg branch chain), and the
//     write-pipeline enqueue is fused into the op closure itself;
//   - the per-slot kind switch disappears — each closure IS its operation;
//   - unconditional counters (Ops, FloatOps, MemRefs, Loads, Stores,
//     SpecLoads, Branches, Syscalls) are summed over the whole word at
//     translation time and applied in one shot, with a precomputed rollback
//     on the (cold) fault paths so a mid-beat trap leaves exactly the
//     counters the checked interpreter would have;
//   - the memory-bank geometry (power-of-two controllers and banks in every
//     stock config) is resolved to shifts and masks, for both the prescan
//     and the per-reference bank-busy update;
//   - at sites a SafetyCertificate's bitmask covers, the emitted closure
//     carries no bounds/alignment/divide guard at all; unproven sites — and
//     every site under a bare resource Certificate — keep exactly the
//     checked interpreter's guard semantics, fault messages included.
//
// Everything dynamic — the write pipeline (Context.pending, so snapshots
// and RunMany interleaving are unchanged), the TLB/bank-stall prescan, the
// icache model, interrupts, DMA — keeps the other tiers' semantics: the
// equivalence bar is exit, output, and every Stats counter bit-identical to
// the checked tier, and the tracefuzz oracle holds the translator to it.
// Post-certification image corruption is contained at the proven sites: the
// Go runtime's own bounds/divide checks backstop the deleted guards and the
// run loops convert the panic into the matching Fault (safeTierFault).

// nativeOp is one translated slot operation: the closure returns the trap
// (as an error) a guarded site raises, nil otherwise.
type nativeOp func(m *Machine, c *Context) error

// nativeMem is one memory reference for the TLB/bank-stall prescan, with
// the effective-address computation pre-resolved.
type nativeMem struct {
	ea   func(c *Context) int64
	beat int64 // issue beat within the instruction (0 or 1)
}

// nativeWord is one translated instruction word. Each beat's slot closures
// are folded into a single chained closure (nChain) so the step loop makes
// one call per beat with no dispatch loop; nil means the beat is all Nops.
// bulk is the whole word's unconditional counter delta (both beats),
// applied once at word start; fault closures in beat 0 carry beat 1's
// share in their rollback.
type nativeWord struct {
	beats [2]nativeOp
	bulk  statsBulk
	mem   []nativeMem
}

// nChain folds a beat's closure list into one straight-line closure,
// replacing the step loop's per-slot iteration with direct calls through
// captured pairs.
func nChain(ops []nativeOp) nativeOp {
	switch len(ops) {
	case 0:
		return nil
	case 1:
		return ops[0]
	case 2:
		f0, f1 := ops[0], ops[1]
		return func(m *Machine, c *Context) error {
			if err := f0(m, c); err != nil {
				return err
			}
			return f1(m, c)
		}
	case 3:
		f0, f1, f2 := ops[0], ops[1], ops[2]
		return func(m *Machine, c *Context) error {
			if err := f0(m, c); err != nil {
				return err
			}
			if err := f1(m, c); err != nil {
				return err
			}
			return f2(m, c)
		}
	case 4:
		f0, f1, f2, f3 := ops[0], ops[1], ops[2], ops[3]
		return func(m *Machine, c *Context) error {
			if err := f0(m, c); err != nil {
				return err
			}
			if err := f1(m, c); err != nil {
				return err
			}
			if err := f2(m, c); err != nil {
				return err
			}
			return f3(m, c)
		}
	default:
		half := len(ops) / 2
		a, b := nChain(ops[:half]), nChain(ops[half:])
		return func(m *Machine, c *Context) error {
			if err := a(m, c); err != nil {
				return err
			}
			return b(m, c)
		}
	}
}

// bankGeom is the memory-system geometry resolved to shift/mask form at
// translation time. ok is false for a config whose controller or bank count
// is not a power of two; those fall back to Config.BankOf.
type bankGeom struct {
	ctrlShift uint
	ctrlMask  int64
	bankMask  int64
	busy      int64 // StageBank + BankBusyBeats: the bank-busy window
	ok        bool
}

func geomOf(cfg mach.Config) bankGeom {
	g := bankGeom{busy: mach.StageBank + int64(cfg.BankBusyBeats)}
	ctrl, banks := int64(cfg.Controllers), int64(cfg.BanksPerController)
	if ctrl <= 0 || ctrl&(ctrl-1) != 0 || banks <= 0 || banks&(banks-1) != 0 {
		return g
	}
	g.ctrlMask, g.bankMask, g.ok = ctrl-1, banks-1, true
	for int64(1)<<g.ctrlShift < ctrl {
		g.ctrlShift++
	}
	return g
}

// touch marks ea's RAM bank busy (touchBank with the division strength-
// reduced); callers fall back to m.touchBank when !g.ok.
func (g *bankGeom) touch(c *Context, ea int64) {
	w := ea >> 3
	id := (w&g.ctrlMask)*8 + ((w >> g.ctrlShift) & g.bankMask)
	c.bankBusy[id&63] = c.beat + g.busy
}

// nativePlan is one image's complete translation plus the translation-time
// constants the step loop needs.
type nativePlan struct {
	words    []nativeWord
	geom     bankGeom
	itagMask int   // len(itags)-1 when the icache is a power of two, else -1
	ringSize int64 // power-of-two retire-ring size, > the image's max latency
}

// ringWrite is one in-flight register write in the native tier's retire
// ring. The retire beat is implicit in the bucket the entry sits in; seq is
// the issue sequence number, which recovers the interpreter's issue-order
// retirement when several beats drain at once and puts flushed entries back
// into Context.pending in the order checked-tier execution would have them.
type ringWrite struct {
	val uint64
	pc  int32
	seq uint32
	dst mach.PReg
}

// npush schedules a register write retiring at beat rb into the ring. The
// ring replaces the pending-queue scan: retirement touches only the bucket
// that is due instead of copying every in-flight write each beat.
func (c *Context) npush(rb int64, dst mach.PReg, val uint64) {
	i := rb & c.nrmask
	c.nring[i] = append(c.nring[i], ringWrite{val: val, pc: int32(c.pc), seq: c.nseq, dst: dst})
	c.nseq++
}

// nRingArm sizes (or clears) the retire ring for a native run. Restored
// pending writes are not ingested here — stepNative ingests c.pending
// lazily, which also covers a flush-then-continue after a mid-run Snapshot.
func (c *Context) nRingArm(size int64) {
	c.nRingFlush()
	if int64(len(c.nring)) != size {
		c.nring = make([][]ringWrite, size)
	} else {
		for i := range c.nring {
			c.nring[i] = c.nring[i][:0]
		}
	}
	c.nrmask = size - 1
	c.ndrained = c.beat - 1
	c.nseq = 0
}

// nRingIngest moves c.pending (a restored snapshot's write pipeline, or a
// mid-run flush) into the retire ring; overdue entries retire at the next
// drain. Slice order is issue order, so fresh ascending seqs preserve it.
func (c *Context) nRingIngest() {
	mask := int64(len(c.nring)) - 1
	for i := range c.pending {
		w := &c.pending[i]
		b := w.beat
		if b <= c.ndrained {
			b = c.ndrained + 1
		}
		c.nring[b&mask] = append(c.nring[b&mask], ringWrite{val: w.val, pc: int32(w.pc), seq: c.nseq, dst: w.dst})
		c.nseq++
	}
	c.pending = c.pending[:0]
}

// nRingFlush drains the in-flight ring entries back into c.pending — the
// representation Snapshot serializes — in issue order, exactly the queue
// the checked interpreter would be carrying. The next native step
// re-ingests them, so flushing mid-run is safe.
func (c *Context) nRingFlush() {
	if len(c.nring) == 0 {
		return
	}
	mask := int64(len(c.nring)) - 1
	sc := c.nscratch[:0]
	var beats []int64
	for off := int64(0); off <= mask; off++ {
		b := c.ndrained + 1 + off
		bucket := c.nring[b&mask]
		for i := range bucket {
			sc = append(sc, bucket[i])
			beats = append(beats, b)
		}
		c.nring[b&mask] = bucket[:0]
	}
	for i := 1; i < len(sc); i++ {
		for j := i; j > 0 && int32(sc[j-1].seq-sc[j].seq) > 0; j-- {
			sc[j-1], sc[j] = sc[j], sc[j-1]
			beats[j-1], beats[j] = beats[j], beats[j-1]
		}
	}
	for i := range sc {
		c.pending = append(c.pending, pendingWrite{beat: beats[i], dst: sc[i].dst, val: sc[i].val, pc: int(sc[i].pc)})
	}
	c.nscratch = sc[:0]
}

// nRingDrain retires every ring bucket due through the current beat. The
// hot path — the clock advanced exactly one beat — applies one bucket with
// no scan and no copies; stall/trap jumps take the multi-beat slow path.
func (c *Context) nRingDrain(m *Machine) {
	start, end := c.ndrained+1, c.beat
	if start > end {
		return
	}
	c.ndrained = end
	mask := int64(len(c.nring)) - 1
	if start == end {
		b := c.nring[end&mask]
		if len(b) == 0 {
			return
		}
		if m.InjectWrite == nil {
			for i := range b {
				c.writeReg(b[i].dst, b[i].val)
			}
		} else {
			for i := range b {
				c.writeReg(b[i].dst, m.InjectWrite(c.beat, b[i].dst, b[i].val))
			}
		}
		c.nring[end&mask] = b[:0]
		return
	}
	c.nRingDrainSlow(m, start, end)
}

// nRingDrainSlow retires a multi-beat batch in issue order — the order the
// interpreter's applyWrites (a queue scan in issue order) retires a batch,
// which is observable when two due writes target one register.
func (c *Context) nRingDrainSlow(m *Machine, start, end int64) {
	mask := int64(len(c.nring)) - 1
	if end-start > mask {
		start = end - mask // every slot covered once; all entries are due
	}
	sc := c.nscratch[:0]
	for b := start; b <= end; b++ {
		bucket := c.nring[b&mask]
		sc = append(sc, bucket...)
		c.nring[b&mask] = bucket[:0]
	}
	for i := 1; i < len(sc); i++ {
		for j := i; j > 0 && int32(sc[j-1].seq-sc[j].seq) > 0; j-- {
			sc[j-1], sc[j] = sc[j], sc[j-1]
		}
	}
	if m.InjectWrite == nil {
		for i := range sc {
			c.writeReg(sc[i].dst, sc[i].val)
		}
	} else {
		for i := range sc {
			c.writeReg(sc[i].dst, m.InjectWrite(c.beat, sc[i].dst, sc[i].val))
		}
	}
	c.nscratch = sc[:0]
}

// statsBulk is the unconditional counter delta for a run of slots, summed
// at translation time and applied in one shot at execution. Fault closures
// carry the suffix of the word that no longer executes and subtract it back
// out, so trapping runs report the same counters as the checked
// interpreter's op-at-a-time increments.
type statsBulk struct {
	ops       int64
	floatOps  int64
	memRefs   int64
	loads     int64
	stores    int64
	specLoads int64
	branches  int64
	syscalls  int64
}

func (b *statsBulk) apply(s *Stats) {
	s.Ops += b.ops
	s.FloatOps += b.floatOps
	s.MemRefs += b.memRefs
	s.Loads += b.loads
	s.Stores += b.stores
	s.SpecLoads += b.specLoads
	s.Branches += b.branches
	s.Syscalls += b.syscalls
}

func (b *statsBulk) unapply(s *Stats) {
	s.Ops -= b.ops
	s.FloatOps -= b.floatOps
	s.MemRefs -= b.memRefs
	s.Loads -= b.loads
	s.Stores -= b.stores
	s.SpecLoads -= b.specLoads
	s.Branches -= b.branches
	s.Syscalls -= b.syscalls
}

func (b *statsBulk) add(o *statsBulk) {
	b.ops += o.ops
	b.floatOps += o.floatOps
	b.memRefs += o.memRefs
	b.loads += o.loads
	b.stores += o.stores
	b.specLoads += o.specLoads
	b.branches += o.branches
	b.syscalls += o.syscalls
}

// nSlot is one slot's translation input: the op, whether a safety
// certificate proves its guard redundant, and the precomputed latency/unit
// attribution, exactly the planOp fields.
type nSlot struct {
	op       *mach.Op
	proven   bool
	unitKind mach.UnitKind
	unitName string
	lat      int
}

// opBulk returns a slot's unconditional counter contribution — the
// counters the checked interpreter increments before any guard can fire,
// so they stay counted even when the slot itself faults.
func opBulk(s *nSlot) statsBulk {
	b := statsBulk{ops: 1}
	if s.unitKind == mach.UBR {
		switch s.op.Kind {
		case mach.OpBrT, mach.OpJmp, mach.OpCall, mach.OpJmpR:
			b.branches = 1
		case mach.OpSyscall:
			b.syscalls = 1
		}
		return b
	}
	switch s.op.Kind {
	case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv:
		b.floatOps = 1
	case ir.Load:
		b.memRefs, b.loads = 1, 1
	case ir.LoadSpec:
		b.memRefs, b.loads, b.specLoads = 1, 1, 1
	case ir.Store:
		b.memRefs, b.stores = 1, 1
	}
	return b
}

// iregArg reports whether a names an integer-bank register and returns its
// pre-masked board/index — the dominant operand shape, which the builders
// below specialize so the closure reads the bank directly with no call.
func iregArg(a mach.Arg) (bd, ix int, ok bool) {
	if a.IsImm || !a.Reg.Valid() || a.Reg.Bank != mach.BankI {
		return 0, 0, false
	}
	return int(a.Reg.Board) & 3, int(a.Reg.Idx) & 63, true
}

// fregArg is iregArg for the float bank.
func fregArg(a mach.Arg) (bd, ix int, ok bool) {
	if a.IsImm || !a.Reg.Valid() || a.Reg.Bank != mach.BankF {
		return 0, 0, false
	}
	return int(a.Reg.Board) & 3, int(a.Reg.Idx) & 31, true
}

// nReadU compiles Context.readArg for one operand: immediates and invalid
// registers fold to constants, register reads become direct bank indexing.
// The index masks (matching each bank's power-of-two geometry) sit inside
// the closure body so the compiler's prove pass deletes the bounds checks.
func nReadU(a mach.Arg) func(*Context) uint64 {
	if a.IsImm {
		v := uint64(uint32(a.Imm))
		return func(*Context) uint64 { return v }
	}
	if !a.Reg.Valid() {
		return func(*Context) uint64 { return 0 }
	}
	bd, ix := int(a.Reg.Board), int(a.Reg.Idx)
	switch a.Reg.Bank {
	case mach.BankI:
		return func(c *Context) uint64 { return uint64(c.iregs[bd&3][ix&63]) }
	case mach.BankF:
		return func(c *Context) uint64 { return c.fregs[bd&3][ix&31] }
	case mach.BankSF:
		return func(c *Context) uint64 { return c.sf[bd&3][ix&15] }
	default: // BankB
		return func(c *Context) uint64 {
			if c.bb[bd&3][ix&7] {
				return 1
			}
			return 0
		}
	}
}

// nReadI compiles Context.readI.
func nReadI(a mach.Arg) func(*Context) int32 {
	if a.IsImm {
		v := a.Imm
		return func(*Context) int32 { return v }
	}
	if !a.Reg.Valid() {
		return func(*Context) int32 { return 0 }
	}
	if bd, ix, ok := iregArg(a); ok {
		return func(c *Context) int32 { return int32(c.iregs[bd][ix]) }
	}
	u := nReadU(a)
	return func(c *Context) int32 { return int32(uint32(u(c))) }
}

// nReadF compiles Context.readF.
func nReadF(a mach.Arg) func(*Context) float64 {
	if bd, ix, ok := fregArg(a); ok {
		return func(c *Context) float64 { return math.Float64frombits(c.fregs[bd][ix]) }
	}
	u := nReadU(a)
	return func(c *Context) float64 { return math.Float64frombits(u(c)) }
}

// nEA compiles the effective-address sum int64(readI(A)) + int64(readI(B))
// — the form the guard-free sites and the prescan's eaOf use — with the
// dominant register+immediate shape fused into a single closure.
func nEA(o *mach.Op) func(*Context) int64 {
	if bd, ix, ok := iregArg(o.A); ok && o.B.IsImm {
		off := int64(o.B.Imm)
		return func(c *Context) int64 { return int64(int32(c.iregs[bd][ix])) + off }
	}
	ga, gb := nReadI(o.A), nReadI(o.B)
	return func(c *Context) int64 { return int64(ga(c)) + int64(gb(c)) }
}

// nEAExec is nEA with eaOf's invalid-base quirk preserved: a memory op
// whose base operand names no register computes ea=0 at execution (eaOf
// returns ok=false and the exec path ignores the flag), landing on the
// guard's bus-error/funny-number path exactly as the interpreter does.
func nEAExec(o *mach.Op) func(*Context) int64 {
	if !o.A.IsImm && !o.A.Reg.Valid() {
		return func(*Context) int64 { return 0 }
	}
	return nEA(o)
}

// nFault raises a guarded-site fault from a translated closure: the
// not-yet-executed suffix of the word's bulk counters is rolled back and
// the unit attribution the interpreter would have set via curUnit is
// restored, so the Fault renders byte-identically to the other tiers.
func (m *Machine) nFault(c *Context, rb *statsBulk, unit string, code TrapCode, format string, args ...any) error {
	rb.unapply(&m.Stats)
	m.curUnit = unit
	return m.fault(c, code, format, args...)
}

// nbrTake applies the §6.5.2 multiway-branch priority rule for one taken
// test: lowest Prio wins, first in slot order on ties.
func (m *Machine) nbrTake(prio, target int) {
	if !m.nTaken || prio < m.nBestPrio {
		m.nTaken = true
		m.nBestPrio = prio
		m.nNextPC = target
	}
}

// nFastShape emits fully fused closures — operand reads, the operation,
// and the ring push all inline, no operator callback — for the op kinds
// and operand shapes that dominate compacted inner loops: integer
// add/sub/compare on reg⊕imm and reg⊕reg, and float add/sub/mul on
// freg⊕freg. Returns nil when the generic builders should be used.
func nFastShape(o *mach.Op, dst mach.PReg, lat int64) nativeOp {
	if !dst.Valid() {
		return nil
	}
	if abd, aix, ok := fregArg(o.A); ok {
		bbd, bix, ok := fregArg(o.B)
		if !ok {
			return nil
		}
		switch o.Kind {
		case ir.FAdd:
			return func(m *Machine, c *Context) error {
				v := math.Float64frombits(c.fregs[abd][aix]) + math.Float64frombits(c.fregs[bbd][bix])
				c.npush(c.beat+lat, dst, math.Float64bits(v))
				return nil
			}
		case ir.FSub:
			return func(m *Machine, c *Context) error {
				v := math.Float64frombits(c.fregs[abd][aix]) - math.Float64frombits(c.fregs[bbd][bix])
				c.npush(c.beat+lat, dst, math.Float64bits(v))
				return nil
			}
		case ir.FMul:
			return func(m *Machine, c *Context) error {
				v := math.Float64frombits(c.fregs[abd][aix]) * math.Float64frombits(c.fregs[bbd][bix])
				c.npush(c.beat+lat, dst, math.Float64bits(v))
				return nil
			}
		}
		return nil
	}
	abd, aix, ok := iregArg(o.A)
	if !ok {
		return nil
	}
	if o.B.IsImm {
		bv := o.B.Imm
		switch o.Kind {
		case ir.Add:
			return func(m *Machine, c *Context) error {
				c.npush(c.beat+lat, dst, iBits(int32(c.iregs[abd][aix])+bv))
				return nil
			}
		case ir.Sub:
			return func(m *Machine, c *Context) error {
				c.npush(c.beat+lat, dst, iBits(int32(c.iregs[abd][aix])-bv))
				return nil
			}
		case ir.CmpLT:
			return func(m *Machine, c *Context) error {
				c.npush(c.beat+lat, dst, bBits(int32(c.iregs[abd][aix]) < bv))
				return nil
			}
		case ir.CmpGE:
			return func(m *Machine, c *Context) error {
				c.npush(c.beat+lat, dst, bBits(int32(c.iregs[abd][aix]) >= bv))
				return nil
			}
		}
		return nil
	}
	if bbd, bix, ok := iregArg(o.B); ok {
		switch o.Kind {
		case ir.Add:
			return func(m *Machine, c *Context) error {
				c.npush(c.beat+lat, dst, iBits(int32(c.iregs[abd][aix])+int32(c.iregs[bbd][bix])))
				return nil
			}
		case ir.Sub:
			return func(m *Machine, c *Context) error {
				c.npush(c.beat+lat, dst, iBits(int32(c.iregs[abd][aix])-int32(c.iregs[bbd][bix])))
				return nil
			}
		case ir.CmpLT:
			return func(m *Machine, c *Context) error {
				c.npush(c.beat+lat, dst, bBits(int32(c.iregs[abd][aix]) < int32(c.iregs[bbd][bix])))
				return nil
			}
		}
	}
	return nil
}

// nALU2 builds a binary integer-ALU closure. The write-pipeline append is
// fused into the closure (no enqueue call), and the two dominant operand
// shapes — reg⊕imm and reg⊕reg — read the integer bank directly.
func nALU2(o *mach.Op, dst mach.PReg, lat int64, f func(a, b int32) int32) nativeOp {
	if !dst.Valid() {
		ga, gb := nReadI(o.A), nReadI(o.B)
		return func(m *Machine, c *Context) error {
			_ = f(ga(c), gb(c))
			return nil
		}
	}
	if abd, aix, ok := iregArg(o.A); ok {
		if o.B.IsImm {
			bv := o.B.Imm
			return func(m *Machine, c *Context) error {
				v := f(int32(c.iregs[abd][aix]), bv)
				c.npush(c.beat+lat, dst, iBits(v))
				return nil
			}
		}
		if bbd, bix, ok := iregArg(o.B); ok {
			return func(m *Machine, c *Context) error {
				v := f(int32(c.iregs[abd][aix]), int32(c.iregs[bbd][bix]))
				c.npush(c.beat+lat, dst, iBits(v))
				return nil
			}
		}
	}
	ga, gb := nReadI(o.A), nReadI(o.B)
	return func(m *Machine, c *Context) error {
		v := f(ga(c), gb(c))
		c.npush(c.beat+lat, dst, iBits(v))
		return nil
	}
}

// nCmp2 builds an integer-compare closure (result into the branch bank).
func nCmp2(o *mach.Op, dst mach.PReg, lat int64, f func(a, b int32) bool) nativeOp {
	if !dst.Valid() {
		ga, gb := nReadI(o.A), nReadI(o.B)
		return func(m *Machine, c *Context) error {
			_ = f(ga(c), gb(c))
			return nil
		}
	}
	if abd, aix, ok := iregArg(o.A); ok {
		if o.B.IsImm {
			bv := o.B.Imm
			return func(m *Machine, c *Context) error {
				v := f(int32(c.iregs[abd][aix]), bv)
				c.npush(c.beat+lat, dst, bBits(v))
				return nil
			}
		}
		if bbd, bix, ok := iregArg(o.B); ok {
			return func(m *Machine, c *Context) error {
				v := f(int32(c.iregs[abd][aix]), int32(c.iregs[bbd][bix]))
				c.npush(c.beat+lat, dst, bBits(v))
				return nil
			}
		}
	}
	ga, gb := nReadI(o.A), nReadI(o.B)
	return func(m *Machine, c *Context) error {
		v := f(ga(c), gb(c))
		c.npush(c.beat+lat, dst, bBits(v))
		return nil
	}
}

// nFALU2 builds a binary floating-ALU closure.
func nFALU2(o *mach.Op, dst mach.PReg, lat int64, f func(a, b float64) float64) nativeOp {
	if !dst.Valid() {
		ga, gb := nReadF(o.A), nReadF(o.B)
		return func(m *Machine, c *Context) error {
			_ = f(ga(c), gb(c))
			return nil
		}
	}
	if abd, aix, ok := fregArg(o.A); ok {
		if bbd, bix, ok := fregArg(o.B); ok {
			return func(m *Machine, c *Context) error {
				v := f(math.Float64frombits(c.fregs[abd][aix]), math.Float64frombits(c.fregs[bbd][bix]))
				c.npush(c.beat+lat, dst, math.Float64bits(v))
				return nil
			}
		}
	}
	ga, gb := nReadF(o.A), nReadF(o.B)
	return func(m *Machine, c *Context) error {
		v := f(ga(c), gb(c))
		c.npush(c.beat+lat, dst, math.Float64bits(v))
		return nil
	}
}

// nFCmp2 builds a floating-compare closure.
func nFCmp2(o *mach.Op, dst mach.PReg, lat int64, f func(a, b float64) bool) nativeOp {
	if !dst.Valid() {
		ga, gb := nReadF(o.A), nReadF(o.B)
		return func(m *Machine, c *Context) error {
			_ = f(ga(c), gb(c))
			return nil
		}
	}
	if abd, aix, ok := fregArg(o.A); ok {
		if bbd, bix, ok := fregArg(o.B); ok {
			return func(m *Machine, c *Context) error {
				v := f(math.Float64frombits(c.fregs[abd][aix]), math.Float64frombits(c.fregs[bbd][bix]))
				c.npush(c.beat+lat, dst, bBits(v))
				return nil
			}
		}
	}
	ga, gb := nReadF(o.A), nReadF(o.B)
	return func(m *Machine, c *Context) error {
		v := f(ga(c), gb(c))
		c.npush(c.beat+lat, dst, bBits(v))
		return nil
	}
}

// nConst builds a push-constant closure. ConstI/ConstF are frequent enough
// in compacted traces that the nMov1 callback indirection shows up in
// profiles; the constant is baked into the closure instead.
func nConst(dst mach.PReg, lat int64, v uint64) nativeOp {
	if !dst.Valid() {
		return func(m *Machine, c *Context) error { return nil }
	}
	return func(m *Machine, c *Context) error {
		c.npush(c.beat+lat, dst, v)
		return nil
	}
}

// nMovReg builds a register-to-register move with the source read inlined
// when the source bank is statically I or F; other shapes (immediates went
// to nConst, odd banks are rare) fall back to nMov1.
func nMovReg(o *mach.Op, dst mach.PReg, lat int64) nativeOp {
	if dst.Valid() {
		if bd, ix, ok := iregArg(o.A); ok {
			return func(m *Machine, c *Context) error {
				c.npush(c.beat+lat, dst, uint64(c.iregs[bd][ix]))
				return nil
			}
		}
		if bd, ix, ok := fregArg(o.A); ok {
			return func(m *Machine, c *Context) error {
				c.npush(c.beat+lat, dst, c.fregs[bd][ix])
				return nil
			}
		}
	}
	return nMov1(dst, lat, nReadU(o.A))
}

// nMov1 builds a unary move/convert closure writing a precomputed uint64.
func nMov1(dst mach.PReg, lat int64, g func(*Context) uint64) nativeOp {
	if !dst.Valid() {
		return func(m *Machine, c *Context) error {
			_ = g(c)
			return nil
		}
	}
	return func(m *Machine, c *Context) error {
		c.npush(c.beat+lat, dst, g(c))
		return nil
	}
}

// compileBranch translates one branch-unit slot (mirrors execBranch).
func compileBranch(o *mach.Op, unitName string, rb statsBulk) nativeOp {
	switch o.Kind {
	case mach.OpBrT:
		cond := nReadU(o.A)
		t, prio := o.Target, o.Prio
		if t < 0 {
			return func(m *Machine, c *Context) error { return nil }
		}
		return func(m *Machine, c *Context) error {
			if cond(c) != 0 {
				m.nbrTake(prio, t)
			}
			return nil
		}
	case mach.OpJmp:
		t, prio := o.Target, o.Prio
		if t < 0 {
			return func(m *Machine, c *Context) error { return nil }
		}
		return func(m *Machine, c *Context) error {
			m.nbrTake(prio, t)
			return nil
		}
	case mach.OpCall:
		t, prio := o.Target, o.Prio
		lr := mach.RegLR
		return func(m *Machine, c *Context) error {
			c.npush(c.beat+1, lr, uint64(uint32(c.pc+1)))
			if t >= 0 {
				m.nbrTake(prio, t)
			}
			return nil
		}
	case mach.OpJmpR:
		ga := nReadU(o.A)
		prio := o.Prio
		return func(m *Machine, c *Context) error {
			if t := int(int32(uint32(ga(c)))); t >= 0 {
				m.nbrTake(prio, t)
			}
			return nil
		}
	case mach.OpHalt:
		bd, ix := int(mach.RegRVI.Board), int(mach.RegRVI.Idx)
		return func(m *Machine, c *Context) error {
			m.nHalted = true
			m.nExit = int32(c.iregs[bd&3][ix&63])
			return nil
		}
	case mach.OpSyscall:
		switch o.Sym {
		case "print_i":
			return func(m *Machine, c *Context) error {
				fmt.Fprintf(&c.out, "%d\n", int32(c.iregs[0][mach.ArgIBase]))
				return nil
			}
		case "print_f":
			return func(m *Machine, c *Context) error {
				fmt.Fprintf(&c.out, "%g\n", math.Float64frombits(c.fregs[0][mach.ArgFBase]))
				return nil
			}
		default:
			sym := o.Sym
			return func(m *Machine, c *Context) error {
				return m.nFault(c, &rb, unitName, TrapSyscall, "unknown syscall %q", sym)
			}
		}
	}
	name := mach.OpName(o.Kind)
	return func(m *Machine, c *Context) error {
		return m.nFault(c, &rb, unitName, TrapBadOp, "%s on branch unit", name)
	}
}

// compileLoad translates a guarded (unproven-site) load, preserving
// execLoad's semantics exactly: counter order, the speculative
// funny-number path, and the alignment-before-bounds fault precedence.
func compileLoad(o *mach.Op, lat int64, unitName string, rb statsBulk, g bankGeom) nativeOp {
	ea := nEAExec(o)
	dst := o.Dst
	size := o.Type.Size()
	spec := o.Kind == ir.LoadSpec
	isI32 := o.Type == ir.I32
	funnyI := int32(ir.FunnyI32)
	var funny uint64
	if isI32 {
		funny = uint64(uint32(funnyI))
	} else {
		funny = math.Float64bits(math.NaN())
	}
	return func(m *Machine, c *Context) error {
		a := ea(c)
		if a < ir.GlobalBase || a+size > int64(len(c.mem)) || a%size != 0 {
			if spec {
				m.Stats.SpecFaults++
				if dst.Valid() {
					c.npush(c.beat+lat, dst, funny)
				}
				return nil
			}
			if a%size != 0 {
				return m.nFault(c, &rb, unitName, TrapUnaligned, "unaligned %d-byte load %#x", size, a)
			}
			return m.nFault(c, &rb, unitName, TrapMemBounds, "bus error: load %#x", a)
		}
		if g.ok {
			g.touch(c, a)
		} else {
			m.touchBank(a)
		}
		var v uint64
		if isI32 {
			v = uint64(binary.LittleEndian.Uint32(c.mem[a:]))
		} else {
			v = binary.LittleEndian.Uint64(c.mem[a:])
		}
		if dst.Valid() {
			c.npush(c.beat+lat, dst, v)
		}
		return nil
	}
}

// compileStore translates a guarded store (mirrors execStore: bounds
// before alignment).
func compileStore(o *mach.Op, unitName string, rb statsBulk, g bankGeom) nativeOp {
	ea := nEAExec(o)
	gc := nReadU(o.C)
	size := o.Type.Size()
	isI32 := o.Type == ir.I32
	return func(m *Machine, c *Context) error {
		a := ea(c)
		if a < ir.GlobalBase || a+size > int64(len(c.mem)) {
			return m.nFault(c, &rb, unitName, TrapMemBounds, "bus error: store %#x", a)
		}
		if a%size != 0 {
			return m.nFault(c, &rb, unitName, TrapUnaligned, "unaligned %d-byte store %#x", size, a)
		}
		if g.ok {
			g.touch(c, a)
		} else {
			m.touchBank(a)
		}
		v := gc(c)
		if isI32 {
			v = uint64(uint32(v))
			binary.LittleEndian.PutUint32(c.mem[a:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(c.mem[a:], v)
		}
		if m.WatchStore != nil {
			m.WatchStore(a, v)
		}
		return nil
	}
}

// compileSafeLoad translates a proven load: no guard at all. A
// post-certification mutation that drives the address wild hits the Go
// runtime's slice bounds check; the run loops convert the panic to the
// matching Fault (safeTierFault).
func compileSafeLoad(o *mach.Op, lat int64, f64 bool, g bankGeom) nativeOp {
	ea := nEA(o)
	dst := o.Dst
	if !dst.Valid() {
		// The read must still happen: its bounds panic is the backstop.
		if f64 {
			return func(m *Machine, c *Context) error {
				a := ea(c)
				if g.ok {
					g.touch(c, a)
				} else {
					m.touchBank(a)
				}
				_ = binary.LittleEndian.Uint64(c.mem[a:])
				return nil
			}
		}
		return func(m *Machine, c *Context) error {
			a := ea(c)
			if g.ok {
				g.touch(c, a)
			} else {
				m.touchBank(a)
			}
			_ = binary.LittleEndian.Uint32(c.mem[a:])
			return nil
		}
	}
	if f64 {
		return func(m *Machine, c *Context) error {
			a := ea(c)
			if g.ok {
				g.touch(c, a)
			} else {
				m.touchBank(a)
			}
			v := binary.LittleEndian.Uint64(c.mem[a:])
			c.npush(c.beat+lat, dst, v)
			return nil
		}
	}
	return func(m *Machine, c *Context) error {
		a := ea(c)
		if g.ok {
			g.touch(c, a)
		} else {
			m.touchBank(a)
		}
		v := uint64(binary.LittleEndian.Uint32(c.mem[a:]))
		c.npush(c.beat+lat, dst, v)
		return nil
	}
}

// compileSafeStore translates a proven store: no guard at all.
func compileSafeStore(o *mach.Op, f64 bool, g bankGeom) nativeOp {
	ea := nEA(o)
	gc := nReadU(o.C)
	if f64 {
		return func(m *Machine, c *Context) error {
			a := ea(c)
			if g.ok {
				g.touch(c, a)
			} else {
				m.touchBank(a)
			}
			v := gc(c)
			binary.LittleEndian.PutUint64(c.mem[a:], v)
			if m.WatchStore != nil {
				m.WatchStore(a, v)
			}
			return nil
		}
	}
	return func(m *Machine, c *Context) error {
		a := ea(c)
		if g.ok {
			g.touch(c, a)
		} else {
			m.touchBank(a)
		}
		v := uint64(uint32(gc(c)))
		binary.LittleEndian.PutUint32(c.mem[a:], uint32(v))
		if m.WatchStore != nil {
			m.WatchStore(a, v)
		}
		return nil
	}
}

// compileExec translates one non-branch slot (mirrors execOp case for
// case). A proven slot — one a SafetyCertificate covers — translates to its
// guard-free variant.
func compileExec(o *mach.Op, proven bool, lat64 int, unitName string, rb statsBulk, g bankGeom) nativeOp {
	dst := o.Dst
	lat := int64(lat64)
	if f := nFastShape(o, dst, lat); f != nil {
		return f
	}
	switch o.Kind {
	case ir.Nop:
		return nil
	case ir.ConstI:
		if o.A.IsImm {
			return nConst(dst, lat, iBits(o.A.Imm))
		}
		ga := nReadI(o.A)
		return nMov1(dst, lat, func(c *Context) uint64 { return iBits(ga(c)) })
	case ir.ConstF:
		return nConst(dst, lat, fBits(o.FImm))
	case ir.Mov, mach.OpMovSF:
		return nMovReg(o, dst, lat)
	case ir.Add:
		return nALU2(o, dst, lat, func(a, b int32) int32 { return a + b })
	case ir.Sub:
		return nALU2(o, dst, lat, func(a, b int32) int32 { return a - b })
	case ir.Mul:
		return nALU2(o, dst, lat, func(a, b int32) int32 { return a * b })
	case ir.Div:
		if proven {
			return nALU2(o, dst, lat, func(a, b int32) int32 { return a / b })
		}
		ga, gb := nReadI(o.A), nReadI(o.B)
		return func(m *Machine, c *Context) error {
			d := gb(c)
			if d == 0 {
				return m.nFault(c, &rb, unitName, TrapDivZero, "integer divide by zero")
			}
			if dst.Valid() {
				c.npush(c.beat+lat, dst, iBits(ga(c)/d))
			}
			return nil
		}
	case ir.Rem:
		if proven {
			return nALU2(o, dst, lat, func(a, b int32) int32 { return a % b })
		}
		ga, gb := nReadI(o.A), nReadI(o.B)
		return func(m *Machine, c *Context) error {
			d := gb(c)
			if d == 0 {
				return m.nFault(c, &rb, unitName, TrapDivZero, "integer remainder by zero")
			}
			if dst.Valid() {
				c.npush(c.beat+lat, dst, iBits(ga(c)%d))
			}
			return nil
		}
	case ir.And:
		return nALU2(o, dst, lat, func(a, b int32) int32 { return a & b })
	case ir.Or:
		return nALU2(o, dst, lat, func(a, b int32) int32 { return a | b })
	case ir.Xor:
		return nALU2(o, dst, lat, func(a, b int32) int32 { return a ^ b })
	case ir.Shl:
		return nALU2(o, dst, lat, func(a, b int32) int32 { return a << (uint32(b) & 31) })
	case ir.Shr:
		return nALU2(o, dst, lat, func(a, b int32) int32 { return int32(uint32(a) >> (uint32(b) & 31)) })
	case ir.Sra:
		return nALU2(o, dst, lat, func(a, b int32) int32 { return a >> (uint32(b) & 31) })
	case ir.Neg:
		ga := nReadI(o.A)
		return nMov1(dst, lat, func(c *Context) uint64 { return iBits(-ga(c)) })
	case ir.Not:
		ga := nReadI(o.A)
		return nMov1(dst, lat, func(c *Context) uint64 { return iBits(^ga(c)) })
	case ir.CmpEQ:
		return nCmp2(o, dst, lat, func(a, b int32) bool { return a == b })
	case ir.CmpNE:
		return nCmp2(o, dst, lat, func(a, b int32) bool { return a != b })
	case ir.CmpLT:
		return nCmp2(o, dst, lat, func(a, b int32) bool { return a < b })
	case ir.CmpLE:
		return nCmp2(o, dst, lat, func(a, b int32) bool { return a <= b })
	case ir.CmpGT:
		return nCmp2(o, dst, lat, func(a, b int32) bool { return a > b })
	case ir.CmpGE:
		return nCmp2(o, dst, lat, func(a, b int32) bool { return a >= b })
	case ir.FAdd:
		return nFALU2(o, dst, lat, func(a, b float64) float64 { return a + b })
	case ir.FSub:
		return nFALU2(o, dst, lat, func(a, b float64) float64 { return a - b })
	case ir.FMul:
		return nFALU2(o, dst, lat, func(a, b float64) float64 { return a * b })
	case ir.FDiv:
		// NaN/Inf propagate, no trap (§7) — guard-free on every tier.
		return nFALU2(o, dst, lat, func(a, b float64) float64 { return a / b })
	case ir.FNeg:
		ga := nReadF(o.A)
		return nMov1(dst, lat, func(c *Context) uint64 { return fBits(-ga(c)) })
	case ir.FCmpEQ:
		return nFCmp2(o, dst, lat, func(a, b float64) bool { return a == b })
	case ir.FCmpNE:
		return nFCmp2(o, dst, lat, func(a, b float64) bool { return a != b })
	case ir.FCmpLT:
		return nFCmp2(o, dst, lat, func(a, b float64) bool { return a < b })
	case ir.FCmpLE:
		return nFCmp2(o, dst, lat, func(a, b float64) bool { return a <= b })
	case ir.FCmpGT:
		return nFCmp2(o, dst, lat, func(a, b float64) bool { return a > b })
	case ir.FCmpGE:
		return nFCmp2(o, dst, lat, func(a, b float64) bool { return a >= b })
	case ir.ItoF:
		ga := nReadI(o.A)
		return nMov1(dst, lat, func(c *Context) uint64 { return fBits(float64(ga(c))) })
	case ir.FtoI:
		ga := nReadF(o.A)
		funnyI := int32(ir.FunnyI32)
		funny := iBits(funnyI)
		return nMov1(dst, lat, func(c *Context) uint64 {
			v := ga(c)
			if math.IsNaN(v) || v > math.MaxInt32 || v < math.MinInt32 {
				return funny
			}
			return iBits(int32(v))
		})
	case ir.Select:
		ga, gb, gcv := nReadU(o.A), nReadU(o.B), nReadU(o.C)
		return nMov1(dst, lat, func(c *Context) uint64 {
			if ga(c) != 0 {
				return gb(c)
			}
			return gcv(c)
		})
	case ir.Load, ir.LoadSpec:
		if proven && guardFreeType(o.Type) {
			return compileSafeLoad(o, lat, o.Type == ir.F64, g)
		}
		return compileLoad(o, lat, unitName, rb, g)
	case ir.Store:
		if proven && guardFreeType(o.Type) {
			return compileSafeStore(o, o.Type == ir.F64, g)
		}
		return compileStore(o, unitName, rb, g)
	}
	name := mach.OpName(o.Kind)
	return func(m *Machine, c *Context) error {
		return m.nFault(c, &rb, unitName, TrapBadOp, "cannot execute %s", name)
	}
}

// guardFreeType reports whether a memory access type has a guard-free
// translation: the safety analysis only proves I32 and F64 accesses.
func guardFreeType(t ir.Type) bool { return t == ir.I32 || t == ir.F64 }

// buildNativePlan translates every instruction word of the image under a
// certificate. A bare resource Certificate keeps every value guard; a
// SafetyCertificate also removes the guard of each (word, unit, beat) site
// its bitmask proves.
func buildNativePlan(img *isa.Image, cert Certificate) *nativePlan {
	safe, _ := cert.(SafetyCertificate)
	cfg := img.Cfg
	np := &nativePlan{
		words:    make([]nativeWord, len(img.Instrs)),
		geom:     geomOf(cfg),
		itagMask: -1,
	}
	if n := cfg.ICacheInstrs; n > 0 && n&(n-1) == 0 {
		np.itagMask = n - 1
	}

	unitNames := map[mach.Unit]string{}
	nameOf := func(u mach.Unit) string {
		s, ok := unitNames[u]
		if !ok {
			s = u.String()
			unitNames[u] = s
		}
		return s
	}

	maxLat := 1
	for a := range img.Instrs {
		in := &img.Instrs[a]
		nw := &np.words[a]
		var beats [2][]nSlot
		for si := range in.Slots {
			s := &in.Slots[si]
			b := s.Beat & 1
			lat := latency(cfg, &s.Op)
			if lat > maxLat {
				maxLat = lat
			}
			beats[b] = append(beats[b], nSlot{
				op:       &s.Op,
				proven:   safe != nil && safe.SafeSite(a, s.Unit, s.Beat),
				unitKind: s.Unit.Kind,
				unitName: nameOf(s.Unit),
				lat:      lat,
			})
			// Prescan list: same membership as the interpreter's, which
			// skips statically-unresolvable bases (eaOf ok=false).
			if isMemOp(s.Op.Kind) && (s.Op.A.IsImm || s.Op.A.Reg.Valid()) {
				nw.mem = append(nw.mem, nativeMem{ea: nEA(&s.Op), beat: int64(b)})
			}
		}
		// Per-beat bulks and the whole-word bulk applied at word start.
		var bulks [2][]statsBulk
		var beatTotal [2]statsBulk
		for b := 0; b < 2; b++ {
			bulks[b] = make([]statsBulk, len(beats[b]))
			for i := range beats[b] {
				bulks[b][i] = opBulk(&beats[b][i])
				beatTotal[b].add(&bulks[b][i])
			}
			nw.bulk.add(&beatTotal[b])
		}
		for b := 0; b < 2; b++ {
			slots := beats[b]
			// Fault rollback: each slot captures the bulk sum of everything
			// in the word that no longer executes after it traps — the rest
			// of its own beat, plus (for beat 0) all of beat 1, since the
			// word's whole bulk was applied up front. The slot's own
			// pre-guard counters stay, matching the interpreter.
			ops := make([]nativeOp, 0, len(slots))
			suffix := make([]statsBulk, len(slots))
			var acc statsBulk
			if b == 0 {
				acc = beatTotal[1]
			}
			for i := len(slots) - 1; i >= 0; i-- {
				suffix[i] = acc
				acc.add(&bulks[b][i])
			}
			for i := range slots {
				s := &slots[i]
				var f nativeOp
				if s.unitKind == mach.UBR {
					f = compileBranch(s.op, s.unitName, suffix[i])
				} else {
					f = compileExec(s.op, s.proven, s.lat, s.unitName, suffix[i], np.geom)
				}
				if f != nil {
					ops = append(ops, f)
				}
			}
			nw.beats[b] = nChain(ops)
		}
	}
	// The retire ring needs strictly more buckets than the longest latency
	// so a freshly issued write can never alias an undrained bucket.
	np.ringSize = 16
	for np.ringSize <= int64(maxLat)+1 {
		np.ringSize *= 2
	}
	return np
}

// UseNativeCertificate arms the native tier for every resident context
// running the certified image: the per-slot interpreter is replaced by the
// image's closure-threaded translation, and the dynamic resource and
// write-race checks the certificate discharges are skipped. A bare resource
// Certificate keeps every value guard — bounds, alignment, zero divisor;
// a SafetyCertificate also deletes the guard at each site it proves. Exit,
// output, and every Stats counter are bit-identical to the checked tier.
// The certificate must cover an image at least one resident context is
// executing; in a mixed-program RunMany, certify each image separately. The
// translation is cached on the machine and reused when the same certificate
// is re-armed after a Reset.
func (m *Machine) UseNativeCertificate(c Certificate) error {
	if c == nil {
		return fmt.Errorf("vliw: native-tier certificate does not cover this image")
	}
	img := c.CertifiedImage()
	found := false
	for _, ctx := range m.ctxs {
		if ctx.img == img {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("vliw: native-tier certificate does not cover this image")
	}
	if m.nativeCert != c || m.nativeImg != img {
		m.nativePlan = buildNativePlan(img, c)
		m.nativeImg, m.nativeCert = img, c
	}
	for _, ctx := range m.ctxs {
		if ctx.img == img {
			ctx.nplan = m.nativePlan
			ctx.nRingArm(m.nativePlan.ringSize)
		}
	}
	return nil
}

// Tier reports the current context's execution tier.
func (m *Machine) Tier() Tier { return m.cur.Tier() }

// stepNative executes one wide instruction (two beats) of context c from
// its translated plan. It is step with the per-slot dispatch replaced by
// the closure sequence; the interrupt, fetch, DMA, prescan, and write-
// pipeline stages keep the identical semantics, with the bank geometry and
// icache indexing strength-reduced at translation time.
func (m *Machine) stepNative(c *Context) error {
	np := c.nplan
	if c.pc < 0 || c.pc >= len(np.words) {
		return m.fault(c, TrapBadPC, "instruction fetch outside image")
	}
	if len(c.pending) != 0 {
		// A restored snapshot's write pipeline (or a mid-run flush) waits
		// in c.pending; move it into the retire ring.
		c.nRingIngest()
	}
	if m.InterruptEvery > 0 && c.beat >= m.nextInterrupt {
		cost := m.InterruptBeats
		if cost == 0 {
			cost = 200
		}
		c.beat += cost
		m.Stats.Interrupts++
		m.Stats.InterruptBeats += cost
		if m.OnInterrupt != nil {
			m.OnInterrupt(m)
		}
		m.nextInterrupt = c.beat + m.InterruptEvery
	}
	m.nFetch(c, np)
	if m.TraceFn != nil {
		m.TraceFn(c.pc, c.beat)
	}
	nw := &np.words[c.pc]
	m.Stats.Instrs++

	if m.dmaRate > 0 {
		m.dmaCatchUp(c)
	}
	if len(nw.mem) > 0 {
		var stall int64
		misses := 0
		for i := range nw.mem {
			pm := &nw.mem[i]
			ea := pm.ea(c)
			if c.dtlbMiss(ea) {
				misses++
			}
			if ea < 0 {
				continue
			}
			var id int64
			if np.geom.ok {
				w := ea >> 3
				id = (w&np.geom.ctrlMask)*8 + ((w >> np.geom.ctrlShift) & np.geom.bankMask)
			} else {
				ctrl, bank := m.Cfg.BankOf(ea)
				id = int64(ctrl*8 + bank)
			}
			access := c.beat + pm.beat + mach.StageBank + stall
			if busy := c.bankBusy[id&63]; busy > access {
				stall += busy - access
			}
		}
		if misses > 0 {
			cost := int64(TrapEntryBeats + misses*TrapPerMissBeat)
			m.Stats.TLBMisses += int64(misses)
			m.Stats.TrapBeats += cost
			c.beat += cost
		}
		if stall > 0 {
			m.Stats.BankStalls += stall
			c.beat += stall
		}
	}

	m.nTaken = false
	m.nNextPC = c.pc + 1
	m.nHalted = false

	// Beat-0 drain: the clock may have jumped (stalls, TLB traps, refills,
	// interrupts) since the previous word, so take the general path unless
	// exactly one beat is due. Beat-1 always advances by exactly one beat,
	// so its drain is the single-bucket fast path inlined.
	rmask := c.nrmask
	if c.ndrained == c.beat-1 {
		c.ndrained = c.beat
		if b := c.nring[c.beat&rmask]; len(b) != 0 {
			if m.InjectWrite == nil {
				for i := range b {
					c.writeReg(b[i].dst, b[i].val)
				}
			} else {
				for i := range b {
					c.writeReg(b[i].dst, m.InjectWrite(c.beat, b[i].dst, b[i].val))
				}
			}
			c.nring[c.beat&rmask] = b[:0]
		}
	} else {
		c.nRingDrain(m)
	}
	nw.bulk.apply(&m.Stats)
	if f := nw.beats[0]; f != nil {
		if err := f(m, c); err != nil {
			return err
		}
	}
	c.beat++
	c.ndrained = c.beat
	if b := c.nring[c.beat&rmask]; len(b) != 0 {
		if m.InjectWrite == nil {
			for i := range b {
				c.writeReg(b[i].dst, b[i].val)
			}
		} else {
			for i := range b {
				c.writeReg(b[i].dst, m.InjectWrite(c.beat, b[i].dst, b[i].val))
			}
		}
		c.nring[c.beat&rmask] = b[:0]
	}
	if f := nw.beats[1]; f != nil {
		if err := f(m, c); err != nil {
			return err
		}
	}
	c.beat++

	if m.nTaken {
		m.Stats.Taken++
	}
	if m.nHalted {
		c.halted = true
		c.exit = m.nExit
		return nil
	}
	c.pc = m.nNextPC
	return nil
}

// nFetch is fetch with the icache line index strength-reduced (the modulus
// by the direct-mapped line count becomes a mask for every power-of-two
// geometry); the refill path is the shared m.refillICache.
func (m *Machine) nFetch(c *Context, np *nativePlan) {
	pc := c.pc
	ipage := int64(pc) / (PageSize / 4)
	is := ipage % TLBEntries
	if c.itlb[is] != ipage || c.itlbAsids[is] != c.asid {
		c.itlb[is] = ipage
		c.itlbAsids[is] = c.asid
		m.Stats.TLBMisses++
		m.Stats.TrapBeats += TrapEntryBeats
		c.beat += TrapEntryBeats
	}
	if len(c.img.Words) == 0 {
		// ideal machine: no encoded form, perfect cache
		m.Stats.ICacheHits++
		return
	}
	var line int
	if np.itagMask >= 0 {
		line = pc & np.itagMask
	} else {
		line = pc % len(c.itags)
	}
	if c.itags[line] == pc && c.iasids[line] == c.asid {
		m.Stats.ICacheHits++
		return
	}
	m.refillICache(c, pc)
}

// stepNativeSafe is stepNative with the per-step panic containment the
// RunMany scheduler needs, where one context's guard-free fault must retire
// only that context. The deferred recover costs a few nanoseconds per
// instruction, so the single-context run loop uses one run-level defer
// instead; RunMany's per-step scheduling work already dwarfs it.
func (m *Machine) stepNativeSafe(c *Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = m.safeTierFault(c, r)
		}
	}()
	return m.stepNative(c)
}
