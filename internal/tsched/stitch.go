package tsched

import (
	"fmt"
	"sort"

	"github.com/multiflow-repro/trace/internal/alias"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// SSlot is a scheduled op in a wide instruction, with its resolved branch
// target (filled by the stitcher).
type SSlot struct {
	Unit mach.Unit
	Beat uint8
	Op   VOp
	Prio int // branch priority within the instruction (lower wins)

	// Branch resolution: TargetSym for calls; otherwise TargetBlock/Off
	// name an instruction inside another SBlock.
	TargetBlock int
	TargetOff   int
	TargetSym   string
}

// SInstr is one wide instruction of scheduled code.
type SInstr struct {
	Slots []SSlot
}

// SBlock is a scheduled region: a compacted trace, a serialized NoCompact
// block, or a compensation block. Control may enter at offset 0 or, for
// traces with relocated join entrances, at an interior instruction.
type SBlock struct {
	ID     int
	Instrs []SInstr
}

// SFunc is a fully scheduled function awaiting register allocation.
type SFunc struct {
	Name   string
	VF     *VFunc
	Blocks []*SBlock
	Entry  int // SBlock holding the prologue
	Home   map[VReg]uint8

	// stats for the experiments
	CompOps   int // compensation ops emitted
	CopyOps   int // cross-bank copies inserted
	SpecLoads int // loads converted to the non-trapping opcodes (§7)
}

// entrance locates where control enters a scheduled vblock.
type entrance struct {
	block int // SBlock
	off   int
}

// Assemble schedules every trace of the function and stitches the results —
// with all compensation code — into an SFunc. maxTraceBlocks (0 = no limit)
// caps trace length; the driver lowers it when register pressure overflows.
func Assemble(cfg mach.Config, vf *VFunc, prof map[[2]int]float64, layout map[string]int64, maxTraceBlocks int) (*SFunc, error) {
	lv := vf.ComputeLiveness()
	traces := SelectTraces(vf, prof, maxTraceBlocks)
	home := map[VReg]uint8{}
	// precolored registers are homed by their colors
	for r, p := range vf.precolor {
		home[r] = p.Board
	}
	sf := &SFunc{Name: vf.Name, VF: vf, Home: home}
	globalForms := GlobalForms(vf, layout)
	st := &stitcher{cfg: cfg, vf: vf, sf: sf, lv: lv, layout: layout, globalForms: globalForms,
		entrances: map[int]entrance{}, joinComp: map[int]int{}, pending: map[int][]pendingBranch{},
		serialReady: map[*SBlock]map[VReg]int{}, serialRes: map[*SBlock]*serialState{}}

	for _, tr := range traces {
		if vf.Blocks[tr.Blocks[0]].NoCompact {
			st.addSerialBlock(tr.Blocks[0])
			continue
		}
		if err := st.addTrace(tr); err != nil {
			return nil, err
		}
	}
	if err := st.resolve(); err != nil {
		return nil, err
	}
	// entry = the SBlock holding vblock 0 (the prologue)
	e, ok := st.entrances[0]
	if !ok || e.off != 0 {
		return nil, fmt.Errorf("%s: prologue has no entrance", vf.Name)
	}
	sf.Entry = e.block
	return sf, nil
}

// pendingBranch records a branch slot awaiting target resolution.
type pendingBranch struct {
	block, instr, slot int
}

type stitcher struct {
	cfg    mach.Config
	vf     *VFunc
	sf     *SFunc
	lv     *VLiveness
	layout map[string]int64

	entrances   map[int]entrance // vblock -> where control enters
	joinComp    map[int]int      // vblock -> comp SBlock that must precede entry
	pending     map[int][]pendingBranch
	globalForms map[VReg]alias.Form

	// serialReady tracks, per serialized block, the earliest instruction
	// index at which each register's value is usable (its producer's write
	// has landed). Serial blocks insert empty instructions to respect
	// latencies — the interlock-free hardware will not wait for them.
	serialReady map[*SBlock]map[VReg]int
	// serialRes tracks slot usage for packed serialization.
	serialRes map[*SBlock]*serialState
}

// serialState packs several independent ops into each instruction of a
// serialized block (comp blocks and the calling convention). res reserves
// the block's structural resources under the same table the list scheduler
// uses; the rest is ordering state, so packing never reorders hazardous
// pairs.
type serialState struct {
	res *resTable

	floor    int          // entry padding boundary: no op before this
	lastRead map[VReg]int // WAR: a def may not land before a later read
	// writeEnd[r] is the first instruction index whose reads are safely
	// after r's last pending write lands (RAW safety net and WAW ordering).
	writeEnd    map[VReg]int
	lastMem     int // memory ops execute in program order
	barrier     int // ops after a branch start strictly after it
	maxUsed     int // branches go after everything placed so far
	maxWriteEnd int // latest landing instr of any write (for implicit uses)
}

func newSerialState(cfg *mach.Config, floor int) *serialState {
	return &serialState{
		res:      &resTable{cfg: cfg},
		floor:    floor,
		lastRead: map[VReg]int{},
		writeEnd: map[VReg]int{},
		lastMem:  -1,
		barrier:  0,
		maxUsed:  -1,
	}
}

func (st *stitcher) newBlock() *SBlock {
	b := &SBlock{ID: len(st.sf.Blocks)}
	st.sf.Blocks = append(st.sf.Blocks, b)
	return b
}

// wantTarget registers a branch slot to be pointed at vblock v's entrance
// once every trace is stitched.
func (st *stitcher) wantTarget(v int, pb pendingBranch) {
	st.pending[v] = append(st.pending[v], pb)
}

// resolve points every pending branch at its final location, routing
// through join-compensation blocks where the entrance was relocated.
func (st *stitcher) resolve() error {
	for v, pbs := range st.pending {
		e, ok := st.entrances[v]
		if !ok {
			return fmt.Errorf("%s: no entrance for vblock %d", st.vf.Name, v)
		}
		if jc, ok := st.joinComp[v]; ok {
			e = entrance{block: jc, off: 0}
		}
		for _, pb := range pbs {
			slot := &st.sf.Blocks[pb.block].Instrs[pb.instr].Slots[pb.slot]
			slot.TargetBlock = e.block
			slot.TargetOff = e.off
		}
	}
	return nil
}

// addSerialBlock serializes a NoCompact vblock one op per instruction. The
// entry padding lets any predecessor's pipeline writes drain before the
// calling convention executes, so nothing is airborne across a call or
// return boundary (registers cannot be tracked across functions).
func (st *stitcher) addSerialBlock(v int) {
	b := st.vf.Blocks[v]
	sb := st.newBlock()
	st.entrances[v] = entrance{block: sb.ID, off: 0}
	st.pad(sb, st.maxFlight())
	st.serializeInto(sb, b.Ops, -1)
}

// maxFlight returns the longest pipeline flight (in instructions) any op of
// the function can have.
func (st *stitcher) maxFlight() int {
	maxLat := st.cfg.LatIALU
	for _, b := range st.vf.Blocks {
		for i := range b.Ops {
			if l := opLatency(st.cfg, &b.Ops[i]); l > maxLat {
				maxLat = l
			}
		}
	}
	return (maxLat + 2) / 2
}

// serializeInto appends ops one per instruction, inserting cross-bank copy
// moves where an operand is not local to the op's unit. jumpTo, if ≥ 0,
// appends a final jump to that vblock's entrance.
func (st *stitcher) serializeInto(sb *SBlock, ops []VOp, jumpTo int) {
	for i := range ops {
		op := ops[i] // copy
		st.serializeOne(sb, op)
	}
	if jumpTo >= 0 {
		j := VOp{Kind: mach.OpJmp, T0: jumpTo}
		st.serializeOne(sb, j)
	}
}

// pad appends empty instructions so that sb's next instruction index is at
// least idx (used for latency spacing and for in-flight writes from a
// predecessor block).
func (st *stitcher) pad(sb *SBlock, idx int) {
	for len(sb.Instrs) < idx {
		sb.Instrs = append(sb.Instrs, SInstr{})
	}
}

// serializeOne appends a single op (plus any operand-routing moves) to sb.
func (st *stitcher) serializeOne(sb *SBlock, op VOp) {
	vf := st.vf
	home := st.sf.Home
	ready := st.serialReady[sb]
	if ready == nil {
		ready = map[VReg]int{}
		st.serialReady[sb] = ready
	}
	// Choose the executing pair. Destinations in the branch bank, store
	// file, or F bank (other than tagged-bus moves) can only be written
	// locally, so they pin the pair; otherwise SF/BB operand reads pin it;
	// otherwise prefer a board holding an operand.
	pair := -1
	if op.Dst != VNone {
		switch vf.Class(op.Dst) {
		case ClassB, ClassSF:
			if h, ok := home[op.Dst]; ok {
				pair = int(h)
			}
		case ClassF:
			if op.Kind != ir.Mov {
				if h, ok := home[op.Dst]; ok {
					pair = int(h)
				}
			}
		}
	}
	if pair < 0 {
		for _, r := range op.Uses() {
			switch vf.Class(r) {
			case ClassSF, ClassB:
				pair = int(home[r]) // hard
			}
		}
	}
	if pair < 0 {
		for _, r := range op.Uses() {
			if h, ok := home[r]; ok {
				pair = int(h)
				break
			}
		}
	}
	if pair < 0 {
		pair = 0
	}
	// route non-local I/F operands through copies
	args := []*VArg{&op.A, &op.B, &op.C}
	for _, a := range args {
		if a.IsImm || a.Reg == VNone {
			continue
		}
		r := a.Reg
		cls := vf.Class(r)
		if cls != ClassI && cls != ClassF {
			continue
		}
		h, ok := home[r]
		if !ok {
			home[r] = uint8(pair)
			continue
		}
		if int(h) == pair {
			continue
		}
		tmp := vf.NewReg(cls, vf.TypeOf(r))
		home[tmp] = uint8(pair)
		mv := VOp{Kind: ir.Mov, Type: vf.TypeOf(r), Dst: tmp, A: VRegArg(r)}
		idx := st.placeSerial(sb, mv, int(h), ready[r])
		ready[tmp] = idx + (opLatency(st.cfg, &mv)+1)/2
		a.Reg = tmp
		st.sf.CopyOps++
	}
	need := 0
	for _, r := range op.Uses() {
		if ready[r] > need {
			need = ready[r]
		}
	}
	idx := st.placeSerial(sb, op, pair, need)
	if op.Dst != VNone {
		ready[op.Dst] = idx + (opLatency(st.cfg, &op)+1)/2
		if _, ok := home[op.Dst]; !ok {
			if pre, isPre := vf.precolor[op.Dst]; isPre {
				home[op.Dst] = pre.Board
			} else {
				home[op.Dst] = uint8(pair)
			}
		}
	}
}

// placeSerial finds a slot for op from the current ready frontier onward.
func (st *stitcher) placeSerial(sb *SBlock, op VOp, pair, minIdx int) int {
	ss := st.serialRes[sb]
	if ss == nil {
		ss = newSerialState(&st.cfg, len(sb.Instrs))
		st.serialRes[sb] = ss
	}
	// ordering constraints
	if minIdx < ss.floor {
		minIdx = ss.floor
	}
	if minIdx < ss.barrier {
		minIdx = ss.barrier
	}
	if op.Dst != VNone {
		// WAR: strictly after the last read (a write can land mid-instr)
		if v, ok := ss.lastRead[op.Dst]; ok && v+1 > minIdx {
			minIdx = v + 1
		}
		// WAW: after the previous write has landed
		if v, ok := ss.writeEnd[op.Dst]; ok && v > minIdx {
			minIdx = v
		}
	}
	for _, u := range op.Uses() {
		// RAW: at or after the producer's landing instruction
		if v, ok := ss.writeEnd[u]; ok && v > minIdx {
			minIdx = v
		}
	}
	isBranch := false
	switch op.Kind {
	case mach.OpJmp, mach.OpBrT:
		// The target may read values computed here as soon as the next
		// instruction, so every pending write must land first (serialized
		// blocks have no DAG to carry the drain constraint).
		isBranch = true
		if ss.maxUsed > minIdx {
			minIdx = ss.maxUsed
		}
		if ss.maxWriteEnd-1 > minIdx {
			minIdx = ss.maxWriteEnd - 1
		}
	case mach.OpCall, mach.OpJmpR, mach.OpHalt, mach.OpSyscall:
		// These consume convention registers implicitly (arguments, return
		// values, the stack pointer), so every pending write must land
		// before they execute.
		isBranch = true
		if ss.maxUsed > minIdx {
			minIdx = ss.maxUsed
		}
		if ss.maxWriteEnd > minIdx {
			minIdx = ss.maxWriteEnd
		}
	}
	if op.IsMem() && ss.lastMem+1 > minIdx {
		minIdx = ss.lastMem + 1
	}
	cands := candidateUnits(nil, unitClass(st.vf, &op), uint8(pair))
	for idx := minIdx; ; idx++ {
		for _, uc := range cands {
			issue := 2*idx + int(uc.beat)
			c := claimFor(&st.cfg, st.vf, st.sf.Home, &op, uc.unit, issue)
			if !ss.res.fits(&c) {
				continue
			}
			ss.res.take(&c)
			st.pad(sb, idx+1)
			slot := SSlot{Unit: uc.unit, Beat: uc.beat, Op: op}
			in := &sb.Instrs[idx]
			si := len(in.Slots)
			in.Slots = append(in.Slots, slot)
			switch op.Kind {
			case mach.OpJmp, mach.OpBrT:
				st.wantTarget(op.T0, pendingBranch{sb.ID, idx, si})
			case mach.OpCall:
				in.Slots[si].TargetSym = op.Sym
			}
			// ordering bookkeeping
			if op.Dst != VNone {
				lat := opLatency(st.cfg, &op)
				end := (issue + lat + 1) / 2
				if end <= idx {
					end = idx + 1
				}
				ss.writeEnd[op.Dst] = end
				if end > ss.maxWriteEnd {
					ss.maxWriteEnd = end
				}
			}
			for _, u := range op.Uses() {
				if idx > ss.lastRead[u] {
					ss.lastRead[u] = idx
				}
			}
			if op.IsMem() && idx > ss.lastMem {
				ss.lastMem = idx
			}
			if isBranch {
				ss.barrier = idx + 1
			}
			if idx > ss.maxUsed {
				ss.maxUsed = idx
			}
			return idx
		}
	}
}

// addTrace compacts one trace and emits its SBlock plus compensation blocks.
func (st *stitcher) addTrace(tr Trace) error {
	vf, cfg := st.vf, st.cfg
	g, err := linearize(vf, tr)
	if err != nil {
		return err
	}
	g.rename()
	g.forwardMoves()
	if cfg.Pairs > 1 {
		// Constant folding and add-chain collapsing exist to decouple the
		// unrolled iterations so they can spread across board pairs; on a
		// single pair there is nothing to spread to, and the extra
		// immediate-word traffic only costs.
		g.foldGlobalConsts(st.globalForms)
		g.collapseAddChains()
	}
	g.addFinalRestores(st.lv)
	g.buildDAG(cfg, st.layout, st.globalForms)
	res, err := scheduleTrace(cfg, vf, g, st.sf.Home, st.layout)
	if err != nil {
		return err
	}

	// speculative-load conversion: a load scheduled at or above a split it
	// originally followed becomes the non-trapping opcode (§7)
	var splitIdxs []int
	for i, op := range g.ops {
		if op.isSplit {
			splitIdxs = append(splitIdxs, i)
		}
	}
	for _, p := range res.placed {
		if p.src == nil || p.src.vop.Kind != ir.Load {
			continue
		}
		for _, si := range splitIdxs {
			if si < p.src.origIdx && g.ops[si].instr >= p.src.instr {
				p.src.vop.Kind = ir.LoadSpec
				p.src.vop.Spec = true
				p.src.converted = true
				st.sf.SpecLoads++
				break
			}
		}
	}

	// build the trace SBlock
	sb := st.newBlock()
	sb.Instrs = make([]SInstr, res.numInstr)
	// deterministic slot order within each instruction
	placed := append([]placedOp(nil), res.placed...)
	sort.SliceStable(placed, func(a, b int) bool {
		if placed[a].instr != placed[b].instr {
			return placed[a].instr < placed[b].instr
		}
		return slotLess(placed[a], placed[b])
	})
	slotOf := map[*schedOp]pendingBranch{}
	for _, p := range placed {
		in := &sb.Instrs[p.instr]
		slot := SSlot{Unit: p.unit, Beat: p.beat, Op: p.vop}
		if p.src != nil {
			slot.Op = p.src.vop // includes LoadSpec conversion
		}
		idx := len(in.Slots)
		in.Slots = append(in.Slots, slot)
		if p.src != nil {
			slotOf[p.src] = pendingBranch{sb.ID, p.instr, idx}
		}
	}
	// multiway branch priorities follow original program order (§6.5.2:
	// "the test that was originally first ... must be the highest priority")
	for ii := range sb.Instrs {
		type brSlot struct{ slotIdx, origIdx int }
		var brs []brSlot
		for si := range sb.Instrs[ii].Slots {
			k := sb.Instrs[ii].Slots[si].Op.Kind
			if k == mach.OpBrT || k == mach.OpJmp {
				oi := 1 << 30
				for src, pb := range slotOf {
					if pb.instr == ii && pb.slot == si {
						oi = src.origIdx
					}
				}
				brs = append(brs, brSlot{si, oi})
			}
		}
		sort.Slice(brs, func(a, b int) bool { return brs[a].origIdx < brs[b].origIdx })
		for rank, b := range brs {
			sb.Instrs[ii].Slots[b.slotIdx].Prio = rank
		}
	}
	// entrances for trace blocks; join entrance relocation
	for ti, v := range tr.Blocks {
		if ti == 0 {
			st.entrances[v] = entrance{block: sb.ID, off: 0}
			continue
		}
		pos, isJoin := g.joinPos[v]
		if !isJoin {
			continue // only reachable along the trace
		}
		// E = 1 + max instr of any op before the join
		e := 0
		for i := 0; i < pos; i++ {
			if g.ops[i].instr+1 > e {
				e = g.ops[i].instr + 1
			}
		}
		// copies read at/after E but placed before E must be re-executed on
		// the join path; find them
		var lateCopies []placedOp
		for _, p := range placed {
			if p.src != nil || p.instr >= e {
				continue
			}
			cp := p.vop.Dst
			for _, q := range placed {
				if q.instr >= e && readsReg(&q.vop, cp) {
					lateCopies = append(lateCopies, p)
					break
				}
			}
		}
		st.emitJoinComp(g, sb, v, pos, e, lateCopies)
	}

	// split compensation and branch targets
	for _, si := range splitIdxs {
		sp := g.ops[si]
		target := g.splitTarget[si]
		comp := st.splitCompOps(g, sp, target)
		// locate the split's slot
		pb, ok := slotOf[sp]
		if !ok {
			return fmt.Errorf("%s: split op not found in schedule", vf.Name)
		}
		if len(comp) == 0 {
			st.wantTarget(target, pb)
		} else {
			cb := st.newBlock()
			st.pad(cb, splitDrain(st.cfg, res, sp))
			st.serializeInto(cb, comp, target)
			st.sf.CompOps += len(comp)
			slot := &sb.Instrs[pb.instr].Slots[pb.slot]
			slot.TargetBlock = cb.ID
			slot.TargetOff = 0
			slot.TargetSym = "" // resolved directly
			// mark as resolved by NOT registering a pending target
		}
	}
	// final jump target
	if g.finalIdx >= 0 {
		fj := g.ops[g.finalIdx]
		pb, ok := slotOf[fj]
		if !ok {
			return fmt.Errorf("%s: final jump not in schedule", vf.Name)
		}
		st.wantTarget(fj.vop.T0, pb)
	}
	for _, p := range placed {
		if p.src == nil {
			st.sf.CopyOps++
		}
	}
	return nil
}

// splitDrain returns how many empty instructions the split's compensation
// block needs at entry so that every on-trace write issued at or before the
// branch has drained by the time the comp code reads it.
func splitDrain(cfg mach.Config, res *schedResult, sp *schedOp) int {
	branchDone := 2*sp.instr + 2 // first beat after the branch's instruction
	drain := 0
	for i := range res.placed {
		p := &res.placed[i]
		if p.instr > sp.instr || p.vop.Dst == VNone {
			continue
		}
		w := 2*p.instr + int(p.beat) + opLatency(cfg, &p.vop)
		if d := w - branchDone; d > drain {
			drain = d
		}
	}
	return (drain + 1) / 2
}

// slotLess orders placements within an instruction for determinism.
func slotLess(a, b placedOp) bool {
	if a.unit.Kind != b.unit.Kind {
		return a.unit.Kind < b.unit.Kind
	}
	if a.unit.Pair != b.unit.Pair {
		return a.unit.Pair < b.unit.Pair
	}
	if a.unit.Idx != b.unit.Idx {
		return a.unit.Idx < b.unit.Idx
	}
	return a.beat < b.beat
}

// readsReg reports whether the vop reads r.
func readsReg(o *VOp, r VReg) bool {
	for _, u := range o.Uses() {
		if u == r {
			return true
		}
	}
	return false
}

// splitCompOps collects the compensation code for one split: every op that
// originally preceded the split but was scheduled after its instruction
// (re-executed from its pre-copy form), followed by moves restoring the
// original register names live at the split target (§4: "the compiler
// inserts special compensation code into the program graph on the off-trace
// branch edges to undo these inconsistencies").
func (st *stitcher) splitCompOps(g *traceGraph, sp *schedOp, target int) []VOp {
	var comp []VOp
	for i := 0; i < sp.origIdx; i++ {
		op := g.ops[i]
		if op.instr > sp.instr {
			v := op.vop
			if op.compVop != nil {
				v = *op.compVop
			}
			if op.converted {
				// on the off-trace path the load runs in its original
				// position, so the ordinary trapping opcode is correct
				v.Kind = ir.Load
				v.Spec = false
			}
			comp = append(comp, v)
		}
	}
	snap := g.renameAtSplit[sp.origIdx]
	comp = append(comp, restoreMovs(st.vf, st.lv, snap, target)...)
	return comp
}

// restoreMovs builds "orig ← renamed" moves for registers live into target.
func restoreMovs(vf *VFunc, lv *VLiveness, snap map[VReg]VReg, target int) []VOp {
	var origs []VReg
	for o := range snap {
		origs = append(origs, o)
	}
	sort.Slice(origs, func(a, b int) bool { return origs[a] < origs[b] })
	var movs []VOp
	for _, orig := range origs {
		cur := snap[orig]
		if cur == orig || !lv.In[target].Has(ir.Reg(orig)) {
			continue
		}
		movs = append(movs, VOp{Kind: ir.Mov, Type: vf.TypeOf(orig), Dst: orig, A: VRegArg(cur)})
	}
	return movs
}

// emitJoinComp builds the compensation block for a side entrance at vblock v
// (linear position pos, relocated entrance instruction e): establish-moves
// for renamed registers, re-execution of on-trace ops that moved above the
// entrance, and re-execution of cross-bank copies the post-entrance code
// depends on.
func (st *stitcher) emitJoinComp(g *traceGraph, sb *SBlock, v, pos, e int, lateCopies []placedOp) {
	vf := st.vf
	snap := g.renameAtJoin[pos]
	var comp []VOp
	// establish renamed names from the canonical registers the entering
	// flow provides
	var origs []VReg
	for o := range snap {
		origs = append(origs, o)
	}
	sort.Slice(origs, func(a, b int) bool { return origs[a] < origs[b] })
	for _, orig := range origs {
		cur := snap[orig]
		if cur == orig || !st.lv.In[v].Has(ir.Reg(orig)) {
			continue
		}
		comp = append(comp, VOp{Kind: ir.Mov, Type: vf.TypeOf(cur), Dst: cur, A: VRegArg(orig)})
	}
	// ops from at/after the join that were scheduled above the entrance
	for i := pos; i < len(g.ops); i++ {
		op := g.ops[i]
		if op.instr < e {
			vop := op.vop
			if op.compVop != nil {
				vop = *op.compVop
			}
			if op.converted {
				vop.Kind = ir.Load
				vop.Spec = false
			}
			comp = append(comp, vop)
		}
	}
	// cross-bank copies consumed past the entrance
	for _, p := range lateCopies {
		comp = append(comp, p.vop)
	}

	st.entrances[v] = entrance{block: sb.ID, off: e}
	if len(comp) == 0 {
		return
	}
	cb := st.newBlock()
	// No entry padding: the entering edges' restore moves carry their own
	// drain constraints, so the canonical registers this comp reads are
	// settled by the time control arrives.
	st.serializeCompInto(cb, comp, sb.ID, e)
	st.sf.CompOps += len(comp)
	st.joinComp[v] = cb.ID
}

// serializeCompInto is serializeInto with a direct (block, offset) jump.
func (st *stitcher) serializeCompInto(cb *SBlock, ops []VOp, tblock, toff int) {
	for i := range ops {
		st.serializeOne(cb, ops[i])
	}
	// the jump goes after everything placed AND after every pending write
	// has drained (the trace reads the comp's results immediately on entry)
	idx := len(cb.Instrs)
	if ss := st.serialRes[cb]; ss != nil {
		idx = ss.maxUsed + 1
		if ss.maxWriteEnd-1 > idx {
			idx = ss.maxWriteEnd - 1
		}
	}
	st.pad(cb, idx+1)
	cb.Instrs[idx].Slots = append(cb.Instrs[idx].Slots, SSlot{
		Unit:        mach.Unit{Kind: mach.UBR, Pair: 0},
		Op:          VOp{Kind: mach.OpJmp},
		TargetBlock: tblock,
		TargetOff:   toff,
	})
}
