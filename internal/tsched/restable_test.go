package tsched

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// tableFixture is a resTable with a few registers to build claims from.
type tableFixture struct {
	cfg  mach.Config
	vf   *VFunc
	home map[VReg]uint8
	tab  *resTable
}

func newTableFixture(cfg mach.Config) *tableFixture {
	vf := &VFunc{precolor: map[VReg]mach.PReg{}}
	vf.classes = []Class{ClassNone}
	vf.types = []ir.Type{ir.Void}
	f := &tableFixture{cfg: cfg, vf: vf, home: map[VReg]uint8{}}
	f.tab = &resTable{cfg: &f.cfg}
	return f
}

// reg makes a register of class c homed on board.
func (f *tableFixture) reg(c Class, board uint8) VReg {
	typ := ir.I32
	if c == ClassF {
		typ = ir.F64
	}
	r := f.vf.NewReg(c, typ)
	f.home[r] = board
	return r
}

func (f *tableFixture) claim(o VOp, u mach.Unit, issue int) resClaim {
	return claimFor(&f.cfg, f.vf, f.home, &o, u, issue)
}

// place takes o's claim, failing the test if it does not fit.
func (f *tableFixture) place(t *testing.T, o VOp, u mach.Unit, issue int) {
	t.Helper()
	c := f.claim(o, u, issue)
	if !f.tab.fits(&c) {
		t.Fatalf("%s on %v at beat %d: refused on an open table slot", o.String(), u, issue)
	}
	f.tab.take(&c)
}

func (f *tableFixture) fits(o VOp, u mach.Unit, issue int) bool {
	c := f.claim(o, u, issue)
	return f.tab.fits(&c)
}

func alu(pair, idx uint8) mach.Unit { return mach.Unit{Kind: mach.UIALU, Pair: pair, Idx: idx} }
func fa(pair uint8) mach.Unit       { return mach.Unit{Kind: mach.UFA, Pair: pair} }
func fm(pair uint8) mach.Unit       { return mach.Unit{Kind: mach.UFM, Pair: pair} }

func TestResTableUnitSlots(t *testing.T) {
	f := newTableFixture(mach.Trace14())
	d0, d1 := f.reg(ClassI, 0), f.reg(ClassI, 0)
	add := func(dst VReg) VOp { return VOp{Kind: ir.Add, Type: ir.I32, Dst: dst, A: VImmArg(1), B: VImmArg(2)} }
	f.place(t, add(d0), alu(0, 0), 4)
	if f.fits(add(d1), alu(0, 0), 4) {
		t.Error("an I-ALU slot took a second op in one beat")
	}
	if !f.fits(add(d1), alu(0, 0), 5) || !f.fits(add(d1), alu(0, 1), 4) || !f.fits(add(d1), alu(1, 0), 4) {
		t.Error("an I-ALU slot blocks its other beat, its sibling ALU, or another pair")
	}

	fd := f.reg(ClassF, 0)
	fadd := VOp{Kind: ir.FAdd, Type: ir.F64, Dst: fd, A: VImmArg(0), B: VImmArg(0)}
	f.place(t, fadd, fa(0), 4)
	if f.fits(fadd, fa(0), 5) {
		t.Error("the FA slot is per instruction, but its late beat took a second op")
	}
	if !f.fits(fadd, fm(0), 4) || !f.fits(fadd, fa(0), 6) {
		t.Error("the FA slot blocks the multiplier or the next instruction")
	}
}

func TestResTableConstFTakesBothImmediateHalves(t *testing.T) {
	f := newTableFixture(mach.Trace14())
	cf := VOp{Kind: ir.ConstF, Type: ir.F64, Dst: f.reg(ClassF, 0)}
	if c := f.claim(cf, fa(0), 4); c.immBeat != 4 || c.nImm != 2 {
		t.Fatalf("ConstF claims %d immediate beat(s) from %d, want 2 from 4", c.nImm, c.immBeat)
	}
	f.place(t, cf, fa(0), 4)

	// A long immediate on either beat of the instruction needs the word.
	long := VOp{Kind: ir.Add, Type: ir.I32, Dst: f.reg(ClassI, 0), A: VImmArg(1000), B: VImmArg(1)}
	for _, issue := range []int{4, 5} {
		if f.fits(long, alu(0, 0), issue) {
			t.Errorf("a long immediate at beat %d shares the word with a ConstF", issue)
		}
	}
	if !f.fits(long, alu(0, 0), 6) || !f.fits(long, alu(1, 0), 5) {
		t.Error("the ConstF's word blocks the next instruction or the other pair")
	}
	// A second ConstF in the instruction (on the multiplier) is refused too.
	cf2 := VOp{Kind: ir.ConstF, Type: ir.F64, Dst: f.reg(ClassF, 0)}
	if f.fits(cf2, fm(0), 4) {
		t.Error("two ConstFs share one pair's immediate word")
	}
	// A short immediate needs no word.
	short := VOp{Kind: ir.Add, Type: ir.I32, Dst: f.reg(ClassI, 0), A: VImmArg(3), B: VImmArg(1)}
	if !f.fits(short, alu(0, 1), 5) {
		t.Error("a 6-bit immediate was refused for want of the shared word")
	}
}

func TestResTableFCrossBoardResultTakesTwoBusBeats(t *testing.T) {
	cfg := mach.Trace14()
	cfg.FLoadBuses = 1
	f := newTableFixture(cfg)
	src := f.reg(ClassF, 0)
	mov := func() VOp { return VOp{Kind: ir.Mov, Type: ir.F64, Dst: f.reg(ClassF, 1), A: VRegArg(src)} }
	m := mov()
	c := f.claim(m, fa(0), 4)
	if c.xbus != busFLoad || c.xbeats != 2 {
		t.Fatalf("an F cross-board move claims bus %d for %d beat(s), want FLoad for 2", c.xbus, c.xbeats)
	}
	wb := c.wb
	f.place(t, m, fa(0), 4)
	if !f.tab.busFree(busFLoad, wb-2) || f.tab.busFree(busFLoad, wb-1) || f.tab.busFree(busFLoad, wb) || !f.tab.busFree(busFLoad, wb+1) {
		t.Fatalf("FLoad bus after one F delivery landing at %d: want beats %d and %d taken, the neighbours free", wb, wb-1, wb)
	}
	// An FMul issued at beat 0 lands at 7 and needs the bus at 6 and 7, so
	// the earlier beat alone refuses it; issued at 2 it needs 8 and 9.
	fmul := VOp{Kind: ir.FMul, Type: ir.F64, Dst: f.reg(ClassF, 1), A: VRegArg(src), B: VRegArg(src)}
	if f.fits(fmul, fm(0), 0) {
		t.Errorf("an F delivery landing at %d shares FLoad beat %d with one landing at %d", wb+1, wb, wb)
	}
	if !f.fits(fmul, fm(0), 2) {
		t.Error("an F delivery clear of the first one's bus beats was refused")
	}
	// A local result uses no bus.
	local := VOp{Kind: ir.Mov, Type: ir.F64, Dst: f.reg(ClassF, 0), A: VRegArg(src)}
	if !f.fits(local, fa(0), 6) {
		t.Error("a board-local F result was refused for want of a bus")
	}
}

func TestResTableOneMemoryReferencePerBoardBeat(t *testing.T) {
	f := newTableFixture(mach.Trace14())
	base := f.reg(ClassI, 0)
	load := func() VOp {
		return VOp{Kind: ir.Load, Type: ir.I32, Dst: f.reg(ClassI, 0), A: VRegArg(base), B: VImmArg(0)}
	}
	f.place(t, load(), alu(0, 0), 4)
	if f.fits(load(), alu(0, 1), 4) {
		t.Error("a second memory reference issued on board 0 in the same beat")
	}
	if !f.fits(load(), alu(0, 1), 5) {
		t.Error("a memory reference on the next beat was refused")
	}
	other := VOp{Kind: ir.Load, Type: ir.I32, Dst: f.reg(ClassI, 1), A: VRegArg(f.reg(ClassI, 1)), B: VImmArg(0)}
	if !f.fits(other, alu(1, 0), 4) {
		t.Error("a memory reference on board 1 was refused by one on board 0")
	}
}

func TestResTablePortCaps(t *testing.T) {
	cfg := mach.Trace28()
	f := newTableFixture(cfg)
	a, b, c := f.reg(ClassI, 0), f.reg(ClassI, 0), f.reg(ClassI, 0)

	// Read ports: three reads and one more fill board 0's four ports.
	sel := VOp{Kind: ir.Select, Type: ir.I32, Dst: f.reg(ClassI, 0), A: VRegArg(a), B: VRegArg(b), C: VRegArg(c)}
	if got := regReads(&sel); got != 3 {
		t.Fatalf("regReads(select) = %d, want 3", got)
	}
	f.place(t, sel, alu(0, 0), 4)
	two := VOp{Kind: ir.Add, Type: ir.I32, Dst: f.reg(ClassI, 0), A: VRegArg(a), B: VRegArg(b)}
	if f.fits(two, alu(0, 1), 4) {
		t.Errorf("%d reads on board 0 in one beat passed %d read ports", 5, cfg.RFReadPorts)
	}
	one := VOp{Kind: ir.Add, Type: ir.I32, Dst: f.reg(ClassI, 0), A: VRegArg(a), B: VImmArg(1)}
	f.place(t, one, alu(0, 1), 4)
	if !f.fits(two, alu(0, 1), 5) {
		t.Error("the read ports of the next beat were taken")
	}

	// Write ports: four results land on board 1 at beat 11, two from its
	// own ALUs and two over the buses from pair 0; a fifth from pair 2 is
	// refused though a bus is still free for it.
	inc := func(from uint8) VOp {
		return VOp{Kind: ir.Add, Type: ir.I32, Dst: f.reg(ClassI, 1), A: VRegArg(f.reg(ClassI, from)), B: VImmArg(1)}
	}
	for _, u := range []mach.Unit{alu(1, 0), alu(1, 1), alu(0, 0), alu(0, 1)} {
		f.place(t, inc(u.Pair), u, 10)
	}
	fifth := inc(2)
	if f.fits(fifth, alu(2, 0), 10) {
		t.Errorf("a fifth result landed on board 1 in one beat through %d write ports", cfg.RFWritePorts)
	}
	if !f.tab.busFree(busILoad, 11) {
		t.Fatal("the write-port case ran out of ILoad buses first")
	}
	if !f.fits(fifth, alu(2, 0), 11) {
		t.Error("the write ports of the next beat were taken")
	}
}

// TestResTableTrace28CrossBoardDeliveries is the table-level form of the
// fuzz finding that the serializer did not check the copy buses: on the
// 4-pair machine the receiving boards' write ports admit many more
// cross-board results per beat than the four ILoad buses can carry, so a
// fifth I delivery in one beat must be refused on the bus alone.
func TestResTableTrace28CrossBoardDeliveries(t *testing.T) {
	cfg := mach.Trace28()
	f := newTableFixture(cfg)
	mov := func(from, to uint8) VOp {
		return VOp{Kind: ir.Mov, Type: ir.I32, Dst: f.reg(ClassI, to), A: VRegArg(f.reg(ClassI, from))}
	}
	// Four deliveries, each to a different board, all landing at beat 5.
	sends := []struct {
		unit mach.Unit
		to   uint8
	}{{alu(0, 0), 1}, {alu(0, 1), 2}, {alu(1, 0), 2}, {alu(1, 1), 3}}
	for _, s := range sends {
		o := mov(s.unit.Pair, s.to)
		if c := f.claim(o, s.unit, 4); c.xbus != busILoad || c.xbeats != 1 || c.wb != 5 {
			t.Fatalf("I cross-board move claims bus %d for %d beat(s) landing at %d, want ILoad for 1 at 5", c.xbus, c.xbeats, c.wb)
		}
		f.place(t, o, s.unit, 4)
	}
	fifth := mov(2, 0)
	if f.fits(fifth, alu(2, 0), 4) {
		t.Errorf("a fifth cross-board I result landed in one beat on %d ILoad buses", cfg.ILoadBuses)
	}
	// The fifth fits a fresh table (no port or unit limit refuses it), and
	// fits this one a beat later.
	fresh := newTableFixture(cfg)
	if c := claimFor(&fresh.cfg, f.vf, f.home, &fifth, alu(2, 0), 4); !fresh.tab.fits(&c) {
		t.Fatal("a lone cross-board I result was refused")
	}
	if !f.fits(fifth, alu(2, 0), 5) {
		t.Error("a cross-board I result in the next beat was refused")
	}
	// The same result delivered locally needs no bus.
	if !f.fits(mov(2, 2), alu(2, 0), 4) {
		t.Error("a board-local I result was refused for want of a bus")
	}
}
