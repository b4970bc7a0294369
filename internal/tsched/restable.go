package tsched

import (
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// resTable is the structural-resource reservation table both packers share:
// the list scheduler keeps one per trace and the compensation serializer one
// per serialized block. §6 leaves every structural resource to the compiler,
// so the table enforces the rules both packers need:
//
//   - I-ALU slots per (pair, alu, beat); FA, FM and BR slots per (pair,
//     instruction);
//   - the pair's shared 32-bit immediate word, per beat (§6.1);
//   - register-file read ports on the executing board at issue, and write
//     ports on the receiving board where the result lands;
//   - cross-board result deliveries on the tagged ILoad/FLoad buses (§6.3),
//     one beat for I results and two for F;
//   - one memory reference per I board per beat (§6.4.1).
//
// Rules only the list scheduler models stay with it: the divide holds (it
// books the ALU hold through takeUnit), the PA, store and load-data buses of
// memory references (through busFree/takeBus, sharing the counters with
// cross-board deliveries), bank disambiguation, and store-file pressure.
//
// Rows are indexed by absolute beat (2*instruction + beat) and grow on
// demand. mach.Config.Validate caps Pairs at maxPairs.
type resTable struct {
	cfg  *mach.Config
	rows []resRow
}

const maxPairs = 4

// resRow is one beat's reservations. Its counters stay far below 256: fits
// holds each at the machine's port or bus count, which the list scheduler
// passes only by the few copies it inserts between checking an op and
// taking its claim.
type resRow struct {
	ialu [maxPairs][2]bool // I-ALU slot taken, by pair and ALU
	fu   [3][maxPairs]bool // FA/FM/BR slot taken, by unit kind and pair; kept on the instruction's beat-0 row
	immw [maxPairs]bool    // the pair's shared immediate word is used
	mem  [maxPairs]bool    // a memory reference issues on this I board
	rd   [maxPairs]uint8   // register-file reads on each board
	wr   [maxPairs]uint8   // register-file writes landing on each board
	bus  [4]uint8          // machine-global bus uses, indexed by busILoad..busPA
}

// Bus kinds index resRow.bus.
const (
	busILoad = iota
	busFLoad
	busStore
	busPA
)

// emptyRow stands in for every row past the end of the table; it is never
// written.
var emptyRow resRow

// at returns beat b's row for reading.
func (t *resTable) at(b int) *resRow {
	if b < len(t.rows) {
		return &t.rows[b]
	}
	return &emptyRow
}

// row returns beat b's row for writing, growing the table to reach it.
func (t *resTable) row(b int) *resRow {
	if b >= len(t.rows) {
		if b >= cap(t.rows) {
			grown := make([]resRow, len(t.rows), 2*b+16)
			copy(grown, t.rows)
			t.rows = grown
		}
		t.rows = t.rows[:b+1]
	}
	return &t.rows[b]
}

// unitFree reports whether unit u is open for an op issuing at beat issue.
func (t *resTable) unitFree(u mach.Unit, issue int) bool {
	if u.Kind == mach.UIALU {
		return !t.at(issue).ialu[u.Pair][u.Idx]
	}
	return !t.at(issue &^ 1).fu[u.Kind-mach.UFA][u.Pair]
}

// takeUnit reserves unit u at beat issue (for an I-ALU) or for the whole
// instruction holding issue (for the F and branch units).
func (t *resTable) takeUnit(u mach.Unit, issue int) {
	if u.Kind == mach.UIALU {
		t.row(issue).ialu[u.Pair][u.Idx] = true
		return
	}
	t.row(issue &^ 1).fu[u.Kind-mach.UFA][u.Pair] = true
}

// busFree reports whether a bus of the given kind is free at beat b.
func (t *resTable) busFree(kind, b int) bool {
	return int(t.at(b).bus[kind]) < busCap(t.cfg, kind)
}

func (t *resTable) takeBus(kind, b int) { t.row(b).bus[kind]++ }

// resClaim is what one op asks of the table when it issues on a unit at a
// beat.
type resClaim struct {
	unit    mach.Unit
	issue   int
	immBeat int // first beat of the shared immediate word used
	nImm    int // beats of the word used: 0, 1, or 2 (ConstF)
	reads   int // register operands read on the unit's board at issue
	wb      int // beat the result lands, or -1 for no result
	db      int // board receiving the result
	xbus    int // bus kind delivering a cross-board result
	xbeats  int // beats on xbus: 0 for a local result, 1 for I, 2 for F
	mem     bool
}

// claimFor builds o's claim when issued on unit u at beat issue. The result
// lands on its destination's home board, or on u's board if it has none.
func claimFor(cfg *mach.Config, vf *VFunc, home map[VReg]uint8, o *VOp, u mach.Unit, issue int) resClaim {
	c := resClaim{unit: u, issue: issue, reads: regReads(o), wb: -1, mem: o.IsMem()}
	c.immBeat, c.nImm = immWordBeats(o, issue)
	if o.Dst != VNone {
		c.wb = issue + opLatency(*cfg, o)
		c.db = int(u.Pair)
		if h, ok := home[o.Dst]; ok {
			c.db = int(h)
		}
		if c.db != int(u.Pair) && !c.mem {
			c.xbus, c.xbeats = busILoad, 1
			if vf.Class(o.Dst) == ClassF {
				c.xbus, c.xbeats = busFLoad, 2
			}
		}
	}
	return c
}

// fits reports whether every resource of c is free.
func (t *resTable) fits(c *resClaim) bool {
	p := c.unit.Pair
	if !t.unitFree(c.unit, c.issue) {
		return false
	}
	for b := c.immBeat; b < c.immBeat+c.nImm; b++ {
		if t.at(b).immw[p] {
			return false
		}
	}
	if r := t.at(c.issue); int(r.rd[p])+c.reads > t.cfg.RFReadPorts || c.mem && r.mem[p] {
		return false
	}
	if c.wb >= 0 {
		if int(t.at(c.wb).wr[c.db]) >= t.cfg.RFWritePorts {
			return false
		}
		for i := 0; i < c.xbeats; i++ {
			if !t.busFree(c.xbus, c.wb-i) {
				return false
			}
		}
	}
	return true
}

// take reserves every resource of c without checking it.
func (t *resTable) take(c *resClaim) {
	p := c.unit.Pair
	t.takeUnit(c.unit, c.issue)
	for b := c.immBeat; b < c.immBeat+c.nImm; b++ {
		t.row(b).immw[p] = true
	}
	r := t.row(c.issue)
	r.rd[p] += uint8(c.reads)
	if c.mem {
		r.mem[p] = true
	}
	if c.wb >= 0 {
		t.row(c.wb).wr[c.db]++
		for i := 0; i < c.xbeats; i++ {
			t.takeBus(c.xbus, c.wb-i)
		}
	}
}

// busCap returns the number of buses of the given kind.
func busCap(cfg *mach.Config, kind int) int {
	switch kind {
	case busILoad:
		return cfg.ILoadBuses
	case busFLoad:
		return cfg.FLoadBuses
	case busStore:
		return cfg.StoreBuses
	default:
		return cfg.PABuses
	}
}

// regReads counts o's register operands, each of which takes a read port.
func regReads(o *VOp) int {
	n := 0
	for _, a := range [...]*VArg{&o.A, &o.B, &o.C} {
		if !a.IsImm && a.Reg != VNone {
			n++
		}
	}
	return n
}

// immWordBeats returns the beats of the pair's shared immediate word the op
// occupies when issued at beat issue: n beats starting at first. Branches
// own their issue beat's word (their displacement rides the PC adder's
// leg); long immediates own their issue beat's word; ConstF needs both
// halves.
func immWordBeats(o *VOp, issue int) (first, n int) {
	switch o.Kind {
	case mach.OpBrT, mach.OpJmp, mach.OpCall, mach.OpJmpR, mach.OpHalt, mach.OpSyscall:
		return issue, 1
	case ir.ConstF:
		return issue, 2
	}
	for _, a := range [...]*VArg{&o.A, &o.B, &o.C} {
		if a.IsImm && !fitsImm6(*a) {
			return issue, 1
		}
	}
	return 0, 0
}

// fitsImm6 reports whether the value fits the inline 6-bit immediate field.
func fitsImm6(a VArg) bool {
	return a.Sym == "" && a.Imm >= -32 && a.Imm <= 31
}
