package vliw

import (
	"bytes"
	"math"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// A Context is the architectural state of one hardware context: everything
// the §8.1 process model says belongs to a *program* rather than to the
// machine. The TRACE argument is that context switching is cheap because
// this state is small and bank-organized; the simulator makes the same
// split literal. The Machine owns the microarchitecture — configuration,
// decoded execution plans, the DMA engine, instrumentation hooks, and the
// context scheduler — while each Context owns:
//
//   - the partitioned register banks (I, F, store-file, branch-bank), the
//     PC, and the in-flight register-write pipeline (§6.2 carries
//     destinations forward in hardware; the pending queue is that pipeline);
//   - its own address space: a private RAM image, data/instruction TLBs,
//     and instruction-cache tags. The real machine shares one tagged cache
//     and one RAM; the simulator gives each context a private view, which
//     is the limit case of perfect tagging ("no purging is necessary",
//     §6.1) and keeps a context's behavior bit-identical whether it runs
//     alone or time-shared — the property the isolation suite asserts;
//   - a virtual clock (beat) that advances only while the context
//     executes, so its Stats are those of an undisturbed solo run;
//   - its banked Stats. While a context is current the machine accumulates
//     into Machine.Stats (the hottest writes in the beat loop); the
//     scheduler banks them back on every rotation and at retirement.
//
// Context values are created and pooled by their Machine (Reset and
// ResetMany); they are not constructed directly.
type Context struct {
	id    int
	img   *isa.Image
	plan  []planWord
	nplan *nativePlan // native-tier translation (UseNativeCertificate); nil when checked
	asid  uint8

	// Architectural register state, partitioned per board pair (§6).
	iregs [4][64]uint32
	fregs [4][32]uint64
	sf    [4][16]uint64
	bb    [4][8]bool

	pc      int
	beat    int64 // virtual clock: beats this context has executed
	pending []pendingWrite
	retired []pendingWrite // scratch: writes retired this beat (race check)

	// Native-tier retire ring (native.go): in-flight register writes
	// bucketed by retire beat. c.pending stays the canonical serialized
	// form — the ring is flushed back into it for Snapshot and ingested
	// from it after Restore.
	nring    [][]ringWrite
	nrmask   int64  // len(nring)-1, cached for the push/drain hot paths
	ndrained int64  // last beat whose ring bucket has been drained
	nseq     uint32 // issue-order sequence number for ring writes
	nscratch []ringWrite
	out      bytes.Buffer
	halted   bool
	exit     int32

	// Private memory-system view: address space, TLBs, icache tags, and
	// bank-busy windows on the context's own timeline.
	mem       []byte
	bankBusy  [64]int64
	itags     []int
	iasids    []uint8
	dtlb      []int64
	dtlbAsids []uint8
	itlb      []int64
	itlbAsids []uint8

	// Scheduler bookkeeping (multi-context runs).
	done bool
	err  error // terminal trap or cycle-limit, nil while runnable/completed

	// Checkpoint/restore bookkeeping (snapshot.go). booted marks that the
	// context holds live execution state (boot ran, or a snapshot was
	// restored) — the precondition for Snapshot. restored marks state that
	// came from Restore: the run loops skip boot and continue mid-program.
	booted   bool
	restored bool

	// Stats is the context's banked performance counters; authoritative
	// whenever the context is not current on its machine.
	Stats Stats
}

// reset re-targets the context at an image, reusing every buffer the
// previous program allocated, and restores the pristine boot state.
func (c *Context) reset(id int, img *isa.Image, plan []planWord, cfg mach.Config) {
	c.id = id
	c.img = img
	c.plan = plan
	c.nplan = nil
	c.asid = 0

	if need := img.RequiredMem(); int64(cap(c.mem)) >= need {
		c.mem = c.mem[:need]
		clear(c.mem)
	} else {
		c.mem = make([]byte, need)
	}

	c.iregs = [4][64]uint32{}
	c.fregs = [4][32]uint64{}
	c.sf = [4][16]uint64{}
	c.bb = [4][8]bool{}
	c.pc = 0
	c.beat = 0
	c.pending = c.pending[:0]
	c.retired = c.retired[:0]
	for i := range c.nring {
		c.nring[i] = c.nring[i][:0]
	}
	c.ndrained = 0
	c.nseq = 0
	c.nscratch = c.nscratch[:0]
	c.out.Reset()
	c.halted = false
	c.exit = 0
	c.bankBusy = [64]int64{}

	if len(c.itags) != cfg.ICacheInstrs {
		c.itags = make([]int, cfg.ICacheInstrs)
		c.iasids = make([]uint8, cfg.ICacheInstrs)
	}
	for i := range c.itags {
		c.itags[i] = -1
		c.iasids[i] = 0
	}
	if len(c.dtlb) != TLBEntries {
		c.dtlb = make([]int64, TLBEntries)
		c.itlb = make([]int64, TLBEntries)
		c.dtlbAsids = make([]uint8, TLBEntries)
		c.itlbAsids = make([]uint8, TLBEntries)
	}
	for i := range c.dtlb {
		c.dtlb[i] = -1
		c.itlb[i] = -1
		c.dtlbAsids[i] = 0
		c.itlbAsids[i] = 0
	}

	c.done = false
	c.err = nil
	c.booted = false
	c.restored = false
	c.Stats = Stats{}
}

// boot initializes the context for execution: the program's static data is
// laid into its memory, SP points at the top, and the PC at the entry word.
func (c *Context) boot() error {
	if err := c.img.InitMem(c.mem); err != nil {
		return err
	}
	c.iregs[mach.RegSP.Board][mach.RegSP.Idx] = uint32(int64(len(c.mem)) &^ 7)
	c.pc = c.img.Entry
	c.booted = true
	return nil
}

func (c *Context) writeReg(r mach.PReg, v uint64) {
	switch r.Bank {
	case mach.BankI:
		c.iregs[r.Board][r.Idx] = uint32(v)
	case mach.BankF:
		c.fregs[r.Board][r.Idx] = v
	case mach.BankSF:
		c.sf[r.Board][r.Idx] = v
	case mach.BankB:
		c.bb[r.Board][r.Idx] = v != 0
	}
}

func (c *Context) readReg(r mach.PReg) uint64 {
	switch r.Bank {
	case mach.BankI:
		return uint64(c.iregs[r.Board][r.Idx])
	case mach.BankF:
		return c.fregs[r.Board][r.Idx]
	case mach.BankSF:
		return c.sf[r.Board][r.Idx]
	case mach.BankB:
		if c.bb[r.Board][r.Idx] {
			return 1
		}
		return 0
	}
	return 0
}

// readArg evaluates an operand: register read or immediate.
func (c *Context) readArg(a mach.Arg) uint64 {
	if a.IsImm {
		return uint64(uint32(a.Imm))
	}
	if !a.Reg.Valid() {
		return 0
	}
	return c.readReg(a.Reg)
}

func (c *Context) readI(a mach.Arg) int32   { return int32(uint32(c.readArg(a))) }
func (c *Context) readF(a mach.Arg) float64 { return math.Float64frombits(c.readArg(a)) }

// enqueue schedules a register write into the context's hardware write
// pipeline, retiring lat beats after issue.
func (c *Context) enqueue(dst mach.PReg, val uint64, lat int) {
	if !dst.Valid() {
		return
	}
	c.pending = append(c.pending, pendingWrite{beat: c.beat + int64(lat), dst: dst, val: val, pc: c.pc})
}

// eaOf computes a memory op's effective address (A + B).
func (c *Context) eaOf(o *mach.Op) (int64, bool) {
	if !o.A.IsImm && !o.A.Reg.Valid() {
		return 0, false
	}
	base := int64(c.readI(o.A))
	off := int64(c.readI(o.B))
	return base + off, true
}

// dtlbMiss checks and fills the data TLB for a byte address.
func (c *Context) dtlbMiss(ea int64) bool {
	if ea < 0 {
		return false
	}
	// ea is non-negative here, so the page split is an unsigned shift and
	// mask (PageSize and TLBEntries are powers of two) — the prescan calls
	// this for every memory reference on every tier.
	page := int64(uint64(ea) / PageSize)
	slot := page & (TLBEntries - 1)
	if c.dtlb[slot] == page && c.dtlbAsids[slot] == c.asid {
		return false
	}
	c.dtlb[slot] = page
	c.dtlbAsids[slot] = c.asid
	return true
}

// Output returns the output the context has printed so far.
func (c *Context) Output() string { return c.out.String() }

// Tier reports the context's execution tier.
func (c *Context) Tier() Tier {
	if c.nplan != nil {
		return TierNative
	}
	return TierChecked
}

// Err returns the context's terminal error: a *Fault or *ErrCycleLimit when
// the context died, nil while it is runnable or after a clean halt.
func (c *Context) Err() error { return c.err }

// Halted reports whether the context ran to a clean HALT.
func (c *Context) Halted() bool { return c.halted }

// ContextResult is one context's completed execution within a RunMany: its
// exit value, captured output, solo-equivalent Stats, and — when the
// context trapped or exhausted the cycle budget — its terminal error.
// A context's failure retires only that context; the others run on.
type ContextResult struct {
	Exit   int32
	Output string
	Stats  Stats
	Err    error
}

// SchedStats are the machine-level context-scheduler counters for one
// RunMany execution. TotalBeats is the machine's wall clock: the sum of
// every context's useful beats plus unhidden stalls plus switch overhead.
// HiddenBeats are bank-stall and icache-refill beats that overlapped
// another resident context's execution — the latency the paper's
// multi-context machine hides. Sum of per-context Stats.Beats minus
// HiddenBeats plus SwitchBeats equals TotalBeats.
type SchedStats struct {
	Contexts    int
	TotalBeats  int64
	BusyBeats   int64 // beats spent executing instructions
	HiddenBeats int64 // stall beats overlapped by another context
	Switches    int64 // context rotations performed by the scheduler
	SwitchBeats int64 // machine beats charged for those rotations
}

// add accumulates another context's counters (for the machine-level
// aggregate RunMany leaves in Machine.Stats).
func (s *Stats) add(o *Stats) {
	s.Beats += o.Beats
	s.Instrs += o.Instrs
	s.Ops += o.Ops
	s.FloatOps += o.FloatOps
	s.MemRefs += o.MemRefs
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.SpecLoads += o.SpecLoads
	s.SpecFaults += o.SpecFaults
	s.BankStalls += o.BankStalls
	s.ICacheMiss += o.ICacheMiss
	s.ICacheHits += o.ICacheHits
	s.RefillBeats += o.RefillBeats
	s.TLBMisses += o.TLBMisses
	s.TrapBeats += o.TrapBeats
	s.Branches += o.Branches
	s.Taken += o.Taken
	s.Syscalls += o.Syscalls
	s.Interrupts += o.Interrupts
	s.InterruptBeats += o.InterruptBeats
	s.Switches += o.Switches
	s.SwitchBeats += o.SwitchBeats
	s.DMARefs += o.DMARefs
}
