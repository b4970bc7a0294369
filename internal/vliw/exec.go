package vliw

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// latencies mirrors the scheduler's timing model; the two must agree or the
// interlock-free machine reads stale registers.
func latency(cfg mach.Config, o *mach.Op) int {
	switch o.Kind {
	case ir.Load, ir.LoadSpec:
		return cfg.LatLoad
	case ir.FAdd, ir.FSub, ir.FNeg, ir.ItoF, ir.FtoI,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		return cfg.LatFAdd
	case ir.FMul:
		return cfg.LatFMul
	case ir.FDiv:
		return cfg.LatFDiv
	case ir.Mul:
		return cfg.LatIMul
	case ir.Div, ir.Rem:
		return cfg.LatIDiv
	case ir.ConstF:
		return 2
	case ir.Mov, mach.OpMovSF:
		if o.Type == ir.F64 {
			return cfg.LatMove * 2
		}
		return cfg.LatMove
	case ir.Select:
		if o.Type == ir.F64 {
			return 2
		}
		return 1
	}
	return cfg.LatIALU
}

// execBranch handles branch-unit ops. It returns the branch target if the
// op wants control (−1 otherwise) and the halt value for OpHalt.
func (m *Machine) execBranch(o *mach.Op) (int, *int32, error) {
	c := m.cur
	switch o.Kind {
	case mach.OpBrT:
		m.Stats.Branches++
		if c.readArg(o.A) != 0 {
			return o.Target, nil, nil
		}
		return -1, nil, nil
	case mach.OpJmp:
		m.Stats.Branches++
		return o.Target, nil, nil
	case mach.OpCall:
		m.Stats.Branches++
		// link register receives the return address
		c.enqueue(mach.RegLR, uint64(uint32(c.pc+1)), 1)
		return o.Target, nil, nil
	case mach.OpJmpR:
		m.Stats.Branches++
		return int(int32(uint32(c.readArg(o.A)))), nil, nil
	case mach.OpHalt:
		v := int32(c.iregs[mach.RegRVI.Board][mach.RegRVI.Idx])
		return -1, &v, nil
	case mach.OpSyscall:
		m.Stats.Syscalls++
		switch o.Sym {
		case "print_i":
			fmt.Fprintf(&c.out, "%d\n", int32(c.iregs[0][mach.ArgIBase]))
		case "print_f":
			fmt.Fprintf(&c.out, "%g\n", math.Float64frombits(c.fregs[0][mach.ArgFBase]))
		default:
			return -1, nil, m.fault(c, TrapSyscall, "unknown syscall %q", o.Sym)
		}
		return -1, nil, nil
	}
	return -1, nil, m.fault(c, TrapBadOp, "%s on branch unit", mach.OpName(o.Kind))
}

// iBits, fBits, and bBits pack result values for the register-write
// pipeline. They replace the per-op seti/setf/setb closures the old
// dispatch allocated on every operation: execOp now writes its result with
// one direct enqueue per case.
func iBits(v int32) uint64   { return uint64(uint32(v)) }
func fBits(v float64) uint64 { return math.Float64bits(v) }
func bBits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// execOp executes one ALU/F/memory operation, enqueuing its register write
// at issue+lat. The latency is precomputed by the plan (plan.go) so the
// timing model is evaluated once per image, not once per executed op.
func (m *Machine) execOp(p *planOp) error {
	o, lat := p.op, p.lat
	c := m.cur
	switch o.Kind {
	case ir.Nop:
	case ir.ConstI:
		c.enqueue(o.Dst, iBits(c.readI(o.A)), lat)
	case ir.ConstF:
		c.enqueue(o.Dst, fBits(o.FImm), lat)
	case ir.Mov, mach.OpMovSF:
		c.enqueue(o.Dst, c.readArg(o.A), lat)
	case ir.Add:
		c.enqueue(o.Dst, iBits(c.readI(o.A)+c.readI(o.B)), lat)
	case ir.Sub:
		c.enqueue(o.Dst, iBits(c.readI(o.A)-c.readI(o.B)), lat)
	case ir.Mul:
		c.enqueue(o.Dst, iBits(c.readI(o.A)*c.readI(o.B)), lat)
	case ir.Div:
		d := c.readI(o.B)
		if d == 0 {
			return m.fault(c, TrapDivZero, "integer divide by zero")
		}
		c.enqueue(o.Dst, iBits(c.readI(o.A)/d), lat)
	case ir.Rem:
		d := c.readI(o.B)
		if d == 0 {
			return m.fault(c, TrapDivZero, "integer remainder by zero")
		}
		c.enqueue(o.Dst, iBits(c.readI(o.A)%d), lat)
	case ir.And:
		c.enqueue(o.Dst, iBits(c.readI(o.A)&c.readI(o.B)), lat)
	case ir.Or:
		c.enqueue(o.Dst, iBits(c.readI(o.A)|c.readI(o.B)), lat)
	case ir.Xor:
		c.enqueue(o.Dst, iBits(c.readI(o.A)^c.readI(o.B)), lat)
	case ir.Shl:
		c.enqueue(o.Dst, iBits(c.readI(o.A)<<(uint32(c.readI(o.B))&31)), lat)
	case ir.Shr:
		c.enqueue(o.Dst, iBits(int32(uint32(c.readI(o.A))>>(uint32(c.readI(o.B))&31))), lat)
	case ir.Sra:
		c.enqueue(o.Dst, iBits(c.readI(o.A)>>(uint32(c.readI(o.B))&31)), lat)
	case ir.Neg:
		c.enqueue(o.Dst, iBits(-c.readI(o.A)), lat)
	case ir.Not:
		c.enqueue(o.Dst, iBits(^c.readI(o.A)), lat)
	case ir.CmpEQ:
		c.enqueue(o.Dst, bBits(c.readI(o.A) == c.readI(o.B)), lat)
	case ir.CmpNE:
		c.enqueue(o.Dst, bBits(c.readI(o.A) != c.readI(o.B)), lat)
	case ir.CmpLT:
		c.enqueue(o.Dst, bBits(c.readI(o.A) < c.readI(o.B)), lat)
	case ir.CmpLE:
		c.enqueue(o.Dst, bBits(c.readI(o.A) <= c.readI(o.B)), lat)
	case ir.CmpGT:
		c.enqueue(o.Dst, bBits(c.readI(o.A) > c.readI(o.B)), lat)
	case ir.CmpGE:
		c.enqueue(o.Dst, bBits(c.readI(o.A) >= c.readI(o.B)), lat)
	case ir.FAdd:
		m.Stats.FloatOps++
		c.enqueue(o.Dst, fBits(c.readF(o.A)+c.readF(o.B)), lat)
	case ir.FSub:
		m.Stats.FloatOps++
		c.enqueue(o.Dst, fBits(c.readF(o.A)-c.readF(o.B)), lat)
	case ir.FMul:
		m.Stats.FloatOps++
		c.enqueue(o.Dst, fBits(c.readF(o.A)*c.readF(o.B)), lat)
	case ir.FDiv:
		m.Stats.FloatOps++
		// fast mode: NaN/Inf propagate, no trap (§7)
		c.enqueue(o.Dst, fBits(c.readF(o.A)/c.readF(o.B)), lat)
	case ir.FNeg:
		c.enqueue(o.Dst, fBits(-c.readF(o.A)), lat)
	case ir.FCmpEQ:
		c.enqueue(o.Dst, bBits(c.readF(o.A) == c.readF(o.B)), lat)
	case ir.FCmpNE:
		c.enqueue(o.Dst, bBits(c.readF(o.A) != c.readF(o.B)), lat)
	case ir.FCmpLT:
		c.enqueue(o.Dst, bBits(c.readF(o.A) < c.readF(o.B)), lat)
	case ir.FCmpLE:
		c.enqueue(o.Dst, bBits(c.readF(o.A) <= c.readF(o.B)), lat)
	case ir.FCmpGT:
		c.enqueue(o.Dst, bBits(c.readF(o.A) > c.readF(o.B)), lat)
	case ir.FCmpGE:
		c.enqueue(o.Dst, bBits(c.readF(o.A) >= c.readF(o.B)), lat)
	case ir.ItoF:
		c.enqueue(o.Dst, fBits(float64(c.readI(o.A))), lat)
	case ir.FtoI:
		v := c.readF(o.A)
		if math.IsNaN(v) || v > math.MaxInt32 || v < math.MinInt32 {
			c.enqueue(o.Dst, iBits(int32(ir.FunnyI32)), lat)
		} else {
			c.enqueue(o.Dst, iBits(int32(v)), lat)
		}
	case ir.Select:
		// condition from the branch bank (A); B = then, C = else
		if c.readArg(o.A) != 0 {
			c.enqueue(o.Dst, c.readArg(o.B), lat)
		} else {
			c.enqueue(o.Dst, c.readArg(o.C), lat)
		}
	case ir.Load, ir.LoadSpec:
		return m.execLoad(o, lat)
	case ir.Store:
		return m.execStore(o)

	default:
		return m.fault(c, TrapBadOp, "cannot execute %s", mach.OpName(o.Kind))
	}
	return nil
}

func (m *Machine) execLoad(o *mach.Op, lat int) error {
	c := m.cur
	m.Stats.MemRefs++
	m.Stats.Loads++
	ea, _ := c.eaOf(o)
	size := o.Type.Size()
	if o.Kind == ir.LoadSpec {
		m.Stats.SpecLoads++
	}
	if ea < ir.GlobalBase || ea+size > int64(len(c.mem)) || ea%size != 0 {
		if o.Kind == ir.LoadSpec {
			// §7: no valid translation — execution continues; the target
			// register is loaded with a "funny number" to help catch bugs
			m.Stats.SpecFaults++
			if o.Type == ir.I32 {
				funny := int32(ir.FunnyI32)
				c.enqueue(o.Dst, uint64(uint32(funny)), lat)
			} else {
				c.enqueue(o.Dst, math.Float64bits(math.NaN()), lat)
			}
			return nil
		}
		if ea%size != 0 {
			return m.fault(c, TrapUnaligned, "unaligned %d-byte load %#x", size, ea)
		}
		return m.fault(c, TrapMemBounds, "bus error: load %#x", ea)
	}
	m.touchBank(ea)
	var v uint64
	if o.Type == ir.I32 {
		v = uint64(binary.LittleEndian.Uint32(c.mem[ea:]))
	} else {
		v = binary.LittleEndian.Uint64(c.mem[ea:])
	}
	c.enqueue(o.Dst, v, lat)
	return nil
}

func (m *Machine) execStore(o *mach.Op) error {
	c := m.cur
	m.Stats.MemRefs++
	m.Stats.Stores++
	ea, _ := c.eaOf(o)
	size := o.Type.Size()
	if ea < ir.GlobalBase || ea+size > int64(len(c.mem)) {
		return m.fault(c, TrapMemBounds, "bus error: store %#x", ea)
	}
	if ea%size != 0 {
		return m.fault(c, TrapUnaligned, "unaligned %d-byte store %#x", size, ea)
	}
	m.touchBank(ea)
	v := c.readArg(o.C) // data comes from the store file (§6.2)
	if o.Type == ir.I32 {
		v = uint64(uint32(v))
		binary.LittleEndian.PutUint32(c.mem[ea:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(c.mem[ea:], v)
	}
	if m.WatchStore != nil {
		m.WatchStore(ea, v)
	}
	return nil
}

// touchBank marks the reference's RAM bank busy for BankBusyBeats on the
// current context's timeline.
func (m *Machine) touchBank(ea int64) {
	c := m.cur
	ctrl, bank := m.Cfg.BankOf(ea)
	id := ctrl*8 + bank
	c.bankBusy[id] = c.beat + mach.StageBank + int64(m.Cfg.BankBusyBeats)
}

// The §6 per-beat resource check (ALU slot uniqueness, register-file port
// limits, bus counts, one reference per I board) depends only on the
// instruction word, so it is precomputed per word by the plan pre-decoder
// (staticBeatViolation in plan.go); the checked interpreter consults the
// stored verdict each beat.
