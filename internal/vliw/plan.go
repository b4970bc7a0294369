package vliw

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// This file is the checked interpreter's pre-decoder. The TRACE has no
// interlocks precisely so that nothing dynamic stands between the static
// plan and execution (§6); the simulator mirrors that by flattening every
// decoded instruction word into an execution plan once, at image load,
// instead of re-deriving it every beat:
//
//   - slots are split into per-beat lists, so the beat loop walks exactly
//     the operations that initiate, with no per-slot beat filtering;
//   - write latencies, which depend only on (opcode, type, Config), are
//     precomputed per slot;
//   - the unit name used for fault attribution is rendered once per slot
//     instead of fmt.Sprintf-ing on every execution;
//   - memory references are collected into a prescan list, so words with
//     no references skip the TLB/bank-stall prescan entirely;
//   - the §6 per-beat resource check (unit double-booking, register-file
//     read ports, one reference per I board, PA buses) is a function of the
//     instruction word alone, so it is evaluated once per word here and the
//     checked interpreter merely consults the precomputed verdict — the
//     per-beat map allocations of the old checkBeatResources disappear.
//
// The plan aliases the image's operations (planOp.op points into
// Img.Instrs); it snapshots structure, not values, and is rebuilt whenever
// Reset targets a different image.

// planOp is one pre-decoded slot operation.
type planOp struct {
	op       *mach.Op
	lat      int // precomputed write latency in beats
	unitKind mach.UnitKind
	unitName string // precomputed fault attribution
}

// planMem is one memory reference for the prescan loop.
type planMem struct {
	op   *mach.Op
	beat int64 // issue beat within the instruction (0 or 1)
}

// resViol is a precomputed static resource violation for one (word, beat).
// The checked interpreter reports it when the beat executes, exactly where
// the old dynamic counting would have faulted; the native tier, armed by a
// resource certificate, never consults it.
type resViol struct {
	code TrapCode
	msg  string
}

// planWord is one pre-decoded instruction word.
type planWord struct {
	beats [2][]planOp
	mem   []planMem
	viol  [2]*resViol
}

// buildPlan pre-decodes every instruction word of the image.
func buildPlan(img *isa.Image) []planWord {
	cfg := img.Cfg
	plan := make([]planWord, len(img.Instrs))

	// Unit names are shared across the image: render each once.
	unitNames := map[mach.Unit]string{}
	nameOf := func(u mach.Unit) string {
		s, ok := unitNames[u]
		if !ok {
			s = u.String()
			unitNames[u] = s
		}
		return s
	}

	for a := range img.Instrs {
		in := &img.Instrs[a]
		pw := &plan[a]
		for si := range in.Slots {
			s := &in.Slots[si]
			b := s.Beat & 1
			pw.beats[b] = append(pw.beats[b], planOp{
				op:       &s.Op,
				lat:      latency(cfg, &s.Op),
				unitKind: s.Unit.Kind,
				unitName: nameOf(s.Unit),
			})
			if isMemOp(s.Op.Kind) {
				pw.mem = append(pw.mem, planMem{op: &s.Op, beat: int64(b)})
			}
		}
		pw.viol[0] = staticBeatViolation(in, cfg, 0)
		pw.viol[1] = staticBeatViolation(in, cfg, 1)
	}
	return plan
}

// staticBeatViolation evaluates the §6 static resource plan for one beat of
// an instruction word: ALU slot uniqueness, register-file port limits, bus
// counts, and the one-reference-per-I-board rule. Any overflow is a
// compiler bug surfacing as a hardware fault. The rules and messages are
// the ones the dynamic checkBeatResources used to apply every beat; the
// result depends only on the word, so it is computed once here.
func staticBeatViolation(in *mach.Instr, cfg mach.Config, beat uint8) *resViol {
	// Per-beat unit occupancy: 5 units per pair, up to 4 pairs.
	var units [4 * 5]bool
	var reads [4]int       // register-file reads per board
	var memPerBoard [4]int // memory references per I board
	pa := 0
	for si := range in.Slots {
		s := &in.Slots[si]
		if s.Beat != beat {
			continue
		}
		if ui := unitIndex(s.Unit); ui >= 0 {
			if units[ui] {
				return &resViol{TrapResource, fmt.Sprintf("two ops on unit %s in one beat", s.Unit)}
			}
			units[ui] = true
		}
		board := int(s.Unit.Pair)
		if board >= len(reads) {
			continue // out-of-config slots fault as TrapBadOp at execution
		}
		for _, a := range []mach.Arg{s.Op.A, s.Op.B, s.Op.C} {
			if !a.IsImm && a.Reg.Valid() {
				reads[board]++
			}
		}
		if isMemOp(s.Op.Kind) {
			memPerBoard[board]++
			pa++
		}
	}
	for b, n := range reads {
		if n > cfg.RFReadPorts {
			return &resViol{TrapResource, fmt.Sprintf("board %d: %d register reads in one beat (max %d)", b, n, cfg.RFReadPorts)}
		}
	}
	for b, n := range memPerBoard {
		if n > 1 {
			return &resViol{TrapResource, fmt.Sprintf("board %d initiated %d memory references in one beat", b, n)}
		}
	}
	if pa > cfg.PABuses {
		return &resViol{TrapResource, fmt.Sprintf("%d physical-address bus uses in one beat (max %d)", pa, cfg.PABuses)}
	}
	return nil
}

// unitIndex maps a functional unit to a dense per-pair index, or -1 when
// the unit names a pair or ALU slot no TRACE configuration has.
func unitIndex(u mach.Unit) int {
	if u.Pair >= 4 || (u.Kind == mach.UIALU && u.Idx > 1) {
		return -1
	}
	base := int(u.Pair) * 5
	switch u.Kind {
	case mach.UIALU:
		return base + int(u.Idx)
	case mach.UFA:
		return base + 2
	case mach.UFM:
		return base + 3
	case mach.UBR:
		return base + 4
	}
	return -1
}
