// Package vliw is the beat-accurate TRACE simulator. It executes the
// decoded instruction image produced by the isa linker, modeling the
// machine of §6: two beats per instruction, self-draining functional-unit
// and memory pipelines, partitioned register banks, the interleaved banked
// memory with the bank-stall mechanism (§6.4.4), the distributed
// instruction cache with mask-word refill (§6.5), data and instruction TLBs
// with trap-and-replay history queues (§6.4.3), and the priority multiway
// branch (§6.5.2).
//
// The hardware has no interlocks, so the simulator doubles as a verifier:
// register-file port overflows, bus oversubscription, and write-write races
// fault the machine — exactly the failures the real TRACE would exhibit if
// the compiler's static resource plan were wrong.
//
// The machine is split §8.1-style into shared microarchitecture (the
// Machine: configuration, decoded plans, DMA engine, hooks, and the
// context scheduler) and per-program architectural state (the Context:
// register banks, PC, write pipeline, address space, virtual clock). One
// resident context gives the classic single-program machine; ResetMany
// loads K programs into K hardware contexts and RunMany time-shares them
// on one simulated CPU, rotating on quantum expiry and eagerly on memory
// stalls — the latency-hiding complement to ILP the paper gestures at.
package vliw

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// Stats counts everything the experiments need.
type Stats struct {
	Beats          int64
	Instrs         int64
	Ops            int64 // non-nop operations initiated
	FloatOps       int64 // floating arithmetic initiated (for MFLOPS)
	MemRefs        int64
	Loads          int64
	Stores         int64
	SpecLoads      int64 // speculative loads executed
	SpecFaults     int64 // speculative loads that returned the funny number
	BankStalls     int64 // beats lost to the bank-stall mechanism
	ICacheMiss     int64
	ICacheHits     int64
	RefillBeats    int64 // beats lost to instruction cache refill
	TLBMisses      int64
	TrapBeats      int64 // beats spent in the TLB-miss trap handler
	Branches       int64
	Taken          int64
	Syscalls       int64
	Interrupts     int64
	InterruptBeats int64
	Switches       int64 // explicit ContextSwitch calls
	SwitchBeats    int64 // beats charged to state save/restore
	DMARefs        int64 // 64-bit memory references issued by the IOP
}

// MIPS returns achieved operations per second in millions.
func (s *Stats) MIPS() float64 {
	if s.Beats == 0 {
		return 0
	}
	return float64(s.Ops) / (float64(s.Beats) * mach.BeatNs * 1e-3)
}

// MFLOPS returns achieved floating operations per second in millions.
func (s *Stats) MFLOPS() float64 {
	if s.Beats == 0 {
		return 0
	}
	return float64(s.FloatOps) / (float64(s.Beats) * mach.BeatNs * 1e-3)
}

// TrapCode classifies machine faults. The TRACE has no interlocks, so the
// hardware detects only a small set of conditions; everything else the
// compiler must prevent statically. The taxonomy lets the differential fuzz
// oracle and the cmd tools distinguish program bugs (bad memory access,
// divide by zero) from compiler bugs (resource overflow, write races).
type TrapCode int

const (
	// TrapUnknown is a fault with no more specific classification.
	TrapUnknown TrapCode = iota
	// TrapBadPC is an instruction fetch outside the linked image (a wild
	// jump, a corrupted link register, or a fall-off-the-end).
	TrapBadPC
	// TrapMemBounds is a data reference outside mapped memory (below
	// GlobalBase or past the top of RAM) by a non-speculative op.
	TrapMemBounds
	// TrapUnaligned is a data reference not aligned to its access size.
	TrapUnaligned
	// TrapDivZero is an integer divide or remainder by zero.
	TrapDivZero
	// TrapResource is a static resource-plan violation: register-file port
	// overflow, bus oversubscription, or two ops on one unit in one beat —
	// always a compiler bug surfacing as hardware corruption.
	TrapResource
	// TrapWriteRace is two pipeline writes retiring into one register in the
	// same beat — a scheduling bug on the interlock-free machine.
	TrapWriteRace
	// TrapBadOp is an opcode the decoded slot's functional unit cannot
	// execute (a linker or encoder bug).
	TrapBadOp
	// TrapSyscall is an unknown system-call service name.
	TrapSyscall
)

var trapNames = [...]string{
	TrapUnknown: "fault", TrapBadPC: "bad-pc", TrapMemBounds: "mem-bounds",
	TrapUnaligned: "unaligned", TrapDivZero: "div-zero", TrapResource: "resource",
	TrapWriteRace: "write-race", TrapBadOp: "bad-op", TrapSyscall: "syscall",
}

func (c TrapCode) String() string {
	if int(c) < len(trapNames) {
		return trapNames[c]
	}
	return fmt.Sprintf("trap(%d)", int(c))
}

// Fault is a hardware-detectable error: a resource conflict the compiler
// should have prevented, or a memory violation. It carries the faulting
// instruction word index (the PC), beat, and — when the fault is raised
// while a slot executes — the functional unit whose operation faulted. The
// rendering uses the same word=/beat=/unit= vocabulary as schedcheck
// findings (cmd/tracelint), so a dynamic trap and the static diagnosis of
// the same defect cross-reference directly.
type Fault struct {
	Code TrapCode
	PC   int // faulting instruction word index
	Beat int64
	Unit string // functional unit of the faulting op ("" outside execution)
	Msg  string
}

func (f *Fault) Error() string {
	if f.Unit != "" {
		return fmt.Sprintf("machine fault [%s] at word=%d beat=%d unit=%s: %s", f.Code, f.PC, f.Beat, f.Unit, f.Msg)
	}
	return fmt.Sprintf("machine fault [%s] at word=%d beat=%d: %s", f.Code, f.PC, f.Beat, f.Msg)
}

// ErrCycleLimit reports that execution exceeded the machine's hard cycle
// budget. On hardware with no interlocks a miscompiled program cannot fault
// on a hazard — it can only loop or drift — so the budget is the watchdog
// that turns "the simulator wedged" into a diagnosable error.
type ErrCycleLimit struct {
	Limit int64 // the budget that was exhausted, in beats
	PC    int   // program counter when the budget ran out
}

func (e *ErrCycleLimit) Error() string {
	return fmt.Sprintf("cycle limit exceeded: %d beats at pc=%d (runaway or miscompiled program?)", e.Limit, e.PC)
}

// ErrCanceled reports that the run's context was canceled or its deadline
// expired mid-execution. The machine checks the context once every
// CtxCheckEvery beats, so execution stops within one check interval of the
// cancellation; the machine state is abandoned mid-program but the Machine
// itself stays reusable — Reset returns it to service (pools rely on this).
// Unwrap exposes the context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) distinguish the two causes.
type ErrCanceled struct {
	Beat  int64 // beat at which the cancellation was observed
	PC    int   // program counter at that point
	Cause error // context.Canceled or context.DeadlineExceeded
}

func (e *ErrCanceled) Error() string {
	return fmt.Sprintf("run canceled at word=%d beat=%d: %v", e.PC, e.Beat, e.Cause)
}

func (e *ErrCanceled) Unwrap() error { return e.Cause }

// DefaultCtxCheckBeats is the default cancellation-check interval for
// RunContext: at simulator speed (~10M beats/s) it bounds the reaction time
// to well under a millisecond while keeping the check itself unmeasurable
// (one context poll per ~2000 executed instructions).
const DefaultCtxCheckBeats = 4096

// DefaultCtxQuantum is the default round-robin timeslice in beats when the
// configuration leaves mach.Config.CtxQuantum at zero: 2048 beats is ~133us
// of machine time, the same order as the §8.1 timeslicing discussion, and
// long enough that banking a context's stats on rotation is unmeasurable.
const DefaultCtxQuantum = 2048

// Trap cost model (beats), standing in for the §6.4.3 trap handler code:
// entry/exit (register save, mode switch) plus per-miss history-queue
// replay. "A few hand-coded instructions begin saving registers while the
// pipelines drain; after several instruction times we enter C code" (§8.2).
const (
	TrapEntryBeats  = 40
	TrapPerMissBeat = 12
	PageSize        = 8192
	TLBEntries      = 4096
)

type pendingWrite struct {
	beat int64
	dst  mach.PReg
	val  uint64
	pc   int  // instruction word that issued the write, for fault attribution
	spec bool // for stats
}

// Machine is one TRACE processor with its memory system: the shared
// microarchitecture plus one or more resident program Contexts. The beat
// loop executes whichever context is current (cur); with one context the
// machine behaves exactly as the classic single-program simulator, and
// with several, RunMany time-shares them at beat granularity.
type Machine struct {
	Cfg mach.Config
	Img *isa.Image // context 0's image (the only one after Reset)
	Mem []byte     // context 0's memory (aliases ctxs[0]; kept for callers)

	// Resident hardware contexts. cur points at the executing one; every
	// hot-loop state access indexes through it.
	ctxs   []*Context
	cur    *Context
	curIdx int

	// beat is the machine's wall clock for multi-context runs: useful
	// beats plus unhidden stalls plus switch overhead. Single-context
	// runs keep time on the context's own clock instead.
	beat int64

	// plan is the pre-decoded execution plan for Img (see plan.go),
	// cached across Reset calls that re-target the same image.
	plan []planWord

	// Native-tier plan cache (native.go): the closure-threaded translation
	// built by buildNativePlan for (nativeImg, nativeCert), kept across
	// Reset calls exactly like plan so re-arming the same certificate after
	// a Reset costs one pointer compare, not a retranslation. Single-slot:
	// arming a second image's certificate (mixed-image RunMany) rebuilds.
	nativePlan *nativePlan
	nativeImg  *isa.Image
	nativeCert Certificate

	// Multiway-branch scratch for the native step (stepNative): the
	// translated branch closures publish the winning target here instead of
	// threading loop-local state through every closure signature.
	nTaken    bool
	nBestPrio int
	nNextPC   int
	nHalted   bool
	nExit     int32

	// I/O processor DMA stream (§8.3), active when dmaRate > 0. The IOP
	// targets the current context's address space.
	dmaRate   float64 // bytes per second
	dmaBase   int64
	dmaLen    int64
	dmaIssued int64 // 64-bit references issued so far

	// FlushOnSwitch models a machine WITHOUT process tags: every context
	// switch purges the caches and TLBs (the Section 8.1 counterfactual;
	// the real machine tags entries so "no purging is necessary").
	FlushOnSwitch bool

	// CycleLimit is the hard beat budget per context: a context exceeding
	// it ends a single run with *ErrCycleLimit, or retires just that
	// context in RunMany. New sets a generous default; cmd/tracesim
	// exposes it as -max-cycles and the fuzz oracle tightens it so
	// hostile inputs terminate quickly.
	CycleLimit int64
	// StopBeat, when > 0, pauses a single-context run at the first
	// instruction boundary where the context's virtual clock has reached it:
	// run returns *ErrStopped with the context intact, and Context.Snapshot
	// captures a resume point. Zero (the default, restored by Reset) keeps
	// the beat loop on its usual single-compare path — checkpoint support
	// costs nothing when unused. RunMany ignores StopBeat; batch tenants
	// checkpoint on cancellation instead.
	StopBeat int64
	// CtxCheckEvery is the beat interval between context polls in
	// RunContext (default DefaultCtxCheckBeats): a canceled run stops
	// within one interval. Tests shrink it to make cancellation latency
	// observable; Run (no context) never polls regardless.
	CtxCheckEvery int64
	// Stats holds the CURRENT context's counters while it executes (the
	// beat loop's hottest writes stay one indirection from the machine);
	// the scheduler banks them into Context.Stats on every rotation. After
	// Run it is the run's stats as always; after RunMany it is the
	// machine-level aggregate across contexts with Beats = wall clock.
	Stats    Stats
	CheckRes bool // verify port/bus limits (off for Ideal)

	// Quantum is the round-robin timeslice in beats for RunMany
	// (initialized from Cfg.CtxQuantum, default DefaultCtxQuantum).
	Quantum int64
	// SwitchBeats is the wall-clock cost the scheduler charges per
	// context rotation (initialized from Cfg.CtxSwitchBeats, default 0 —
	// the paper's near-free switch).
	SwitchBeats int64
	// Sched reports the context scheduler's counters after RunMany.
	Sched SchedStats

	// curUnit names the functional unit whose slot is executing, for fault
	// attribution on the interlock-free datapath.
	curUnit string

	// InjectWrite, when set, observes — and may corrupt — every register
	// write as it retires from a functional-unit pipeline, before the value
	// lands in the register file. It is the fault-injection hook the
	// robustness harness uses to prove that single-event corruption on a
	// no-interlock machine is *observable* (a divergence or a trap), not
	// silently absorbed. Return val unchanged for a transparent probe.
	InjectWrite func(beat int64, dst mach.PReg, val uint64) uint64

	// TraceFn, when set, is called before each instruction with the PC and
	// current beat (debugging aid; also used by cmd/tracesim -trace).
	TraceFn func(pc int, beat int64)
	// WatchStore, when set, observes every store (address, raw value).
	WatchStore func(ea int64, val uint64)

	// InterruptEvery, when > 0, delivers a timer interrupt every that many
	// beats (§8.2: "when an enabled interrupt request arrives, execution
	// suspends ... since the pipelines are self-draining, after the maximum
	// pipe depth time, all of the state of the processor is either in
	// general registers or in main memory"). Each delivery costs
	// InterruptBeats (drain + save + C handler + restore).
	InterruptEvery int64
	// OnInterrupt, when set, runs inside each timer interrupt (after the
	// handler cost is charged). The OS scheduler lives here: calling
	// m.ContextSwitch from the hook models a timeslice ending.
	OnInterrupt func(m *Machine)
	// InterruptBeats is the cost per interrupt (default 200 if unset).
	InterruptBeats int64
	nextInterrupt  int64
}

// New creates a machine for the image with a fresh memory.
func New(img *isa.Image) *Machine {
	m := &Machine{}
	m.Reset(img)
	return m
}

// context returns the i'th resident context, growing (and pooling) the
// context table as needed. Truncating ctxs never frees a context: the
// backing array keeps the pointer, so its multi-megabyte memory and tag
// arrays are reused when the machine grows back.
func (m *Machine) context(i int) *Context {
	for len(m.ctxs) <= i {
		if cap(m.ctxs) > len(m.ctxs) {
			m.ctxs = m.ctxs[:len(m.ctxs)+1]
			if m.ctxs[len(m.ctxs)-1] == nil {
				m.ctxs[len(m.ctxs)-1] = new(Context)
			}
		} else {
			m.ctxs = append(m.ctxs, new(Context))
		}
	}
	return m.ctxs[i]
}

// Reset re-targets the machine at an image as a single-context machine,
// reusing every buffer the previous program allocated: the multi-megabyte
// data memory, the pending-write queue, the cache tag and TLB arrays, and —
// when the image pointer is unchanged — the pre-decoded execution plan. It
// restores the machine to the state New would produce: architectural state
// zeroed, stats cleared, instrumentation hooks (InjectWrite, TraceFn,
// WatchStore, OnInterrupt) removed, DMA stopped, and the native tier
// disarmed (re-apply a certificate after Reset to re-arm it).
// Callers that run many programs — the fuzz oracle, the experiment
// harness, benchmarks — pool machines through Reset instead of
// reallocating them.
func (m *Machine) Reset(img *isa.Image) {
	if m.Img != img {
		m.plan = buildPlan(img)
		m.Img = img
	}
	c := m.context(0)
	c.reset(0, img, m.plan, img.Cfg)
	m.ctxs = m.ctxs[:1]
	m.cur = c
	m.curIdx = 0
	m.Mem = c.mem
	m.resetMachine(img.Cfg)
}

// ResetMany re-targets the machine at K images, one per hardware context.
// Every image must be linked for the same machine configuration (the
// contexts share one microarchitecture). Context buffers, memories, and
// decoded plans are pooled and reused exactly as Reset does for one; images
// repeated within the batch share one decoded plan.
func (m *Machine) ResetMany(imgs []*isa.Image) error {
	if len(imgs) == 0 {
		return fmt.Errorf("vliw: ResetMany needs at least one image")
	}
	for i, img := range imgs {
		if img.Cfg != imgs[0].Cfg {
			return fmt.Errorf("vliw: context %d's image targets %q, context 0's targets %q: contexts share one machine configuration",
				i, img.Cfg.Name, imgs[0].Cfg.Name)
		}
	}
	plans := make(map[*isa.Image][]planWord, len(imgs))
	if m.Img != nil && m.plan != nil {
		plans[m.Img] = m.plan
	}
	for i, img := range imgs {
		p, ok := plans[img]
		if !ok {
			p = buildPlan(img)
			plans[img] = p
		}
		m.context(i).reset(i, img, p, img.Cfg)
	}
	m.ctxs = m.ctxs[:len(imgs)]
	m.Img = imgs[0]
	m.plan = plans[imgs[0]]
	m.cur = m.ctxs[0]
	m.curIdx = 0
	m.Mem = m.cur.mem
	m.resetMachine(imgs[0].Cfg)
	return nil
}

// resetMachine restores the shared microarchitectural state and knobs to
// their defaults for a configuration (the part of Reset that is not
// per-context).
func (m *Machine) resetMachine(cfg mach.Config) {
	m.Cfg = cfg
	m.beat = 0
	m.curUnit = ""

	m.dmaRate, m.dmaBase, m.dmaLen, m.dmaIssued = 0, 0, 0, 0

	m.FlushOnSwitch = false
	m.InjectWrite = nil
	m.TraceFn = nil
	m.WatchStore = nil
	m.InterruptEvery = 0
	m.OnInterrupt = nil
	m.InterruptBeats = 0
	m.nextInterrupt = 0

	m.CycleLimit = 2_000_000_000
	m.StopBeat = 0
	m.CtxCheckEvery = DefaultCtxCheckBeats
	m.CheckRes = !cfg.Ideal
	m.Stats = Stats{}

	m.Quantum = int64(cfg.CtxQuantum)
	if m.Quantum <= 0 {
		m.Quantum = DefaultCtxQuantum
	}
	m.SwitchBeats = int64(cfg.CtxSwitchBeats)
	m.Sched = SchedStats{}
}

// Contexts returns the machine's resident contexts. The slice is owned by
// the machine; callers inspect, they do not mutate.
func (m *Machine) Contexts() []*Context { return m.ctxs }

// A Certificate attests that a static verifier proved the image obeys the
// §6 no-interlock schedule contract over every path — the machine may then
// run the image with no dynamic resource or write-race checking. The
// concrete implementation is schedcheck.Certify; the simulator deliberately
// depends only on this interface so the verifier and the machine model
// remain independent implementations of the contract.
type Certificate interface {
	// CertifiedImage returns the exact image the certificate covers.
	CertifiedImage() *isa.Image
}

// A SafetyCertificate attests, beyond the resource Certificate it extends,
// that specific guarded sites — loads, stores, divides — can never fault:
// no reachable execution makes their effective address escape RAM or break
// alignment, or their divisor reach zero. SafeSite is the per-site bitmask;
// the native tier runs the guard-free variant of exactly the sites it
// covers and keeps every dynamic guard elsewhere. The concrete
// implementation is safecheck.Certify.
type SafetyCertificate interface {
	Certificate
	// SafeSite reports whether the operation issued at (word, unit, beat)
	// is proven safe.
	SafeSite(word int, unit mach.Unit, beat uint8) bool
}

// Output returns the output printed so far by the current context.
func (m *Machine) Output() string { return m.cur.out.String() }

// StartDMA starts the I/O processor streaming into the byte range
// [base, base+n), wrapping circularly, at rate bytes per second. The IOP
// moves 64-bit doublewords and contends with the CPU through the ordinary
// bank-busy mechanism, so I/O load surfaces as CPU bank stalls — cycle
// stealing, exactly as Section 8.3 describes. The engine is capped at half
// of peak memory bandwidth, the paper's stated IOP limit.
func (m *Machine) StartDMA(base, n int64, rate float64) {
	if half := m.Cfg.PeakMemBandwidth() / 2; rate > half {
		rate = half
	}
	m.dmaRate = rate
	m.dmaBase = base
	m.dmaLen = n
	m.dmaIssued = 0
}

// dmaCatchUp issues every IOP reference due by the current beat. Each one
// occupies its RAM bank for the usual busy window and lands real bytes in
// memory; the CPU's bank-stall prescan then sees the claimed banks.
func (m *Machine) dmaCatchUp(c *Context) {
	if m.dmaRate <= 0 || m.dmaLen < 8 {
		return
	}
	beatsPerRef := 8 / (m.dmaRate * mach.BeatNs * 1e-9)
	due := int64(float64(c.beat) / beatsPerRef)
	for m.dmaIssued < due {
		refBeat := int64(float64(m.dmaIssued) * beatsPerRef)
		ea := m.dmaBase + (m.dmaIssued*8)%m.dmaLen
		if ea < 0 {
			m.dmaIssued++
			m.Stats.DMARefs++
			continue
		}
		ctrl, bank := m.Cfg.BankOf(ea)
		id := ctrl*8 + bank
		end := refBeat + mach.StageBank + int64(m.Cfg.BankBusyBeats)
		if end > c.bankBusy[id] {
			c.bankBusy[id] = end
		}
		if ea >= 0 && ea+8 <= int64(len(c.mem)) {
			for k := int64(0); k < 8; k++ {
				c.mem[ea+k] = byte(m.dmaIssued)
			}
		}
		m.dmaIssued++
		m.Stats.DMARefs++
	}
}

// ContextSwitch deschedules the current process and resumes it under a new
// address-space ID, charging the full register-state save/restore cost
// through the memory system (Section 8.1's ~15us figure). With process
// tags (the default), cache and TLB entries survive across the switch and
// "no purging is necessary"; set FlushOnSwitch to model an untagged
// machine that must invalidate everything. This is the OS-model switch —
// one process leaving one context — distinct from the hardware context
// rotation RunMany's scheduler performs, which moves no state at all.
func (m *Machine) ContextSwitch(asid uint8) {
	c := m.cur
	cfg := m.Cfg
	// State: 64 I + 64 F words per pair, 32 SF words per pair, 16 misc.
	words := int64(cfg.Pairs)*(64+64+32) + 16
	// Stored and reloaded as 64-bit doubles, one per board per beat,
	// capped by the store buses.
	perBeat := 2 * int64(cfg.Pairs)
	if perBeat > 2*int64(cfg.StoreBuses) {
		perBeat = 2 * int64(cfg.StoreBuses)
	}
	cost := 2*(words+perBeat-1)/perBeat + 60
	c.beat += cost
	m.Stats.Switches++
	m.Stats.SwitchBeats += cost
	c.asid = asid
	if m.FlushOnSwitch {
		for i := range c.itags {
			c.itags[i] = -1
		}
		for i := range c.dtlb {
			c.dtlb[i] = -1
			c.itlb[i] = -1
		}
	}
}

// PeekI reads an integer register of the current context (debugging/tests).
func (m *Machine) PeekI(board, idx int) int32 { return int32(m.cur.iregs[board][idx]) }

// PeekF reads a floating register of the current context (debugging/tests).
func (m *Machine) PeekF(board, idx int) float64 {
	return math.Float64frombits(m.cur.fregs[board][idx])
}

// Run boots the machine and executes until HALT. It returns main's exit
// value and the captured output. Run never polls a context; use RunContext
// for cancelable execution. Run executes context 0 only; use RunMany to
// time-share several resident contexts.
func (m *Machine) Run() (int32, string, error) { return m.run(nil) }

// RunContext is Run with cooperative cancellation: the machine polls ctx
// every CtxCheckEvery beats (at instruction boundaries) and abandons the run
// with *ErrCanceled — wrapping ctx.Err() — within one interval of the
// context being canceled or timing out. The poll sits outside the beat loop
// proper, so its cost on the native tier is below the benchmark noise floor
// (see BenchmarkSimulatorNativeCtx).
func (m *Machine) RunContext(ctx context.Context) (int32, string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return m.run(ctx)
}

// run is the shared boot-and-step loop for a single context; ctx == nil
// means no cancellation polling at all (the Run path).
func (m *Machine) run(ctx context.Context) (exit int32, out string, err error) {
	c := m.ctxs[0]
	m.cur = c
	m.curIdx = 0
	if c.nplan != nil {
		// The native tier's last line of defense: a
		// post-certification image mutation can drive a guard-free site into
		// the Go runtime's own slice-bounds or divide check. One deferred
		// recover per run (not per step — the hot loop stays untouched)
		// converts that panic back into the Fault the deleted guard would
		// have raised; the blast radius is this context, never the process.
		defer func() {
			if r := recover(); r != nil {
				m.finish(c)
				exit, out, err = 0, c.out.String(), m.safeTierFault(c, r)
			}
		}()
	}
	if c.restored {
		// Resuming a checkpoint: the context's state — banked Stats
		// included — IS the execution; booting would restart the program.
		m.Stats = c.Stats
	} else if err := c.boot(); err != nil {
		return 0, "", err
	}
	ctxEvery := m.CtxCheckEvery
	if ctxEvery <= 0 {
		ctxEvery = DefaultCtxCheckBeats
	}
	// With no context the next check is pushed past any reachable beat, so
	// the cancelable and plain paths run the identical per-instruction code:
	// one integer compare. StopBeat uses the same sentinel trick: disabled,
	// it is a compare against MaxInt64 that never fires.
	ctxCheckAt := int64(math.MaxInt64)
	if ctx != nil {
		ctxCheckAt = c.beat + ctxEvery
	}
	pauseAt := int64(math.MaxInt64)
	if m.StopBeat > 0 {
		pauseAt = m.StopBeat
	}
	native := c.nplan != nil
	for !c.halted {
		if c.beat >= ctxCheckAt {
			if err := ctx.Err(); err != nil {
				m.finish(c)
				return 0, c.out.String(), &ErrCanceled{Beat: c.beat, PC: c.pc, Cause: err}
			}
			ctxCheckAt = c.beat + ctxEvery
		}
		if c.beat >= pauseAt {
			m.finish(c)
			return 0, c.out.String(), &ErrStopped{Beat: c.beat, PC: c.pc}
		}
		if c.beat > m.CycleLimit {
			m.finish(c)
			return 0, c.out.String(), &ErrCycleLimit{Limit: m.CycleLimit, PC: c.pc}
		}
		var err error
		if native {
			err = m.stepNative(c)
		} else {
			err = m.step(c)
		}
		if err != nil {
			m.finish(c)
			return 0, c.out.String(), err
		}
	}
	m.finish(c)
	return c.exit, c.out.String(), nil
}

// finish closes out a single-context run: the run's beat count lands in
// the machine stats (as always) and the context banks a copy, so Context
// and Machine views agree.
func (m *Machine) finish(c *Context) {
	m.Stats.Beats = c.beat
	c.Stats = m.Stats
}

// RunMany boots every resident context and time-shares them on the one
// simulated CPU until all have halted or retired: round-robin rotation on
// quantum expiry (Quantum beats of context execution), eager rotation when
// the current context loses beats to a bank stall or an icache refill, and
// SwitchBeats of wall-clock charge per rotation (default 0 — the paper's
// near-free hardware switch).
//
// Each context executes on its own virtual clock with its own address
// space, so its results and Stats are bit-identical to an undisturbed solo
// run; a context that traps or exhausts CycleLimit retires alone, with the
// error in its ContextResult, while the rest run on. The machine-level
// picture lands in Sched (wall clock, hidden stall beats, switches) and in
// Stats as the cross-context aggregate. The returned error is non-nil only
// for whole-machine failures: boot errors and cancellation.
func (m *Machine) RunMany(ctx context.Context) ([]ContextResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, c := range m.ctxs {
		if c.done || c.halted {
			return nil, fmt.Errorf("vliw: RunMany on a used machine: Reset or ResetMany first")
		}
		if c.restored {
			// A restored tenant re-enters the batch mid-flight: its state
			// (virtual clock, pipeline, banked Stats) continues from the
			// checkpoint; switchTo loads the banked Stats when it runs.
			continue
		}
		if err := c.boot(); err != nil {
			return nil, err
		}
	}
	quantum := m.Quantum
	if quantum <= 0 {
		quantum = DefaultCtxQuantum
	}
	ctxEvery := m.CtxCheckEvery
	if ctxEvery <= 0 {
		ctxEvery = DefaultCtxCheckBeats
	}
	m.Sched = SchedStats{Contexts: len(m.ctxs)}
	live := len(m.ctxs)
	// Detach before the first switch: banking the machine's zeroed Stats
	// into context 0 here would clobber a restored tenant's banked counters.
	m.cur = nil
	m.switchTo(0)
	sliceEnd := m.cur.beat + quantum
	ctxCheckAt := ctxEvery

	for live > 0 {
		c := m.cur
		if c.done {
			m.rotate(quantum, &sliceEnd)
			continue
		}
		if m.beat >= ctxCheckAt {
			if err := ctx.Err(); err != nil {
				c.Stats = m.Stats // bank the interrupted context
				m.aggregate()
				return m.results(), &ErrCanceled{Beat: m.beat, PC: c.pc, Cause: err}
			}
			ctxCheckAt = m.beat + ctxEvery
		}
		if c.beat > m.CycleLimit {
			c.err = &ErrCycleLimit{Limit: m.CycleLimit, PC: c.pc}
			live = m.retire(c, live, quantum, &sliceEnd)
			continue
		}

		b0 := c.beat
		s0 := m.Stats.BankStalls + m.Stats.RefillBeats
		var err error
		if c.nplan != nil {
			err = m.stepNativeSafe(c)
		} else {
			err = m.step(c)
		}
		delta := c.beat - b0
		stall := m.Stats.BankStalls + m.Stats.RefillBeats - s0
		m.beat += delta
		m.Sched.BusyBeats += delta - stall
		hidden := false
		if stall > 0 && live > 1 {
			// Another resident context executes under the stall: the
			// machine's wall clock does not pay for it (§8.1's
			// latency-hiding), and the scheduler rotates eagerly so the
			// overlap is real, not notional.
			m.beat -= stall
			m.Sched.HiddenBeats += stall
			hidden = true
		}

		if err != nil {
			c.err = err
			live = m.retire(c, live, quantum, &sliceEnd)
			continue
		}
		if c.halted {
			live = m.retire(c, live, quantum, &sliceEnd)
			continue
		}
		if c.beat >= sliceEnd || hidden {
			m.rotate(quantum, &sliceEnd)
		}
	}
	m.aggregate()
	return m.results(), nil
}

// retire marks the current context done (banking its stats with the final
// beat count, exactly as a solo run's finish would) and rotates to the next
// live context. It returns the updated live count.
func (m *Machine) retire(c *Context, live int, quantum int64, sliceEnd *int64) int {
	m.Stats.Beats = c.beat
	c.Stats = m.Stats
	c.done = true
	live--
	if live > 0 {
		m.rotate(quantum, sliceEnd)
	}
	return live
}

// rotate banks the current context's stats and hands the CPU to the next
// runnable context in round-robin order, charging SwitchBeats of wall
// clock when the context actually changes. With one runnable context the
// rotation is free: the quantum is simply renewed.
func (m *Machine) rotate(quantum int64, sliceEnd *int64) {
	next := m.curIdx
	for i := 1; i <= len(m.ctxs); i++ {
		j := (m.curIdx + i) % len(m.ctxs)
		if !m.ctxs[j].done {
			next = j
			break
		}
	}
	if next != m.curIdx && !m.ctxs[next].done {
		m.Sched.Switches++
		m.beat += m.SwitchBeats
		m.Sched.SwitchBeats += m.SwitchBeats
		m.switchTo(next)
	}
	*sliceEnd = m.cur.beat + quantum
}

// switchTo makes context i current: the outgoing context's counters are
// banked and the incoming one's become the machine's live Stats.
func (m *Machine) switchTo(i int) {
	if m.cur != nil {
		m.cur.Stats = m.Stats
	}
	m.curIdx = i
	m.cur = m.ctxs[i]
	m.Stats = m.cur.Stats
}

// aggregate leaves the cross-context stat totals in m.Stats (Beats = the
// machine wall clock) and finalizes Sched after a RunMany.
func (m *Machine) aggregate() {
	var agg Stats
	for _, c := range m.ctxs {
		agg.add(&c.Stats)
	}
	agg.Beats = m.beat
	m.Stats = agg
	m.Sched.TotalBeats = m.beat
}

// results snapshots every context's outcome. Unfinished contexts (after a
// cancellation) report the beats they had executed so far.
func (m *Machine) results() []ContextResult {
	rs := make([]ContextResult, len(m.ctxs))
	for i, c := range m.ctxs {
		st := c.Stats
		st.Beats = c.beat
		rs[i] = ContextResult{Exit: c.exit, Output: c.out.String(), Stats: st, Err: c.err}
	}
	return rs
}

func (m *Machine) fault(c *Context, code TrapCode, format string, args ...any) error {
	return &Fault{Code: code, PC: c.pc, Beat: c.beat, Unit: m.curUnit, Msg: fmt.Sprintf(format, args...)}
}

// safeTierFault converts a Go runtime panic that escaped a guard-free
// native-tier site back into the machine fault the deleted guard would have
// raised. Anything that is not a runtime error (a panicking instrumentation
// hook, a simulator bug) is re-thrown: the native tier contains exactly the
// class of failure its certificate weakened, nothing else.
func (m *Machine) safeTierFault(c *Context, r any) error {
	re, ok := r.(runtime.Error)
	if !ok {
		panic(r)
	}
	if strings.Contains(re.Error(), "divide by zero") {
		return m.fault(c, TrapDivZero, "integer divide by zero (safe tier containment)")
	}
	return m.fault(c, TrapMemBounds, "bus error (safe tier containment): %v", re)
}

// StallBank forces the RAM bank holding byte address ea busy for the next n
// beats — an injectable memory-system fault. A stalled bank is a pure timing
// perturbation: the bank-stall mechanism (§6.4.4) charges the delay before
// the instruction initiates, so results must be unchanged while Stats.Beats
// and Stats.BankStalls grow. The robustness tests use it to prove the
// machine is timing-robust where it must be and corruption-sensitive where
// it must be.
func (m *Machine) StallBank(ea int64, n int64) {
	if ea < 0 {
		return
	}
	c := m.cur
	ctrl, bank := m.Cfg.BankOf(ea)
	id := ctrl*8 + bank
	if until := c.beat + n; until > c.bankBusy[id] {
		c.bankBusy[id] = until
	}
}

// step executes one wide instruction (two beats) of context c from its
// pre-decoded plan.
func (m *Machine) step(c *Context) error {
	if c.pc < 0 || c.pc >= len(c.plan) {
		return m.fault(c, TrapBadPC, "instruction fetch outside image")
	}
	// timer interrupts are taken at instruction boundaries; the pipelines
	// drain on their own, so the handler cost is a pure beat charge
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
	m.fetch(c, c.pc)
	if m.TraceFn != nil {
		m.TraceFn(c.pc, c.beat)
	}
	pw := &c.plan[c.pc]
	m.Stats.Instrs++

	if m.dmaRate > 0 {
		m.dmaCatchUp(c)
	}
	// Pre-scan memory references for TLB misses and bank stalls. The
	// machine charges the bank-stall before initiating the instruction,
	// and takes the trap (history-queue replay) for the whole batch of
	// misses at once (§6.4.3: up to 16 misses pending per trap entry).
	if len(pw.mem) > 0 {
		var stall int64
		misses := 0
		for i := range pw.mem {
			pm := &pw.mem[i]
			ea, ok := c.eaOf(pm.op)
			if !ok {
				continue // fault reported at execution
			}
			if c.dtlbMiss(ea) {
				misses++
			}
			if ea < 0 {
				continue // wild negative address: no bank to stall on; faults (or the §7 funny number) at execution
			}
			ctrl, bank := m.Cfg.BankOf(ea)
			id := ctrl*8 + bank
			access := c.beat + pm.beat + mach.StageBank + stall
			if busy := c.bankBusy[id]; busy > access {
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

	nextPC := c.pc + 1
	// §6.5.2 multiway branch: the highest-priority (lowest Prio, first in
	// slot order on ties) true test supplies the next address.
	taken := false
	bestPrio := 0
	halted := false
	var exit int32

	for beat := 0; beat < 2; beat++ {
		if err := m.applyWrites(c); err != nil {
			return err
		}
		if m.CheckRes {
			if v := pw.viol[beat]; v != nil {
				return m.fault(c, v.code, "%s", v.msg)
			}
		}
		ops := pw.beats[beat]
		for i := range ops {
			p := &ops[i]
			m.Stats.Ops++
			m.curUnit = p.unitName
			if p.unitKind == mach.UBR {
				t, halt, err := m.execBranch(p.op)
				if err != nil {
					return err
				}
				if halt != nil {
					halted = true
					exit = *halt
				}
				if t >= 0 && (!taken || p.op.Prio < bestPrio) {
					taken = true
					bestPrio = p.op.Prio
					nextPC = t
				}
			} else if err := m.execOp(p); err != nil {
				return err
			}
			m.curUnit = ""
		}
		c.beat++
	}

	if taken {
		m.Stats.Taken++
	}
	if halted {
		c.halted = true
		c.exit = exit
		return nil
	}
	c.pc = nextPC
	return nil
}

func isMemOp(k ir.OpKind) bool {
	return k == ir.Load || k == ir.LoadSpec || k == ir.Store
}

// fetch models the instruction cache: direct-mapped, refilled in aligned
// blocks of four via the mask-word engine at memory bandwidth (§6.5.1).
func (m *Machine) fetch(c *Context, pc int) {
	// instruction TLB: pages of PageSize/4 instructions (8KB of packed
	// words approximated)
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
	line := pc % len(c.itags)
	if c.itags[line] == pc && c.iasids[line] == c.asid {
		m.Stats.ICacheHits++
		return
	}
	m.refillICache(c, pc)
}

// refillICache charges an icache miss and refills the aligned
// 4-instruction block (shared by fetch and the native tier's nFetch).
func (m *Machine) refillICache(c *Context, pc int) {
	m.Stats.ICacheMiss++
	// refill the aligned 4-instruction block
	blk := pc &^ 3
	words := 4 // the four mask words
	for i := blk; i < blk+4 && i < len(c.img.Words); i++ {
		for _, w := range c.img.Words[i] {
			if w != 0 {
				words++
			}
		}
		line := i % len(c.itags)
		c.itags[line] = i
		c.iasids[line] = c.asid
	}
	// refill proceeds at full bus bandwidth: ILoad buses carry 4 bytes per
	// beat each; mask interpretation adds a fixed 2 beats
	buses := m.Cfg.ILoadBuses
	beats := int64((words+buses-1)/buses) + 2
	m.Stats.RefillBeats += beats
	c.beat += beats
}

// applyWrites retires pipeline writes due at the current beat ("the
// destination register is specified when the operation is initiated, and a
// hardware control pipeline carries the destination forward", §6.2). The
// handful of writes retiring in any one beat are race-checked pairwise
// against a reused scratch list — no per-beat map. The native tier's retire
// ring skips the check: schedcheck's dataflow analysis proved no path can
// retire two writes into one register together.
func (m *Machine) applyWrites(c *Context) error {
	retired := c.retired[:0]
	kept := c.pending[:0]
	for _, w := range c.pending {
		if w.beat > c.beat {
			kept = append(kept, w)
			continue
		}
		for i := range retired {
			if retired[i].dst == w.dst {
				return m.fault(c, TrapWriteRace, "write-write race on %s: writes issued at word %d and word %d retire together",
					w.dst, retired[i].pc, w.pc)
			}
		}
		retired = append(retired, w)
		val := w.val
		if m.InjectWrite != nil {
			val = m.InjectWrite(c.beat, w.dst, val)
		}
		c.writeReg(w.dst, val)
	}
	c.pending = kept
	c.retired = retired[:0]
	return nil
}
