package fuzz

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/tsched"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// ErrSkip reports that an input cannot establish a reference result — it
// does not compile, or the reference itself traps or exhausts its budget.
// Skipped inputs are not findings: the compiler rejected or diagnosed them.
var ErrSkip = errors.New("fuzz: input establishes no reference result")

// Divergence is a confirmed oracle failure: the VLIW stack disagreed with
// the scalar reference, compilation was nondeterministic, or a compiled
// artifact failed static verification. Any Divergence is a compiler or
// simulator bug.
type Divergence struct {
	Stage  string // "compile", "ir-validate", "lint", "trap", "exit", "output", "image"
	Config string // machine/opt/parallelism setting that diverged
	Detail string
	Src    string // the offending program
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("divergence [%s] at %s: %s", d.Stage, d.Config, d.Detail)
}

// Options tunes the oracle budgets.
type Options struct {
	// RefSteps bounds the reference interpreter (default 50M ops).
	RefSteps int64
	// MaxCycles bounds each VLIW run (default scales with the reference).
	MaxCycles int64
	// Tier selects the oracle's execution-tier regime. TierChecked (the
	// zero value) runs the checked tier only — the strongest single-tier
	// oracle, cross-checking the static verifier against the dynamic one.
	// TierNative upgrades the oracle to the tier matrix: every image that
	// runs also executes on the native tier armed with the bare resource
	// certificate and with the safety certificate, and all three runs must
	// agree on the exit value, the output, the fault, and every Stats
	// counter. The timeshare and snapshot stages run the native legs too.
	Tier vliw.Tier
}

// native reports whether the regime adds the native legs.
func (o Options) native() (bool, error) {
	if o.Tier != vliw.TierChecked && o.Tier != vliw.TierNative {
		return false, fmt.Errorf("fuzz: unknown execution tier %v", o.Tier)
	}
	return o.Tier == vliw.TierNative, nil
}

// leg is one execution the oracle compares: the checked interpreter (nil
// cert) or the native tier armed with cert.
type leg struct {
	name string
	cert vliw.Certificate
}

var checkedLeg = leg{name: "checked"}

// nativeLegs mints both certificate grades for exactly this image from its
// clean lint report — the safety analysis runs once — and returns the
// native tier armed with each. An image that cannot certify after a clean
// lint is itself a schedcheck bug, so the error is returned for the oracle
// to flag. On a fuzz input nothing may be provable at the safety grade,
// which is fine: an empty bitmask still exercises the arming and
// containment machinery.
func nativeLegs(img *isa.Image, rep *schedcheck.Report) ([]leg, error) {
	cert, err := rep.Certify()
	if err != nil {
		return nil, fmt.Errorf("lint passed but certification failed: %w", err)
	}
	scert, err := safecheck.Analyze(img, safecheck.Options{}).Certify(cert)
	if err != nil {
		return nil, fmt.Errorf("resource certificate minted but safety grading failed: %w", err)
	}
	return []leg{{"native/resource", cert}, {"native/safe", scert}}, nil
}

// load resets m onto img with the beat budget, restores snap when given,
// and arms the leg (after the restore, as Artifact.RunFrom does).
func (l leg) load(m *vliw.Machine, img *isa.Image, maxCycles int64, snap []byte) error {
	m.Reset(img)
	m.CycleLimit = maxCycles
	if snap != nil {
		if err := m.Contexts()[0].Restore(snap); err != nil {
			return err
		}
	}
	if l.cert == nil {
		return nil
	}
	return m.UseNativeCertificate(l.cert)
}

// machinePool recycles simulator machines across oracle runs. A machine
// owns multi-megabyte memory and TLB/itag arrays; reallocating them for
// every (input × matrix config) run dominated the oracle's allocation
// profile, so runs borrow a machine and Reset it onto each image instead.
var machinePool = sync.Pool{New: func() any { return new(vliw.Machine) }}

// result is one execution's observable outcome.
type result struct {
	exit int32
	out  string
	st   vliw.Stats
	err  error
}

// run executes one linked image on the leg.
func (l leg) run(ctx context.Context, img *isa.Image, maxCycles int64) result {
	m := machinePool.Get().(*vliw.Machine)
	defer machinePool.Put(m)
	if err := l.load(m, img, maxCycles, nil); err != nil {
		return result{err: err}
	}
	v, out, err := m.RunContext(ctx)
	return result{v, out, m.Stats, err}
}

// differ describes the first observable difference between a reference
// execution and another one (named what) — trap status, fault text, exit
// value, output, or any Stats counter — or returns "" when they agree.
func differ(ref, got result, what string) string {
	switch {
	case (ref.err == nil) != (got.err == nil):
		return fmt.Sprintf("trap disagreement: reference err=%v, %s err=%v", ref.err, what, got.err)
	case ref.err != nil && ref.err.Error() != got.err.Error():
		return fmt.Sprintf("different faults: reference %v, %s %v", ref.err, what, got.err)
	case ref.err != nil:
		return ""
	case ref.exit != got.exit:
		return fmt.Sprintf("exit %d %s, reference %d", got.exit, what, ref.exit)
	case ref.out != got.out:
		return fmt.Sprintf("output %q %s, reference %q", got.out, what, ref.out)
	case ref.st != got.st:
		return fmt.Sprintf("stats diverged:\n  reference: %+v\n  %s: %+v", ref.st, what, got.st)
	}
	return ""
}

// checkTiers runs the image on the checked interpreter and, when native is
// set, on both native legs, requiring byte-identical results. It returns
// the checked tier's result for the caller's reference comparison; the
// *Divergence is non-nil when the legs disagree among themselves.
func checkTiers(ctx context.Context, img *isa.Image, rep *schedcheck.Report, native bool, maxCycles int64, config, src string) (result, *Divergence) {
	ref := checkedLeg.run(ctx, img, maxCycles)
	if !native {
		return ref, nil
	}
	legs, err := nativeLegs(img, rep)
	if err != nil {
		return ref, &Divergence{Stage: "tier", Config: config, Detail: err.Error(), Src: src}
	}
	for _, l := range legs {
		if d := differ(ref, l.run(ctx, img, maxCycles), l.name); d != "" {
			return ref, &Divergence{Stage: "tier", Config: config + "/" + l.name, Detail: d, Src: src}
		}
	}
	return ref, nil
}

// matrix is the compile-and-run settings every input is checked across:
// every optimization level, multiple machine widths, and the basic-block-only
// ablation. The full-optimization Trace 28 setting is exercised separately by
// checkO2 so its compile also feeds the image-determinism comparison.
var matrix = []struct {
	name     string
	cfg      func() mach.Config
	opt      func() opt.Options
	maxTrace int
	jobs     int
}{
	{"trace7/O0/j1", mach.Trace7, opt.None, 0, 1},
	{"trace14/O1/j1", mach.Trace14, func() opt.Options { return opt.Options{Inline: true, UnrollFactor: 4} }, 0, 1},
	{"trace28/O2/bb-only/j1", mach.Trace28, opt.Default, 1, 1},
}

// Check runs the full differential oracle on one MF source text. It returns
// nil when every configuration agrees with the scalar reference, ErrSkip
// when the input establishes no reference, and a *Divergence otherwise.
func Check(ctx context.Context, src string, o Options) error {
	if o.RefSteps == 0 {
		o.RefSteps = 50_000_000
	}
	native, nerr := o.native()
	if nerr != nil {
		return nerr
	}

	// Reference: the IR interpreter underneath the scalar baseline is the
	// semantic ground truth; it shares no code with the scheduler or the
	// VLIW machine model.
	prog, err := lang.Compile(src)
	if err != nil {
		return ErrSkip // frontend rejected it with a positioned diagnostic
	}
	refRes, wantV, wantOut, rerr := baseline.ScalarBudget(prog, mach.Trace7(), o.RefSteps)
	if rerr != nil {
		return ErrSkip // reference traps or exceeds budget: no ground truth
	}
	maxCycles := o.MaxCycles
	if maxCycles == 0 {
		// A VLIW beat retires at most a few ops; anything past this factor
		// of the reference op count is a wedged or miscompiled program.
		maxCycles = 200*refRes.Ops + 2_000_000
	}

	for _, m := range matrix {
		copts := core.Options{
			Config: m.cfg(), Opt: m.opt(),
			MaxTraceBlocks: m.maxTrace, Parallelism: m.jobs,
		}
		res, err := core.Compile(ctx, src, copts)
		if err != nil {
			// The machine is finite and the allocator does not spill: a
			// structured capacity rejection on a narrow config is the
			// compiler refusing honestly, not a bug. Anything else —
			// including a recovered panic — is a finding.
			if isCapacityReject(err) {
				continue
			}
			return &Divergence{Stage: "compile", Config: m.name,
				Detail: fmt.Sprintf("reference accepted the program but compilation failed: %v", err), Src: src}
		}
		rep, d := checkArtifact(res, m.name, src)
		if d != nil {
			return d
		}
		got, d := checkTiers(ctx, res.Image, rep, native, maxCycles, m.name, src)
		if d != nil {
			return d
		}
		if got.err != nil {
			return &Divergence{Stage: "trap", Config: m.name,
				Detail: fmt.Sprintf("reference ran clean but the machine faulted: %v", got.err), Src: src}
		}
		if got.exit != wantV {
			return &Divergence{Stage: "exit", Config: m.name,
				Detail: fmt.Sprintf("exit %d, reference %d", got.exit, wantV), Src: src}
		}
		if got.out != wantOut {
			return &Divergence{Stage: "output", Config: m.name,
				Detail: fmt.Sprintf("output %q, reference %q", got.out, wantOut), Src: src}
		}
	}

	// Full optimization on the widest machine, sequential and parallel
	// backends: run the sequential image against the reference, then require
	// the 4-worker build to be byte-identical.
	return checkO2(ctx, src, wantV, wantOut, maxCycles, native)
}

// checkArtifact statically verifies every artifact a successful compile
// produced: the optimized IR the scheduler consumed must still validate,
// and the linked image must pass schedcheck. The simulator then runs the
// same image, so a schedule that lints clean but traps dynamically (or vice
// versa) surfaces as a pair of contradictory findings — itself a bug in one
// of the two implementations of the legality rules. On success it returns
// the clean report, which the native legs mint into certificates instead
// of re-running the analysis.
func checkArtifact(res *core.Result, config, src string) (*schedcheck.Report, *Divergence) {
	if err := res.OptIR.Validate(); err != nil {
		return nil, &Divergence{Stage: "ir-validate", Config: config,
			Detail: fmt.Sprintf("optimized IR fails validation after a clean compile: %v", err), Src: src}
	}
	rep := schedcheck.Check(res.Image, schedcheck.Options{
		Src: schedcheck.NewSourceMap(res.Image, res.Funcs),
	})
	if err := rep.Err(); err != nil {
		return nil, &Divergence{Stage: "lint", Config: config,
			Detail: fmt.Sprintf("compiled image fails static schedule verification: %v", err), Src: src}
	}
	return rep, nil
}

// isCapacityReject reports whether err is one of the compiler's structured
// finite-machine rejections (register pressure after the full retry ladder,
// or the schedule-size runaway guard).
func isCapacityReject(err error) bool {
	var ep *tsched.ErrPressure
	var es *tsched.ErrScheduleSize
	return errors.As(err, &ep) || errors.As(err, &es)
}

// checkO2 compiles at full optimization for Trace 28 with a sequential and a
// 4-worker backend, checks the sequential image against the reference result,
// and requires the parallel build to be byte-identical to the sequential one.
func checkO2(ctx context.Context, src string, wantV int32, wantOut string, maxCycles int64, native bool) error {
	opts := func(jobs int) core.Options {
		return core.Options{Config: mach.Trace28(), Opt: opt.Default(), Parallelism: jobs}
	}
	seq, err := core.Compile(ctx, src, opts(1))
	if err != nil {
		if isCapacityReject(err) {
			return nil
		}
		return &Divergence{Stage: "compile", Config: "trace28/O2/j1",
			Detail: fmt.Sprintf("reference accepted the program but compilation failed: %v", err), Src: src}
	}
	rep, d := checkArtifact(seq, "trace28/O2/j1", src)
	if d != nil {
		return d
	}
	got, d := checkTiers(ctx, seq.Image, rep, native, maxCycles, "trace28/O2/j1", src)
	if d != nil {
		return d
	}
	if got.err != nil {
		return &Divergence{Stage: "trap", Config: "trace28/O2/j1",
			Detail: fmt.Sprintf("reference ran clean but the machine faulted: %v", got.err), Src: src}
	}
	if got.exit != wantV || got.out != wantOut {
		return &Divergence{Stage: "exit", Config: "trace28/O2/j1",
			Detail: fmt.Sprintf("exit %d output %q, reference %d %q", got.exit, got.out, wantV, wantOut), Src: src}
	}

	par, err := core.Compile(ctx, src, opts(4))
	if err != nil {
		return &Divergence{Stage: "image", Config: "trace28/O2/j4",
			Detail: fmt.Sprintf("sequential build succeeded but parallel build failed: %v", err), Src: src}
	}
	if len(par.Image.Instrs) != len(seq.Image.Instrs) {
		return &Divergence{Stage: "image", Config: "trace28/O2/j4",
			Detail: fmt.Sprintf("instruction count %d vs %d", len(par.Image.Instrs), len(seq.Image.Instrs)), Src: src}
	}
	for i := range seq.Image.Words {
		for w := range seq.Image.Words[i] {
			if seq.Image.Words[i][w] != par.Image.Words[i][w] {
				return &Divergence{Stage: "image", Config: "trace28/O2/j4",
					Detail: fmt.Sprintf("instr %d word %d differs between j1 and j4 builds", i, w), Src: src}
			}
		}
	}
	return nil
}

// CheckSeed generates the program for seed and runs the oracle on it.
func CheckSeed(ctx context.Context, seed int64, o Options) error {
	return Check(ctx, Gen(seed), o)
}
