package fuzz

import (
	"context"
	"fmt"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// timeshareK is the context count of the multi-tenancy oracle stage: four
// generated programs share one machine, the smallest population where
// round-robin rotation, eager stall rotation, and staggered retirement all
// occur.
const timeshareK = 4

// soloResult is one program's reference execution for the time-sharing
// comparison: the solo run IS the oracle — the scheduler must not be able
// to change any of it.
type soloResult struct {
	img  *isa.Image
	legs []leg // the legs the shared machine runs this image on
	src  string
	ref  result
}

// CheckTimeshare is the multi-context oracle stage: the sources compile at
// full optimization for one machine, run solo to establish per-program
// references, then run again time-shared K=4 on shared machines. Any
// difference in a program's exit, output, or performance counters between
// its solo and time-shared execution is a context-scheduler bug — the
// hardware-context model promises bit-exact solo equivalence. The solo
// references run checked; the shared machine runs checked, or under
// -tier=native once per certificate grade, so the closure-threaded
// translator is exercised under round-robin preemption too. Inputs that
// fail to compile or whose solo run errs are skipped (they are the other
// stages' business); ErrSkip reports that no input survived to compare.
func CheckTimeshare(ctx context.Context, srcs []string, o Options) error {
	maxCycles := o.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	native, err := o.native()
	if err != nil {
		return err
	}
	copts := core.Options{Config: mach.Trace28(), Opt: opt.Default(), Parallelism: 1}

	var solos []soloResult
	for _, src := range srcs {
		res, err := core.Compile(ctx, src, copts)
		if err != nil {
			if isCapacityReject(err) || ctx.Err() != nil {
				continue
			}
			continue // non-compiling input: Check's business, not ours
		}
		rep := schedcheck.Check(res.Image, schedcheck.Options{
			Src: schedcheck.NewSourceMap(res.Image, res.Funcs),
		})
		if rep.Err() != nil {
			continue
		}
		legs := []leg{checkedLeg}
		if native {
			if legs, err = nativeLegs(res.Image, rep); err != nil {
				return err
			}
		}
		// The solo run establishes the reference, Stats included.
		ref := checkedLeg.run(ctx, res.Image, maxCycles)
		if ref.err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue // solo trap or budget: no reference to compare against
		}
		solos = append(solos, soloResult{img: res.Image, legs: legs, src: src, ref: ref})
	}
	if len(solos) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrSkip
	}

	for g := range solos[0].legs {
		for lo := 0; lo < len(solos); lo += timeshareK {
			if err := checkShared(ctx, solos[lo:min(lo+timeshareK, len(solos))], g, maxCycles); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkShared runs one batch time-shared on each image's g'th leg and
// compares every context against its solo reference.
func checkShared(ctx context.Context, batch []soloResult, g int, maxCycles int64) error {
	imgs := make([]*isa.Image, len(batch))
	for i, s := range batch {
		imgs[i] = s.img
	}
	m := machinePool.Get().(*vliw.Machine)
	defer machinePool.Put(m)
	if err := m.ResetMany(imgs); err != nil {
		return err
	}
	m.CycleLimit = maxCycles
	for _, s := range batch {
		if c := s.legs[g].cert; c != nil {
			if err := m.UseNativeCertificate(c); err != nil {
				return err
			}
		}
	}
	name := batch[0].legs[g].name
	rs, err := m.RunMany(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &Divergence{Stage: "timeshare", Config: fmt.Sprintf("trace28/O2/%s/K%d", name, len(batch)),
			Detail: fmt.Sprintf("solo runs were clean but the time-shared machine failed: %v", err),
			Src:    batch[0].src}
	}
	for i, r := range rs {
		if d := differ(batch[i].ref, result{r.Exit, r.Output, r.Stats, r.Err}, "time-shared"); d != "" {
			return &Divergence{Stage: "timeshare", Config: fmt.Sprintf("trace28/O2/%s/K%d ctx%d", name, len(batch), i),
				Detail: d, Src: batch[i].src}
		}
	}
	return nil
}

// CheckTimeshareSeeds generates the programs for a contiguous seed range and
// runs the time-sharing oracle stage over them.
func CheckTimeshareSeeds(ctx context.Context, seed, n int64, o Options) error {
	srcs := make([]string, 0, n)
	for s := seed; s < seed+n; s++ {
		srcs = append(srcs, Gen(s))
	}
	return CheckTimeshare(ctx, srcs, o)
}
