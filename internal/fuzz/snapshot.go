package fuzz

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// snapshotSplits is how many random beat offsets each surviving program is
// split at, per checking mode. Random offsets land snapshots in the states a
// hand-written test can't aim for — mid-pending-write, mid-bank-stall, the
// beat before a trap — which is the point of fuzzing them.
const snapshotSplits = 3

// CheckSnapshot is the checkpoint/restore oracle stage for one program: the
// program compiles at full optimization, runs uninterrupted to establish the
// reference, then re-runs split at random beats — pause, serialize, restore
// onto a different pooled machine, continue — on the checked tier, on the
// native tier armed with the resource certificate (when the image
// certifies), and — when Options asks for the native tier and the image
// certifies at the safety grade — armed with the safety certificate too,
// proving the snapshot wire format is tier-independent. The stitched run
// must match the reference bit-for-bit: exit, output, and every performance
// counter. A corrupted snapshot must be refused by Restore, never
// half-applied.
func CheckSnapshot(ctx context.Context, src string, seed int64, o Options) error {
	maxCycles := o.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	native, err := o.native()
	if err != nil {
		return err
	}
	copts := core.Options{Config: mach.Trace28(), Opt: opt.Default(), Parallelism: 1}
	art, err := core.Build(ctx, src, copts)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return ErrSkip // non-compiling or capacity-rejected: other stages' business
	}
	img := art.Image()

	ref := checkedLeg.run(ctx, img, maxCycles)
	if ref.err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return ErrSkip // reference traps or exceeds budget: no ground truth
	}
	if ref.st.Beats < 2 {
		return ErrSkip // nowhere to split
	}

	// The artifact caches its certificates, so the safety analysis runs
	// once, not per split.
	legs := []leg{checkedLeg}
	if cert, err := art.Certificate(); err == nil {
		legs = append(legs, leg{"native/resource", cert})
		if native {
			if scert, err := art.CertifySafe(); err == nil {
				legs = append(legs, leg{"native/safe", scert})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var snap []byte // one surviving snapshot, reused for the corruption probe
	for _, l := range legs {
		for s := 0; s < snapshotSplits; s++ {
			at := 1 + rng.Int63n(ref.st.Beats-1)
			got, taken := splitRun(ctx, img, l, maxCycles, at)
			if got.err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if taken != nil {
				snap = taken
			}
			if d := differ(ref, got, "split"); d != "" {
				return &Divergence{Stage: "snapshot", Config: fmt.Sprintf("trace28/O2/%s split@%d", l.name, at), Detail: d, Src: src}
			}
		}
	}

	if snap != nil {
		// Integrity probe: one flipped payload byte must be rejected whole.
		bad := append([]byte(nil), snap...)
		bad[len(bad)/2] ^= 0x40
		m := machinePool.Get().(*vliw.Machine)
		err := checkedLeg.load(m, img, maxCycles, bad)
		machinePool.Put(m)
		var ebs *vliw.ErrBadSnapshot
		if !errors.As(err, &ebs) {
			return &Divergence{Stage: "snapshot", Config: "corrupt",
				Detail: fmt.Sprintf("corrupted snapshot was not rejected (err=%v)", err), Src: src}
		}
	}
	return nil
}

// splitRun runs img on one leg paused at beat at, serializes the context,
// restores the snapshot onto a different pooled machine — the snapshot must
// carry everything, not lean on leftovers — and continues to the end. A
// split landing inside the final instruction completes instead of pausing;
// either way the result must equal the uninterrupted reference. It also
// returns the snapshot taken, nil when the run did not pause.
func splitRun(ctx context.Context, img *isa.Image, l leg, maxCycles, at int64) (result, []byte) {
	m := machinePool.Get().(*vliw.Machine)
	defer machinePool.Put(m)
	if err := l.load(m, img, maxCycles, nil); err != nil {
		return result{err: err}, nil
	}
	m.StopBeat = at
	v, out, err := m.RunContext(ctx)
	var stop *vliw.ErrStopped
	if !errors.As(err, &stop) {
		return result{v, out, m.Stats, err}, nil
	}
	snap, err := m.Contexts()[0].Snapshot()
	if err != nil {
		return result{err: err}, nil
	}
	r := machinePool.Get().(*vliw.Machine)
	defer machinePool.Put(r)
	if err := l.load(r, img, maxCycles, snap); err != nil {
		return result{err: fmt.Errorf("restore: %w", err)}, snap
	}
	v, out, err = r.RunContext(ctx)
	return result{v, out, r.Stats, err}, snap
}

// CheckSnapshotSeeds generates programs for a contiguous seed range and runs
// the checkpoint/restore oracle over each; ErrSkip reports that no program
// survived to a splittable reference run.
func CheckSnapshotSeeds(ctx context.Context, seed, n int64, o Options) error {
	survived := false
	for s := seed; s < seed+n; s++ {
		err := CheckSnapshot(ctx, Gen(s), s, o)
		if errors.Is(err, ErrSkip) {
			continue
		}
		if err != nil {
			return err
		}
		survived = true
	}
	if !survived {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrSkip
	}
	return nil
}
