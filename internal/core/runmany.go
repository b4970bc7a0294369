package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// RunManyOptions configures one time-shared execution of several artifacts
// on a single machine's hardware contexts.
type RunManyOptions struct {
	// Tier puts every context onto the named execution tier: checked (the
	// zero value) or native. All-or-nothing per call: if any artifact in
	// the batch fails to certify, RunMany errors rather than silently
	// mixing tiers across tenants.
	Tier vliw.Tier
	// MaxCycles overrides the per-context beat budget (0 keeps the
	// default). A context exceeding it retires with *vliw.ErrCycleLimit in
	// its ManyResult; the rest run on.
	MaxCycles int64
	// Quantum overrides the scheduler's round-robin timeslice in beats
	// (0 keeps the image configuration's CtxQuantum, default 2048).
	Quantum int64
	// SwitchBeats overrides the wall-clock cost per context rotation
	// (0 keeps the configuration's CtxSwitchBeats, default 0).
	SwitchBeats int64
	// Snapshots, when non-nil, must carry one entry per artifact: a non-nil
	// entry restores that context from a checkpoint (the preempted tenant
	// re-enters the batch mid-flight, continuing on its own virtual clock);
	// nil entries boot fresh. Each snapshot must come from a run of the
	// matching artifact's image — Restore refuses mismatches.
	Snapshots [][]byte
	// SnapshotOnInterrupt captures a resume snapshot into every unfinished
	// tenant's ManyResult when the batch is canceled, and into every tenant
	// retired by the cycle budget — preemption checkpoints the victims
	// instead of discarding them.
	SnapshotOnInterrupt bool
}

// ManyResult is one context's completed execution within a RunMany batch.
// Err is per-context: a trap or cycle-limit there retires that context
// alone and does not disturb its neighbors.
type ManyResult struct {
	Exit   int32
	Output string
	Stats  vliw.Stats
	// Tier records the execution tier this context actually ran on.
	Tier vliw.Tier
	Err  error
	// Snapshot is the tenant's resume point, present only under
	// RunManyOptions.SnapshotOnInterrupt for tenants that were preempted
	// (batch canceled) or cycle-limited rather than finished.
	Snapshot []byte
}

// RunMany time-shares the artifacts' programs on one simulated CPU, one
// hardware context each, and returns their per-context results (solo-
// equivalent: identical to what each program would produce running alone)
// plus the machine-level scheduler counters. Every artifact must target the
// same machine configuration. The returned error covers whole-machine
// failures only — mixed configurations, certification failure, boot errors,
// cancellation; per-program traps land in the matching ManyResult.Err.
func RunMany(ctx context.Context, arts []*Artifact, o RunManyOptions) ([]ManyResult, vliw.SchedStats, error) {
	if len(arts) == 0 {
		return nil, vliw.SchedStats{}, fmt.Errorf("core: RunMany needs at least one artifact")
	}
	return RunManyOn(ctx, vliw.New(arts[0].Image()), arts, o)
}

// RunManyOn is RunMany on a caller-provided machine, which is ResetMany
// onto the artifacts' images first. Callers serving many batches pool
// machines exactly as they do for RunOn; an artifact may appear several
// times in the batch (its decoded plan is shared across those contexts).
func RunManyOn(ctx context.Context, m *vliw.Machine, arts []*Artifact, o RunManyOptions) ([]ManyResult, vliw.SchedStats, error) {
	imgs := make([]*isa.Image, len(arts))
	for i, a := range arts {
		imgs[i] = a.Image()
	}
	if err := m.ResetMany(imgs); err != nil {
		return nil, vliw.SchedStats{}, err
	}
	if o.Snapshots != nil {
		if len(o.Snapshots) != len(arts) {
			return nil, vliw.SchedStats{}, fmt.Errorf("core: RunMany got %d snapshots for %d artifacts", len(o.Snapshots), len(arts))
		}
		for i, snap := range o.Snapshots {
			if snap == nil {
				continue
			}
			if err := m.Contexts()[i].Restore(snap); err != nil {
				return nil, vliw.SchedStats{}, fmt.Errorf("context %d: %w", i, err)
			}
		}
	}
	if o.MaxCycles > 0 {
		m.CycleLimit = o.MaxCycles
	}
	if o.Quantum > 0 {
		m.Quantum = o.Quantum
	}
	if o.SwitchBeats > 0 {
		m.SwitchBeats = o.SwitchBeats
	}
	certified := make(map[*isa.Image]bool, len(arts))
	for i, a := range arts {
		if certified[a.Image()] {
			continue
		}
		if err := a.arm(m, o.Tier); err != nil {
			return nil, vliw.SchedStats{}, fmt.Errorf("context %d: %w", i, err)
		}
		certified[a.Image()] = true
	}
	crs, err := m.RunMany(ctx)
	if crs == nil {
		return nil, m.Sched, err
	}
	ctxs := m.Contexts()
	rs := make([]ManyResult, len(crs))
	for i, cr := range crs {
		rs[i] = ManyResult{Exit: cr.Exit, Output: cr.Output, Stats: cr.Stats, Tier: ctxs[i].Tier(), Err: cr.Err}
		if !o.SnapshotOnInterrupt {
			continue
		}
		// Checkpoint the tenants whose execution was cut short but remains
		// resumable: cycle-limit retirees, and — when the whole batch was
		// canceled — every tenant that had not yet halted or trapped.
		var el *vliw.ErrCycleLimit
		interrupted := errors.As(cr.Err, &el) || (err != nil && cr.Err == nil && !ctxs[i].Halted())
		if !interrupted {
			continue
		}
		if snap, serr := ctxs[i].Snapshot(); serr == nil {
			rs[i].Snapshot = snap
		}
	}
	return rs, m.Sched, err
}
