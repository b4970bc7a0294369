package core

import (
	"context"
	"errors"
	"testing"

	"github.com/multiflow-repro/trace/internal/vliw"
)

// buildDemo compiles the shared demo program and its uninterrupted
// reference result.
func buildDemo(t *testing.T) (*Artifact, ExitResult) {
	t.Helper()
	art, err := Build(context.Background(), cancelDemo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := art.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return art, ref
}

func assertMatchesRef(t *testing.T, label string, got, ref ExitResult) {
	t.Helper()
	if got.Exit != ref.Exit || got.Output != ref.Output {
		t.Errorf("%s: exit/output diverged: got (%d, %q), want (%d, %q)",
			label, got.Exit, got.Output, ref.Exit, ref.Output)
	}
	if got.Stats != ref.Stats {
		t.Errorf("%s: stats diverged:\ngot  %+v\nwant %+v", label, got.Stats, ref.Stats)
	}
}

func TestArtifactSnapshotAtAndRunFrom(t *testing.T) {
	art, ref := buildDemo(t)
	for _, tier := range []vliw.Tier{vliw.TierChecked, vliw.TierNative} {
		out, err := art.Run(context.Background(), RunOptions{
			Tier: tier, SnapshotAt: ref.Stats.Beats / 2})
		if err != nil {
			t.Fatalf("%v: split run: %v", tier, err)
		}
		if !out.Paused || out.Snapshot == nil {
			t.Fatalf("%v: run did not pause at beat %d: %+v", tier, ref.Stats.Beats/2, out)
		}
		final, err := art.RunFrom(context.Background(), out.Snapshot, RunOptions{Tier: tier})
		if err != nil {
			t.Fatalf("%v: resume: %v", tier, err)
		}
		assertMatchesRef(t, "resumed run", final, ref)
	}
}

func TestArtifactSnapshotOnCycleLimit(t *testing.T) {
	art, ref := buildDemo(t)
	out, err := art.Run(context.Background(), RunOptions{
		MaxCycles: ref.Stats.Beats / 2, SnapshotOnInterrupt: true})
	var el *vliw.ErrCycleLimit
	if !errors.As(err, &el) {
		t.Fatalf("error %T, want *vliw.ErrCycleLimit: %v", err, err)
	}
	if out.Snapshot == nil {
		t.Fatal("cycle-limited run captured no snapshot under SnapshotOnInterrupt")
	}
	// The budget retired the run mid-flight; a resume with a full budget
	// must complete it as if the limit never existed.
	final, err := art.RunFrom(context.Background(), out.Snapshot, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRef(t, "budget-resumed run", final, ref)
}

func TestRunManyRestoresSnapshots(t *testing.T) {
	art, ref := buildDemo(t)
	out, err := art.Run(context.Background(), RunOptions{SnapshotAt: ref.Stats.Beats / 3})
	if err != nil || !out.Paused {
		t.Fatalf("split run: err=%v paused=%v", err, out.Paused)
	}

	// The checkpointed tenant re-enters a batch mid-flight beside a fresh
	// copy of the same program; both must finish solo-equivalent.
	rs, _, err := RunMany(context.Background(), []*Artifact{art, art}, RunManyOptions{
		Snapshots: [][]byte{out.Snapshot, nil}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("context %d: %v", i, r.Err)
		}
		assertMatchesRef(t, "batch tenant", ExitResult{Exit: r.Exit, Output: r.Output, Stats: r.Stats}, ref)
	}

	if _, _, err := RunMany(context.Background(), []*Artifact{art, art}, RunManyOptions{
		Snapshots: [][]byte{out.Snapshot}}); err == nil {
		t.Error("snapshot count mismatch was not rejected")
	}
}

func TestRunManySnapshotOnInterrupt(t *testing.T) {
	art, ref := buildDemo(t)
	rs, _, err := RunMany(context.Background(), []*Artifact{art, art}, RunManyOptions{
		MaxCycles: ref.Stats.Beats / 2, SnapshotOnInterrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		var el *vliw.ErrCycleLimit
		if !errors.As(r.Err, &el) {
			t.Fatalf("context %d: err %T, want *vliw.ErrCycleLimit: %v", i, r.Err, r.Err)
		}
		if r.Snapshot == nil {
			t.Fatalf("context %d: cycle-limited tenant captured no snapshot", i)
		}
		// Preemption checkpointed the victim; it finishes solo.
		final, err := art.RunFrom(context.Background(), r.Snapshot, RunOptions{})
		if err != nil {
			t.Fatalf("context %d: resume: %v", i, err)
		}
		assertMatchesRef(t, "preempted tenant", final, ref)
	}
}
