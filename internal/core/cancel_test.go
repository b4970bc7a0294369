package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/vliw"
)

const cancelDemo = `
func work(n int) int {
	var s int = 0
	for (var i int = 0; i < n; i = i + 1) { s = s + i }
	return s
}
func main() int {
	var t int = 0
	for (var r int = 0; r < 200; r = r + 1) { t = t + work(r) }
	print_i(t)
	return t & 65535
}
`

func TestCompileCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Compile(ctx, cancelDemo, DefaultOptions())
	if err == nil {
		t.Fatal("pre-canceled compile returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, Canceled) = false: %v", err)
	}
	// The error names the boundary where compilation stopped, so an
	// operator can tell a canceled build from a failed one.
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("error does not read as a cancellation: %v", err)
	}
}

func TestCompileDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, err := Compile(ctx, cancelDemo, DefaultOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, DeadlineExceeded) = false: %v", err)
	}
}

func TestBuildArtifactRoundTrip(t *testing.T) {
	art, err := Build(context.Background(), cancelDemo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Checked and native runs agree with each other and the interpreter.
	wantV, wantOut, err := Interpret(art.Result())
	if err != nil {
		t.Fatal(err)
	}
	checked, err := art.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if checked.Tier != vliw.TierChecked {
		t.Errorf("zero RunOptions ran on the %v tier", checked.Tier)
	}
	native, err := art.Run(context.Background(), RunOptions{Tier: vliw.TierNative})
	if err != nil {
		t.Fatal(err)
	}
	if native.Tier != vliw.TierNative {
		t.Errorf("RunOptions{Tier: native} ran on the %v tier", native.Tier)
	}
	if _, err := art.Run(context.Background(), RunOptions{Tier: vliw.Tier(17)}); err == nil {
		t.Error("an out-of-range tier ran")
	}
	if checked.Exit != wantV || checked.Output != wantOut {
		t.Errorf("checked run = %d %q, interpreter = %d %q", checked.Exit, checked.Output, wantV, wantOut)
	}
	if native.Exit != checked.Exit || native.Output != checked.Output || native.Stats != checked.Stats {
		t.Errorf("native and checked runs diverge:\n%+v\n%+v", native, checked)
	}
}

func TestArtifactCertificateCached(t *testing.T) {
	art, err := Build(context.Background(), cancelDemo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := art.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := art.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("Certificate re-verified instead of returning the cached certificate")
	}
	if rep := art.Lint(); rep == nil || len(rep.Errors()) != 0 {
		t.Errorf("artifact should lint clean: %v", rep)
	}
}

func TestArtifactLintReusesCompileStageReport(t *testing.T) {
	opts := DefaultOptions()
	opts.Lint = true
	art, err := Build(context.Background(), cancelDemo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if art.Lint() != art.Result().Lint {
		t.Error("Artifact.Lint re-analyzed an image the compile stage already verified")
	}
}

func TestArtifactRunOnPooledMachine(t *testing.T) {
	art, err := Build(context.Background(), cancelDemo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := new(vliw.Machine)
	first, err := art.RunOn(context.Background(), m, RunOptions{Tier: vliw.TierNative})
	if err != nil {
		t.Fatal(err)
	}
	// Reusing the same machine must reproduce the run exactly.
	second, err := art.RunOn(context.Background(), m, RunOptions{Tier: vliw.TierNative})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("machine reuse changed the result:\n%+v\n%+v", first, second)
	}
}

func TestArtifactRunCanceled(t *testing.T) {
	art, err := Build(context.Background(), cancelDemo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = art.Run(ctx, RunOptions{})
	var ec *vliw.ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("error type %T, want *vliw.ErrCanceled: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, Canceled) = false: %v", err)
	}
}

func TestPipelineRunsCounter(t *testing.T) {
	before := PipelineRuns()
	if _, err := Build(context.Background(), cancelDemo, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if got := PipelineRuns() - before; got != 1 {
		t.Errorf("PipelineRuns advanced by %d for one Build, want 1", got)
	}
}
