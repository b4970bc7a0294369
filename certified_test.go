// Differential test of the certified execution tier: for every example
// program, optimization level, and machine width, the checked interpreter
// and the closure-threaded native tier — armed with the bare resource
// certificate, and with the safety certificate — must produce
// byte-identical results: same exit value, same printed output, and the
// same value in every Stats counter. The native tier skips checking, never
// timing: any divergence here means the two tiers disagree about the
// machine itself.
package trace

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

type tierRunner struct {
	name string
	run  func(*Artifact) (ExitResult, error)
}

// nativeResource runs the artifact on the native tier armed with the bare
// resource certificate: every value guard stays live.
func nativeResource(art *Artifact) (ExitResult, error) {
	cert, err := art.Certificate()
	if err != nil {
		return ExitResult{}, err
	}
	m := art.Machine()
	if err := m.UseNativeCertificate(cert); err != nil {
		return ExitResult{}, err
	}
	v, out, err := m.Run()
	return ExitResult{Exit: v, Output: out, Stats: m.Stats, Tier: m.Tier()}, err
}

// nativeSafe runs the artifact on the native tier the Artifact API arms:
// the safety certificate, with the guards at proven sites deleted.
func nativeSafe(art *Artifact) (ExitResult, error) {
	return art.Run(context.Background(), RunOptions{Tier: TierNative})
}

// agreeOnExamples runs every example x O0/O1/O2 x Trace 7/14/28 on the
// checked interpreter and on each given tier, and fails on any difference
// in trap status, fault text, exit value, output, or any Stats counter.
func agreeOnExamples(t *testing.T, tiers []tierRunner) {
	t.Helper()
	mfs, err := filepath.Glob("examples/*.mf")
	if err != nil || len(mfs) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	configs := []Config{Trace7(), Trace14(), Trace28()}
	levels := []struct {
		name string
		lvl  OptLevel
	}{{"O0", OptNone}, {"O1", OptLight}, {"O2", OptFull}}

	for _, mf := range mfs {
		src, err := os.ReadFile(mf)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			for _, lv := range levels {
				name := fmt.Sprintf("%s/%s/%s", filepath.Base(mf), cfg.Name, lv.name)
				t.Run(name, func(t *testing.T) {
					art, err := Build(context.Background(), string(src), Options{Config: cfg, OptLevel: lv.lvl})
					if err != nil {
						t.Fatalf("compile: %v", err)
					}

					c, cerr := art.Run(context.Background(), RunOptions{})
					for _, tier := range tiers {
						f, ferr := tier.run(art)
						if (cerr == nil) != (ferr == nil) {
							t.Fatalf("trap disagreement: checked err=%v, %s err=%v", cerr, tier.name, ferr)
						}
						if cerr != nil {
							if cerr.Error() != ferr.Error() {
								t.Fatalf("different faults: checked %v, %s %v", cerr, tier.name, ferr)
							}
							continue
						}
						if f.Tier != TierNative {
							t.Fatalf("%s ran on the %v tier", tier.name, f.Tier)
						}
						if c.Exit != f.Exit {
							t.Fatalf("exit: checked %d, %s %d", c.Exit, tier.name, f.Exit)
						}
						if c.Output != f.Output {
							t.Fatalf("output: checked %q, %s %q", c.Output, tier.name, f.Output)
						}
						if c.Stats != f.Stats {
							t.Fatalf("stats diverged:\nchecked: %+v\n%s:    %+v", c.Stats, tier.name, f.Stats)
						}
					}
				})
			}
		}
	}
}

// TestFastCheckedAgree holds the native tier under a bare resource
// certificate — the guarantee the retired fast tier offered — to the
// checked interpreter: no dynamic resource or race checks, every value
// guard kept.
func TestFastCheckedAgree(t *testing.T) {
	agreeOnExamples(t, []tierRunner{{"native/resource", nativeResource}})
}

// TestNativeCheckedAgree holds the native tier under the safety
// certificate to the same contract: the per-image closure translation may
// delete dispatch and the guards at proven sites, but every observable —
// including each of the Stats counters — must match the checked
// interpreter bit for bit.
func TestNativeCheckedAgree(t *testing.T) {
	agreeOnExamples(t, []tierRunner{{"native/safe", nativeSafe}})
}
