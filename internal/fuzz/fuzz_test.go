package fuzz

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// TestGenDeterministic: the generator is a pure function of its seed — the
// whole harness depends on a seed being a reproducible bug report.
func TestGenDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		if Gen(seed) != Gen(seed) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if Gen(1) == Gen(2) {
		t.Fatal("seeds 1 and 2 generated identical programs")
	}
}

// TestGenAlwaysCompiles: generated programs are valid MF by construction;
// a frontend rejection would silently shrink fuzz coverage to nothing.
func TestGenAlwaysCompiles(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		src := Gen(seed)
		if _, err := lang.Compile(src); err != nil {
			t.Errorf("seed %d does not compile: %v\n%s", seed, err, src)
		}
	}
}

// TestOracleCleanOnSeeds runs the full differential oracle on a handful of
// seeds. Any divergence here is a real compiler or simulator bug.
func TestOracleCleanOnSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full oracle is slow")
	}
	for seed := int64(1); seed <= 8; seed++ {
		if err := CheckSeed(context.Background(), seed, Options{}); err != nil {
			t.Errorf("seed %d: %v\n--- program ---\n%s", seed, err, Gen(seed))
		}
	}
}

// TestTierMatrixCleanOnSeeds runs the tier oracle (checked, and native
// under the resource and the safety certificate) over a seed range: every
// image that runs must produce identical exit, output, fault, and Stats on
// all three legs. This is the seed-level smoke of the `tracefuzz
// -tier=native` campaign in scripts/check.sh.
func TestTierMatrixCleanOnSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full oracle is slow")
	}
	for seed := int64(1); seed <= 8; seed++ {
		if err := CheckSeed(context.Background(), seed, Options{Tier: vliw.TierNative}); err != nil {
			t.Errorf("seed %d: %v\n--- program ---\n%s", seed, err, Gen(seed))
		}
	}
}

// TestTimeshareCleanOnSeeds runs the multi-context stage over a seed range,
// checked and native: every generated program must reproduce its solo exit,
// output, and counters when time-shared four to a machine. A divergence is
// a context-scheduler bug by definition — the solo runs already agreed with
// the reference oracle.
func TestTimeshareCleanOnSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full timeshare oracle is slow")
	}
	for _, tier := range []vliw.Tier{vliw.TierChecked, vliw.TierNative} {
		if err := CheckTimeshareSeeds(context.Background(), 1, 8, Options{Tier: tier}); err != nil && !errors.Is(err, ErrSkip) {
			t.Errorf("%v: %v", tier, err)
		}
	}
}

// TestSnapshotCleanOnSeeds runs the checkpoint/restore stage over a seed
// range: every generated program split at random beats must reproduce its
// uninterrupted exit, output, and counters, checked and on the native tier
// under a resource certificate, and a corrupted snapshot must be refused.
func TestSnapshotCleanOnSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full snapshot oracle is slow")
	}
	if err := CheckSnapshotSeeds(context.Background(), 1, 8, Options{}); err != nil && !errors.Is(err, ErrSkip) {
		t.Error(err)
	}
}

// TestSnapshotSkipsRejectedInput: inputs with no splittable reference run
// are a skip, not a finding.
func TestSnapshotSkipsRejectedInput(t *testing.T) {
	if err := CheckSnapshot(context.Background(), "not a program", 1, Options{}); !errors.Is(err, ErrSkip) {
		t.Errorf("CheckSnapshot(garbage) = %v, want ErrSkip", err)
	}
}

// TestTimeshareSkipsRejectedInput: inputs with no surviving solo reference
// are a skip, not a finding.
func TestTimeshareSkipsRejectedInput(t *testing.T) {
	err := CheckTimeshare(context.Background(), []string{"", "not a program"}, Options{})
	if !errors.Is(err, ErrSkip) {
		t.Errorf("CheckTimeshare(garbage) = %v, want ErrSkip", err)
	}
}

// TestOracleSkipsRejectedInput: inputs the frontend rejects are skips, not
// findings — the compiler diagnosing garbage is correct behavior.
func TestOracleSkipsRejectedInput(t *testing.T) {
	for _, src := range []string{
		"", "not a program", "func main() int { return x }", strings.Repeat("(", 100000),
	} {
		if err := Check(context.Background(), src, Options{}); !errors.Is(err, ErrSkip) {
			t.Errorf("Check(%.20q) = %v, want ErrSkip", src, err)
		}
	}
}

// FuzzDifferential feeds arbitrary text through the whole stack: frontend,
// every optimization level, both backends, and the simulator. The property
// is total: any input either compiles and runs identically to the scalar
// reference everywhere, or is cleanly rejected. Panics, hangs, traps on
// reference-clean programs, and nondeterministic images all fail the target.
func FuzzDifferential(f *testing.F) {
	f.Add("func main() int { return 42 }")
	f.Add("func main() int { var a int = 7 print_i(a) return a * 6 }")
	f.Add(Gen(1))
	f.Add(Gen(2))
	f.Add("func main() int { while (1 < 2) { } return 0 }") // nonterminating: ref budget skips it
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 32<<10 {
			return // keep per-input cost bounded
		}
		// Tight budgets: the fuzzer's job is crash/divergence hunting, not
		// long executions; runaway programs become skips via the ref budget.
		err := Check(context.Background(), src, Options{RefSteps: 2_000_000})
		if err != nil && !errors.Is(err, ErrSkip) {
			t.Fatalf("%v", err)
		}
	})
}

// FuzzGen fuzzes the seed space of the generator: every seed must yield a
// valid, terminating program that the whole matrix agrees on.
func FuzzGen(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := CheckSeed(context.Background(), seed, Options{RefSteps: 5_000_000}); err != nil && !errors.Is(err, ErrSkip) {
			t.Fatalf("seed %d: %v\n--- program ---\n%s", seed, err, Gen(seed))
		}
	})
}
