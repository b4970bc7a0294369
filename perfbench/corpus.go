package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/multiflow-repro/trace/internal/fuzz"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/xp"
)

// program is one benchmark input with its backend-independent reference.
type program struct {
	name string
	src  string
	ref  reference
}

// reference is what the program must print and return, taken from the IR
// interpreter on the unoptimized IR straight out of the frontend: it shares
// no code with the optimizer, the scheduler, or the simulator.
type reference struct {
	exit int32
	out  string
}

// The fuzz.Gen pools the seed draws from. Gen programs vary widely in what
// they cost the compiler and verifier (safecheck takes 0.1 s to 7 s on the
// seeds surveyed), so an unrestricted draw would make the pass time a
// function of the seed. Each pool holds seeds of one shape and a narrow cost band, so
// every seed's corpus costs about the same; README.md records how they were
// picked.
var (
	// retryPool programs overflow a register bank at full optimization and
	// compile on core's pressure retry (halved unrolling): tsched.retries
	// is non-zero on every seed.
	retryPool = []int64{76, 116, 142}
	// cleanPool programs compile first time and certify quickly.
	cleanPool = []int64{18, 32, 181}
	// missPool programs feed the serve workload's misses: they compile
	// first time in about 0.2 s with one backend worker.
	missPool = []int64{145, 160, 162, 163}
)

// repoPrograms reads the repository's own programs: examples/*.mf and
// testdata/sort.mf, relative to root.
func repoPrograms(root string) ([]program, error) {
	files, err := filepath.Glob(filepath.Join(root, "examples", "*.mf"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	files = append(files, filepath.Join(root, "testdata", "sort.mf"))
	if len(files) < 2 {
		return nil, fmt.Errorf("no example programs under %s", root)
	}
	var ps []program
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, f)
		ps = append(ps, program{name: filepath.ToSlash(rel), src: string(b)})
	}
	return ps, nil
}

// genProgram is the fuzz.Gen program for a Gen seed.
func genProgram(seed int64) program {
	return program{name: fmt.Sprintf("gen/%d", seed), src: fuzz.Gen(seed)}
}

// xpProgram returns the named internal/xp workload.
func xpProgram(name string) (program, error) {
	for _, w := range xp.AllWorkloads() {
		if w.Name == name {
			return program{name: "xp/" + w.Name, src: w.Src}, nil
		}
	}
	return program{}, fmt.Errorf("no xp workload %q", name)
}

// draw picks one element of pool with rng.
func draw(rng *rand.Rand, pool []int64) int64 { return pool[rng.Intn(len(pool))] }

// interpret computes a program's reference and returns how long it took.
func interpret(src string) (reference, time.Duration, error) {
	start := time.Now()
	prog, err := lang.Compile(src)
	if err != nil {
		return reference{}, 0, err
	}
	in := &ir.Interp{Prog: prog}
	v, out, err := in.Run()
	if err != nil {
		return reference{}, 0, err
	}
	return reference{exit: v, out: out}, time.Since(start), nil
}

// withReferences fills in every program's reference and returns the total
// interpreter time.
func withReferences(ps []program) (time.Duration, error) {
	var total time.Duration
	for i := range ps {
		ref, d, err := interpret(ps[i].src)
		if err != nil {
			return 0, fmt.Errorf("reference for %s: %w", ps[i].name, err)
		}
		ps[i].ref = ref
		total += d
	}
	return total, nil
}

// matches reports whether a result agrees with the reference.
func (r reference) matches(exit int32, out string) bool {
	return r.exit == exit && r.out == out
}

func (r reference) String() string {
	return fmt.Sprintf("exit %d, output %q", r.exit, strings.TrimSpace(r.out))
}
