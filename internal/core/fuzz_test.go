package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
)

// TestFuzzDifferential generates random MF programs and checks, across
// machine configurations and optimization levels, that the trace-scheduled
// VLIW executes them exactly like the reference interpreter. This is the
// strongest correctness net in the repository: any unsound code motion,
// compensation-code error, encoding defect, or timing hazard the scheduler
// introduces shows up as a divergence.
func TestFuzzDifferential(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(20260706))
	cfgs := []mach.Config{mach.Trace7(), mach.Trace14(), mach.Trace28()}
	for trial := 0; trial < trials; trial++ {
		src := genProgram(rng)
		ref, err := Compile(context.Background(), src, Options{Config: mach.Trace7(), Opt: opt.None()})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		wantV, wantOut, werr := Interpret(ref)
		if werr != nil {
			continue // generated program traps in the interpreter; skip
		}
		cfg := cfgs[trial%len(cfgs)]
		level := opt.Options{Inline: trial%2 == 0, UnrollFactor: 1 + rng.Intn(8)}
		res, err := Compile(context.Background(), src, Options{Config: cfg, Opt: level,
			Profile: ProfileMode(trial % 2)})
		if err != nil {
			t.Fatalf("trial %d [%s u%d]: compile: %v\n%s", trial, cfg.Name, level.UnrollFactor, err, src)
		}
		gotV, gotOut, _, err := Run(res)
		if err != nil {
			t.Fatalf("trial %d [%s u%d]: simulate: %v\n%s", trial, cfg.Name, level.UnrollFactor, err, src)
		}
		if gotV != wantV || gotOut != wantOut {
			t.Fatalf("trial %d [%s u%d]: divergence exit %d vs %d out %q vs %q\n%s",
				trial, cfg.Name, level.UnrollFactor, gotV, wantV, gotOut, wantOut, src)
		}
	}
}

// genProgram builds a random MF program with loops, nested control flow,
// arrays of both types, calls, and mixed arithmetic — biased toward the
// shapes that stress trace scheduling (conditionals inside loops, loop
// nests, array index arithmetic).
func genProgram(rng *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var gi [32]int\nvar gf [16]float\n")

	// a small helper function, sometimes recursive
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(&b, "func helper(x int) int { return x * %d + %d }\n", 1+rng.Intn(5), rng.Intn(7))
	case 1:
		fmt.Fprintf(&b, `func helper(x int) int {
	if (x < 2) { return x }
	return helper(x - 1) + %d
}
`, 1+rng.Intn(3))
	default:
		fmt.Fprintf(&b, `func helper(x int) int {
	var s int = 0
	for (var i int = 0; i < x; i = i + 1) { s = s + i * %d }
	return s
}
`, 1+rng.Intn(4))
	}

	b.WriteString("func main() int {\n")
	vars := []string{"a", "b", "c", "d"}
	for _, v := range vars {
		fmt.Fprintf(&b, "\tvar %s int = %d\n", v, rng.Intn(40)-20)
	}
	b.WriteString("\tvar x float = 1.5\n")
	iv := func() string { return vars[rng.Intn(len(vars))] }
	expr := func(depth int) string {
		var gen func(d int) string
		gen = func(d int) string {
			if d <= 0 {
				switch rng.Intn(4) {
				case 0:
					return fmt.Sprintf("%d", rng.Intn(20))
				case 1:
					return iv()
				case 2:
					return fmt.Sprintf("gi[%d]", rng.Intn(32))
				default:
					return iv()
				}
			}
			switch rng.Intn(8) {
			case 0:
				return fmt.Sprintf("(%s + %s)", gen(d-1), gen(d-1))
			case 1:
				return fmt.Sprintf("(%s - %s)", gen(d-1), gen(d-1))
			case 2:
				return fmt.Sprintf("(%s * %d)", gen(d-1), rng.Intn(7))
			case 3:
				return fmt.Sprintf("((%s ^ %s) & 1023)", gen(d-1), gen(d-1))
			case 4:
				return fmt.Sprintf("(%s >> %d)", gen(d-1), rng.Intn(4))
			case 5:
				return fmt.Sprintf("(%s > %s ? %s : %s)", gen(d-1), gen(d-1), gen(d-1), gen(d-1))
			case 6:
				return fmt.Sprintf("helper(%d)", rng.Intn(8))
			default:
				return fmt.Sprintf("gi[(%s & 31)]", gen(d-1))
			}
		}
		return gen(depth)
	}

	var stmt func(indent string, depth int)
	stmt = func(indent string, depth int) {
		switch rng.Intn(7) {
		case 0:
			fmt.Fprintf(&b, "%s%s = %s\n", indent, iv(), expr(2))
		case 1:
			fmt.Fprintf(&b, "%sgi[(%s & 31)] = %s\n", indent, iv(), expr(1))
		case 2:
			fmt.Fprintf(&b, "%sgf[(%s & 15)] = x * %g + float(%s)\n", indent, iv(), 0.5+rng.Float64(), iv())
		case 3:
			fmt.Fprintf(&b, "%sif (%s > %d) {\n", indent, iv(), rng.Intn(10)-5)
			stmt(indent+"\t", depth-1)
			if rng.Intn(2) == 0 && depth > 0 {
				fmt.Fprintf(&b, "%s} else {\n", indent)
				stmt(indent+"\t", depth-1)
			}
			fmt.Fprintf(&b, "%s}\n", indent)
		case 4:
			v := fmt.Sprintf("i%d", rng.Intn(1000))
			fmt.Fprintf(&b, "%sfor (var %s int = 0; %s < %d; %s = %s + 1) {\n",
				indent, v, v, 2+rng.Intn(12), v, v)
			fmt.Fprintf(&b, "%s\t%s = %s + %s * %d\n", indent, iv(), iv(), v, 1+rng.Intn(3))
			if depth > 0 {
				stmt(indent+"\t", depth-1)
			}
			fmt.Fprintf(&b, "%s}\n", indent)
		case 5:
			fmt.Fprintf(&b, "%sx = x + float(%s & 255) * 0.25\n", indent, iv())
		default:
			fmt.Fprintf(&b, "%s%s = %s %% %d\n", indent, iv(), iv(), 2+rng.Intn(9))
		}
	}
	for i := 0; i < 5+rng.Intn(5); i++ {
		stmt("\t", 2)
	}
	b.WriteString("\tvar chk int = a + b * 3 - c + d * 7 + int(x)\n")
	b.WriteString("\tfor (var i int = 0; i < 32; i = i + 1) { chk = chk + gi[i] * (i + 1) }\n")
	b.WriteString("\tfor (var i int = 0; i < 16; i = i + 1) { chk = chk + int(gf[i] * 4.0) }\n")
	b.WriteString("\tprint_i(chk)\n\treturn chk & 65535\n}\n")
	return b.String()
}

// TestDeterministicCompile ensures compilation is reproducible: identical
// inputs must produce identical images (the scheduler must not depend on
// map iteration order).
func TestDeterministicCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := genProgram(rng)
	opts := Options{Config: mach.Trace28(), Opt: opt.Default()}
	a, err := Compile(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := Compile(context.Background(), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Image.Instrs) != len(b.Image.Instrs) {
			t.Fatalf("run %d: %d vs %d instructions", i, len(a.Image.Instrs), len(b.Image.Instrs))
		}
		for j := range a.Image.Words {
			for w := range a.Image.Words[j] {
				if a.Image.Words[j][w] != b.Image.Words[j][w] {
					t.Fatalf("run %d: instr %d word %d differs", i, j, w)
				}
			}
		}
	}
}

// TestCompilerStats sanity-checks the statistics the experiments rely on.
func TestCompilerStats(t *testing.T) {
	res, err := Compile(context.Background(), daxpySrc, Options{Config: mach.Trace28(), Opt: opt.Default()})
	if err != nil {
		t.Fatal(err)
	}
	fixed, packed, ops := res.Image.CodeSizes()
	if fixed <= 0 || packed <= 0 || ops <= 0 {
		t.Fatalf("sizes: fixed=%d packed=%d ops=%d", fixed, packed, ops)
	}
	if packed >= fixed {
		t.Errorf("mask-word format did not shrink code: packed %d >= fixed %d", packed, fixed)
	}
	_, _, st, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if st.Beats <= 0 || st.Instrs <= 0 || st.Ops <= 0 {
		t.Errorf("stats empty: %+v", st)
	}
	if st.FloatOps == 0 {
		t.Error("daxpy executed no float ops")
	}
	var comp, spec int
	for _, fc := range res.Funcs {
		comp += fc.CompOps
		spec += fc.SpecLoads
	}
	if spec == 0 {
		t.Error("unrolled daxpy produced no speculative loads")
	}
	_ = comp
}

// TestInterpSimAgreeOnMemoryImage runs a program that writes a deterministic
// pattern and checks the final memory contents agree between executors.
func TestInterpSimAgreeOnMemoryImage(t *testing.T) {
	src := `
var m [64]int
func main() int {
	for (var i int = 0; i < 64; i = i + 1) { m[i] = i * i - 3 * i }
	for (var i int = 2; i < 64; i = i + 1) { m[i] = m[i] + m[i-1] - (m[i-2] >> 1) }
	var h int = 0
	for (var i int = 0; i < 64; i = i + 1) { h = (h * 31 + m[i]) & 16777215 }
	return h
}`
	for _, cfg := range []mach.Config{mach.Trace7(), mach.Trace28()} {
		res, err := Compile(context.Background(), src, Options{Config: cfg, Opt: opt.Default(), Profile: ProfileRun})
		if err != nil {
			t.Fatal(err)
		}
		wv, _, err := Interpret(res)
		if err != nil {
			t.Fatal(err)
		}
		gv, _, _, err := Run(res)
		if err != nil {
			t.Fatal(err)
		}
		if wv != gv {
			t.Fatalf("[%s] hash %d vs %d", cfg.Name, gv, wv)
		}
	}
}

var _ = ir.GlobalBase // keep import if unused in some build modes

// TestFuzzBasicBlockOnly differentially tests the MaxTraceBlocks-capped code
// generator (the E13 ablation path): random programs, single-block traces
// only, across configs. Inter-block motion is off, so every compensation
// mechanism must sit idle without breaking the schedule.
func TestFuzzBasicBlockOnly(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 6
	}
	rng := rand.New(rand.NewSource(8701987))
	cfgs := []mach.Config{mach.Trace7(), mach.Trace14(), mach.Trace28()}
	for trial := 0; trial < trials; trial++ {
		src := genProgram(rng)
		ref, err := Compile(context.Background(), src, Options{Config: mach.Trace7(), Opt: opt.None()})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		wantV, wantOut, werr := Interpret(ref)
		if werr != nil {
			continue
		}
		cfg := cfgs[trial%len(cfgs)]
		res, err := Compile(context.Background(), src, Options{Config: cfg, Opt: opt.Default(), MaxTraceBlocks: 1})
		if err != nil {
			t.Fatalf("trial %d [%s bb-only]: compile: %v\n%s", trial, cfg.Name, err, src)
		}
		gotV, gotOut, _, err := Run(res)
		if err != nil {
			t.Fatalf("trial %d [%s bb-only]: simulate: %v\n%s", trial, cfg.Name, err, src)
		}
		if gotV != wantV || gotOut != wantOut {
			t.Fatalf("trial %d [%s bb-only]: divergence exit %d vs %d out %q vs %q\n%s",
				trial, cfg.Name, gotV, wantV, gotOut, wantOut, src)
		}
		// and with a mid-length cap, the intermediate rung of the ladder
		res2, err := Compile(context.Background(), src, Options{Config: cfg, Opt: opt.Default(), MaxTraceBlocks: 3})
		if err != nil {
			t.Fatalf("trial %d [%s cap3]: compile: %v\n%s", trial, cfg.Name, err, src)
		}
		gotV, gotOut, _, err = Run(res2)
		if err != nil {
			t.Fatalf("trial %d [%s cap3]: simulate: %v\n%s", trial, cfg.Name, err, src)
		}
		if gotV != wantV || gotOut != wantOut {
			t.Fatalf("trial %d [%s cap3]: divergence\n%s", trial, cfg.Name, src)
		}
	}
}

// TestRunSource takes source text to an exit value through the Artifact API.
func TestRunSource(t *testing.T) {
	art, err := Build(context.Background(), `
func main() int {
	print_i(7)
	return 42
}`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := art.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 42 || res.Output != "7\n" {
		t.Fatalf("got %d %q", res.Exit, res.Output)
	}
	if res.Stats.Instrs == 0 {
		t.Error("machine reported no instructions")
	}
}
