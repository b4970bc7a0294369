package core

import (
	"context"
	"testing"

	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/vliw"
)

var runManySrcs = []string{
	`func main() int {
		var s int = 0
		for (var i int = 0; i < 400; i = i + 1) { s = s + i*i }
		print_i(s)
		return s & 255
	}`,
	`var a [512]float
	func main() int {
		for (var i int = 0; i < 512; i = i + 1) { a[i] = float(i) * 0.25 }
		var s float = 0.0
		for (var i int = 0; i < 512; i = i + 1) { s = s + a[i] }
		print_f(s)
		return int(s) & 1023
	}`,
	`func main() int {
		var x int = 3
		for (var i int = 0; i < 200; i = i + 1) { x = (x * 7 + 11) & 8191 }
		print_i(x)
		return x & 63
	}`,
}

func buildMany(t *testing.T, opts Options) []*Artifact {
	t.Helper()
	arts := make([]*Artifact, len(runManySrcs))
	for i, src := range runManySrcs {
		a, err := Build(context.Background(), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		arts[i] = a
	}
	return arts
}

// TestRunManyMatchesSolo: the batch entry point produces, for every
// artifact, exactly what a solo Artifact.Run produces — on both tiers.
func TestRunManyMatchesSolo(t *testing.T) {
	opts := Options{Config: mach.Trace7(), Opt: opt.Default()}
	arts := buildMany(t, opts)
	for _, tier := range []vliw.Tier{vliw.TierChecked, vliw.TierNative} {
		solo := make([]ExitResult, len(arts))
		for i, a := range arts {
			r, err := a.Run(context.Background(), RunOptions{Tier: tier})
			if err != nil {
				t.Fatal(err)
			}
			solo[i] = r
		}
		rs, sched, err := RunMany(context.Background(), arts, RunManyOptions{Tier: tier})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if r.Err != nil {
				t.Fatalf("%v context %d: %v", tier, i, r.Err)
			}
			if r.Exit != solo[i].Exit || r.Output != solo[i].Output || r.Stats != solo[i].Stats {
				t.Errorf("%v context %d diverges from solo run", tier, i)
			}
			if r.Tier != tier {
				t.Errorf("%v context %d ran on the %v tier", tier, i, r.Tier)
			}
		}
		if sched.Contexts != len(arts) || sched.TotalBeats == 0 {
			t.Errorf("%v sched: %+v", tier, sched)
		}
	}
}

// TestRunManyOnPooledMachine: batches reuse one machine through ResetMany,
// including a repeated artifact sharing its decoded plan across contexts.
func TestRunManyOnPooledMachine(t *testing.T) {
	opts := Options{Config: mach.Trace7(), Opt: opt.Default()}
	arts := buildMany(t, opts)
	m := vliw.New(arts[0].Image())
	batch := []*Artifact{arts[0], arts[1], arts[0], arts[2]}
	var first []ManyResult
	for round := 0; round < 3; round++ {
		rs, _, err := RunManyOn(context.Background(), m, batch, RunManyOptions{Tier: vliw.TierNative})
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Exit != rs[2].Exit || rs[0].Output != rs[2].Output || rs[0].Stats != rs[2].Stats {
			t.Fatal("two contexts of the same artifact diverged")
		}
		if round == 0 {
			first = rs
			continue
		}
		for i := range rs {
			if rs[i].Exit != first[i].Exit || rs[i].Output != first[i].Output || rs[i].Stats != first[i].Stats {
				t.Fatalf("round %d context %d diverged on the pooled machine", round, i)
			}
		}
	}
}

// TestRunManyMixedConfigRejected: artifacts must share one machine target.
func TestRunManyMixedConfigRejected(t *testing.T) {
	a, err := Build(context.Background(), runManySrcs[0], Options{Config: mach.Trace7(), Opt: opt.Default()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(context.Background(), runManySrcs[2], Options{Config: mach.Trace14(), Opt: opt.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunMany(context.Background(), []*Artifact{a, b}, RunManyOptions{}); err == nil {
		t.Fatal("RunMany accepted mixed machine configurations")
	}
	if _, _, err := RunMany(context.Background(), nil, RunManyOptions{}); err == nil {
		t.Fatal("RunMany accepted an empty batch")
	}
}

// TestRunManyPerContextFailure: a trapping tenant reports through its own
// ManyResult.Err while the rest of the batch completes.
func TestRunManyPerContextFailure(t *testing.T) {
	opts := Options{Config: mach.Trace7(), Opt: opt.Default()}
	good, err := Build(context.Background(), runManySrcs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Build(context.Background(), `
	func main() int {
		var d int = 0
		for (var i int = 0; i < 10; i = i + 1) { d = i - i }
		return 1 / d
	}`, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := good.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := RunMany(context.Background(), []*Artifact{good, bad}, RunManyOptions{})
	if err != nil {
		t.Fatalf("per-context trap must not fail the batch: %v", err)
	}
	if rs[1].Err == nil {
		t.Fatal("trapping context reported no error")
	}
	if rs[0].Err != nil || rs[0].Exit != want.Exit || rs[0].Output != want.Output || rs[0].Stats != want.Stats {
		t.Errorf("good context disturbed: %+v", rs[0])
	}
}
