// Benchmarks regenerating the paper's figures and results, one per entry in
// DESIGN.md's per-experiment index. Each benchmark reports the paper-shape
// metric (speedups, overheads, sizes) via b.ReportMetric, so `go test
// -bench=. -benchmem` reproduces the evaluation; `cmd/tracebench` prints the
// same data as tables.
package trace

import (
	"context"
	"testing"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/xp"
)

const daxpyBench = `
var x [256]float
var y [256]float
func main() int {
	for (var i int = 0; i < 256; i = i + 1) { x[i] = float(i); y[i] = 1.0 }
	var a float = 2.5
	for (var r int = 0; r < 8; r = r + 1) {
		for (var i int = 0; i < 256; i = i + 1) { y[i] = y[i] + a * x[i] }
	}
	var s float = 0.0
	for (var i int = 0; i < 256; i = i + 1) { s = s + y[i] }
	return int(s) & 65535
}`

const branchyBench = `
var text [512]int
var counts [8]int
func kind(c int) int {
	if (c < 16) { return 0 }
	if (c < 32) { if (c % 2 == 0) { return 1 } return 2 }
	if (c < 96) { return 3 }
	if (c % 3 == 0) { return 4 }
	if (c % 5 == 0) { return 5 }
	return 6
}
func main() int {
	for (var i int = 0; i < 512; i = i + 1) { text[i] = (i * 61 + 17) % 128 }
	for (var r int = 0; r < 4; r = r + 1) {
		for (var i int = 0; i < 512; i = i + 1) {
			var k int = kind(text[i])
			counts[k] = counts[k] + 1
		}
	}
	return counts[3]
}`

func mustCompile(b *testing.B, src string, o Options) *Result {
	b.Helper()
	res, err := Compile(src, o)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func simBeats(b *testing.B, res *Result) int64 {
	b.Helper()
	_, _, st, err := Run(res)
	if err != nil {
		b.Fatal(err)
	}
	return st.Beats
}

// BenchmarkE1Speedup regenerates E1: trace-scheduled VLIW vs the scalar
// machine (paper §1: "ten to thirty times"; honest shape: several-fold).
func BenchmarkE1Speedup(b *testing.B) {
	for _, cfg := range []Config{Trace7(), Trace14(), Trace28()} {
		b.Run(cfg.Name, func(b *testing.B) {
			sc, _, _, err := RunScalar(daxpyBench, cfg)
			if err != nil {
				b.Fatal(err)
			}
			res := mustCompile(b, daxpyBench, Options{Config: cfg, ProfileRun: true})
			var beats int64
			for i := 0; i < b.N; i++ {
				beats = simBeats(b, res)
			}
			b.ReportMetric(float64(sc.Beats)/float64(beats), "speedup-vs-scalar")
			b.ReportMetric(float64(beats), "beats")
		})
	}
}

// BenchmarkE2Scoreboard regenerates E2: the Acosta 2-3x basic-block ceiling.
func BenchmarkE2Scoreboard(b *testing.B) {
	cfg := Trace28()
	sc, _, _, err := RunScalar(daxpyBench, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sb BaselineResult
	for i := 0; i < b.N; i++ {
		sb, _, _, err = RunScoreboard(daxpyBench, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sc.Beats)/float64(sb.Beats), "speedup-vs-scalar")
}

// BenchmarkE3CodeSize regenerates E3 (§9): packed vs VAX-model size and the
// mask-word savings.
func BenchmarkE3CodeSize(b *testing.B) {
	vax, err := VAXBytes(daxpyBench)
	if err != nil {
		b.Fatal(err)
	}
	var fixed, packed int64
	for i := 0; i < b.N; i++ {
		res := mustCompile(b, daxpyBench, Options{})
		fixed, packed, _ = res.Image.CodeSizes()
	}
	b.ReportMetric(float64(packed)/float64(vax), "packed/vax")
	b.ReportMetric(100*(1-float64(packed)/float64(fixed)), "noop-savings-%")
}

// BenchmarkE4Memory regenerates E4: bank-stall behaviour of the interleaved
// memory under a worst-case stride.
func BenchmarkE4Memory(b *testing.B) {
	src := `
var a [4096]float
func sweep(p []float) float {
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + p[i * 64] }
	return s
}
func main() int {
	var s float = 0.0
	for (var r int = 0; r < 8; r = r + 1) { s = s + sweep(a) }
	return int(s)
}`
	for _, dice := range []bool{true, false} {
		name := "dice"
		if !dice {
			name = "conservative"
		}
		b.Run(name, func(b *testing.B) {
			res := mustCompile(b, src, Options{ProfileRun: true, Conservative: !dice})
			var stalls, beats int64
			for i := 0; i < b.N; i++ {
				_, _, st, err := Run(res)
				if err != nil {
					b.Fatal(err)
				}
				stalls, beats = st.BankStalls, st.Beats
			}
			b.ReportMetric(float64(beats), "beats")
			b.ReportMetric(float64(stalls), "bank-stall-beats")
		})
	}
}

// BenchmarkE5Peak regenerates E5: achieved vs peak rates (§6.3's 215 MIPS /
// 60 MFLOPS arithmetic is checked in internal/mach's tests).
func BenchmarkE5Peak(b *testing.B) {
	res := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	var mips, mflops float64
	for i := 0; i < b.N; i++ {
		_, _, st, err := Run(res)
		if err != nil {
			b.Fatal(err)
		}
		mips, mflops = st.MIPS(), st.MFLOPS()
	}
	b.ReportMetric(mips, "MIPS")
	b.ReportMetric(mflops, "MFLOPS")
	b.ReportMetric(Trace28().PeakMIPS(), "peak-MIPS")
}

// BenchmarkE6ICache regenerates E6: cold-miss rates and mask-word refill
// cost of the 8K-instruction cache.
func BenchmarkE6ICache(b *testing.B) {
	res := mustCompile(b, branchyBench, Options{ProfileRun: true})
	var missPct, refillPct float64
	for i := 0; i < b.N; i++ {
		_, _, st, err := Run(res)
		if err != nil {
			b.Fatal(err)
		}
		total := st.ICacheHits + st.ICacheMiss
		missPct = 100 * float64(st.ICacheMiss) / float64(total)
		refillPct = 100 * float64(st.RefillBeats) / float64(st.Beats)
	}
	b.ReportMetric(missPct, "miss-%")
	b.ReportMetric(refillPct, "refill-beats-%")
}

// BenchmarkE8Multiway regenerates E8: packing several branch tests per
// instruction (§6.5.2) on branchy code.
func BenchmarkE8Multiway(b *testing.B) {
	for _, multiway := range []bool{true, false} {
		name := "multiway"
		if !multiway {
			name = "single-branch"
		}
		b.Run(name, func(b *testing.B) {
			res := mustCompile(b, branchyBench, Options{ProfileRun: true, DisableMultiway: !multiway})
			var beats int64
			for i := 0; i < b.N; i++ {
				beats = simBeats(b, res)
			}
			b.ReportMetric(float64(beats), "beats")
		})
	}
}

// BenchmarkE9Speculation regenerates E9: the §7 non-trapping loads.
func BenchmarkE9Speculation(b *testing.B) {
	for _, spec := range []bool{true, false} {
		name := "speculative"
		if !spec {
			name = "no-speculation"
		}
		b.Run(name, func(b *testing.B) {
			res := mustCompile(b, daxpyBench, Options{ProfileRun: true, DisableSpeculation: !spec})
			var beats, loads int64
			for i := 0; i < b.N; i++ {
				_, _, st, err := Run(res)
				if err != nil {
					b.Fatal(err)
				}
				beats, loads = st.Beats, st.SpecLoads
			}
			b.ReportMetric(float64(beats), "beats")
			b.ReportMetric(float64(loads), "spec-loads")
		})
	}
}

// BenchmarkE10Compensation regenerates E10: code growth vs unroll factor.
func BenchmarkE10Compensation(b *testing.B) {
	for _, c := range []struct {
		lvl  OptLevel
		name string
	}{{OptNone, "no-unroll"}, {OptLight, "unroll4"}, {OptFull, "unroll8"}} {
		lvl := c.lvl
		b.Run(c.name, func(b *testing.B) {
			var growth, comp float64
			for i := 0; i < b.N; i++ {
				res := mustCompile(b, daxpyBench, Options{OptLevel: lvl, ProfileRun: true})
				var schedOps, compOps int
				for _, fc := range res.Funcs {
					schedOps += fc.Ops
					compOps += fc.CompOps
				}
				growth = 100 * (float64(schedOps)/float64(res.Opt.OpsBefore) - 1)
				comp = float64(compOps)
			}
			b.ReportMetric(growth, "growth-%")
			b.ReportMetric(comp, "comp-ops")
		})
	}
}

// BenchmarkE12Systems regenerates E12: systems code on the VLIW (§8.4).
func BenchmarkE12Systems(b *testing.B) {
	sc, _, _, err := RunScalar(branchyBench, Trace28())
	if err != nil {
		b.Fatal(err)
	}
	res := mustCompile(b, branchyBench, Options{ProfileRun: true})
	var beats int64
	for i := 0; i < b.N; i++ {
		beats = simBeats(b, res)
	}
	b.ReportMetric(float64(sc.Beats)/float64(beats), "speedup-vs-scalar")
}

// BenchmarkE13Ablation regenerates E13: how much of the win is trace
// scheduling (inter-block motion) vs. basic-block compaction plus the
// universal optimizations (Section 10's proposed quantification).
func BenchmarkE13Ablation(b *testing.B) {
	sc, _, _, err := RunScalar(daxpyBench, Trace28())
	if err != nil {
		b.Fatal(err)
	}
	blocks := mustCompile(b, daxpyBench, Options{BasicBlockOnly: true, ProfileRun: true})
	traces := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	var bBeats, tBeats int64
	for i := 0; i < b.N; i++ {
		bBeats = simBeats(b, blocks)
		tBeats = simBeats(b, traces)
	}
	b.ReportMetric(float64(sc.Beats)/float64(bBeats), "blocks-only-speedup")
	b.ReportMetric(float64(sc.Beats)/float64(tBeats), "trace-speedup")
	b.ReportMetric(100*(1-float64(tBeats)/float64(bBeats)), "trace-win-%")
}

// BenchmarkE7ContextSwitch regenerates E7c: timeslicing on the tagged
// machine vs. one that purges caches and TLBs at every switch (§8.1).
func BenchmarkE7ContextSwitch(b *testing.B) {
	res := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	run := func(flush bool) *Stats {
		m := NewMachine(res)
		m.InterruptEvery = 2000
		m.InterruptBeats = 60
		m.FlushOnSwitch = flush
		m.OnInterrupt = func(mm *Machine) {
			mm.ContextSwitch(1)
			mm.ContextSwitch(0)
		}
		if _, _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		return &m.Stats
	}
	var tagged, purged *Stats
	for i := 0; i < b.N; i++ {
		tagged = run(false)
		purged = run(true)
	}
	b.ReportMetric(float64(tagged.Beats), "tagged-beats")
	b.ReportMetric(float64(purged.Beats), "purged-beats")
	b.ReportMetric(float64(purged.ICacheMiss-tagged.ICacheMiss), "misses-saved-by-tags")
}

// BenchmarkFigure1IdealVsReal regenerates F1: the partitioning cost against
// the Figure-1 central-register-file machine.
func BenchmarkFigure1IdealVsReal(b *testing.B) {
	ideal := mustCompile(b, daxpyBench, Options{Config: Ideal(4), ProfileRun: true})
	real := mustCompile(b, daxpyBench, Options{Config: Trace28(), ProfileRun: true})
	var iBeats, rBeats int64
	for i := 0; i < b.N; i++ {
		iBeats = simBeats(b, ideal)
		rBeats = simBeats(b, real)
	}
	b.ReportMetric(100*(float64(rBeats)/float64(iBeats)-1), "partition-cost-%")
}

// BenchmarkFigure3EncodeDecode measures the Figure-3 round trip itself.
func BenchmarkFigure3EncodeDecode(b *testing.B) {
	prog, err := lang.Compile(daxpyBench)
	if err != nil {
		b.Fatal(err)
	}
	res := mustCompile(b, daxpyBench, Options{})
	cfg := mach.Trace28()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range res.Image.Instrs {
			words, err := isa.Encode(&res.Image.Instrs[j], cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := isa.Decode(words, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(res.Image.Instrs)), "instrs/op")
	_ = prog
	_ = baseline.VAXSize
}

// BenchmarkCompiler measures end-to-end compilation speed (not a paper
// figure; a health metric for the compiler itself).
func BenchmarkCompiler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustCompile(b, daxpyBench, Options{ProfileRun: true})
	}
}

// BenchmarkCompileParallel measures compile throughput of the per-function
// backend fan-out on the multi-function application, sequential vs one
// worker per CPU. The images are identical at every setting (see
// TestParallelCompileDeterminism); only wall-clock should move.
func BenchmarkCompileParallel(b *testing.B) {
	src := xp.MixedApp().Src
	for _, c := range []struct {
		name string
		jobs int
	}{{"j1", 1}, {"jNumCPU", 0}} {
		b.Run(c.name, func(b *testing.B) {
			var funcs int
			for i := 0; i < b.N; i++ {
				res := mustCompile(b, src, Options{Parallelism: c.jobs})
				funcs = len(res.Funcs)
			}
			b.ReportMetric(float64(funcs)/b.Elapsed().Seconds()*float64(b.N), "funcs/s")
		})
	}
}

// BenchmarkSimulator measures raw simulation speed of the checked
// interpreter in beats/second. One machine is reused across iterations via
// Reset, so the number measures execution, not memory allocation.
func BenchmarkSimulator(b *testing.B) {
	res := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	m := NewMachine(res)
	var beats int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(res.Image)
		if _, _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		beats += m.Stats.Beats
	}
	b.ReportMetric(float64(beats)/b.Elapsed().Seconds(), "beats/s")
}

// BenchmarkSimulatorNativeCtx measures the native tier driven through
// Artifact.RunOn with a live (Background) context — the configuration every
// server-side run uses. The delta against BenchmarkSimulatorNative is the
// total cost of beat-granularity cancellation checks plus per-run arming
// from the artifact's cached certificate, which must stay within
// run-to-run noise.
func BenchmarkSimulatorNativeCtx(b *testing.B) {
	art, err := Build(context.Background(), daxpyBench, Options{ProfileRun: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := art.CertifySafe(); err != nil {
		b.Fatal(err)
	}
	m := art.Machine()
	ctx := context.Background()
	var beats int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := art.RunOn(ctx, m, RunOptions{Tier: TierNative})
		if err != nil {
			b.Fatal(err)
		}
		beats += res.Stats.Beats
	}
	b.ReportMetric(float64(beats)/b.Elapsed().Seconds(), "beats/s")
}

// BenchmarkSimulatorContexts measures the checked interpreter time-sharing
// four copies of the workload as hardware contexts on one machine. The
// reported beats/s counts per-context (architectural) beats, so it is
// directly comparable to BenchmarkSimulator: the gap between the two is the
// whole cost of the context scheduler, and wall-clock/work tracks how much
// stall time the machine hid by rotating contexts.
func BenchmarkSimulatorContexts(b *testing.B) {
	res := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	imgs := []*isa.Image{res.Image, res.Image, res.Image, res.Image}
	m := NewMachine(res)
	ctx := context.Background()
	var work, wall int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ResetMany(imgs); err != nil {
			b.Fatal(err)
		}
		rs, err := m.RunMany(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			work += r.Stats.Beats
		}
		wall += m.Sched.TotalBeats
	}
	b.ReportMetric(float64(work)/b.Elapsed().Seconds(), "beats/s")
	b.ReportMetric(float64(wall)/float64(work), "wall-beats/work-beat")
	b.ReportMetric(4, "contexts")
}

// BenchmarkSimulatorNative measures the closure-threaded native tier on the
// same workload: the image is certified at the safety grade once (outside
// the timed region) and each beat is translated once into a fused closure
// sequence — no per-op dispatch switch, no operand re-decode, no dynamic
// resource or race checks, and no guards at proven sites. The translation
// is cached across Reset, so per-iteration arming is one cache hit. The
// floors enforced by scripts/bench.sh are native >= 0.90x its committed
// baseline and native >= 2x the checked interpreter.
func BenchmarkSimulatorNative(b *testing.B) {
	art, err := Build(context.Background(), daxpyBench, Options{ProfileRun: true})
	if err != nil {
		b.Fatal(err)
	}
	cert, err := art.CertifySafe()
	if err != nil {
		b.Fatal(err)
	}
	img := art.Image()
	m := art.Machine()
	var beats int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(img)
		if err := m.UseNativeCertificate(cert); err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		beats += m.Stats.Beats
	}
	b.ReportMetric(float64(beats)/b.Elapsed().Seconds(), "beats/s")
}
