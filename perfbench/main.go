// Command perfbench is the repository's end-to-end, layer-by-layer
// benchmark. It drives the compiler, the verifiers, the simulator, and the
// HTTP service only through their public entry points, checks every result
// against the IR interpreter, and prints one JSON line of metrics last.
//
//	bash perfbench/run.sh --workload cold|hot|serve --seed N --seconds S --trace 0|1
//
// README.md in this directory describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// endToEnd lists the metrics printed with --trace 0, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"sim_beats", "beats"},
	{"code_words", "words"},
	{"peak_heap_mib", "MiB"},
}

// perLayer lists the metrics printed with --trace 1. Layers a workload does
// not exercise report 0.
var perLayer = []metricDef{
	{"lang.self_s", "s"}, {"lang.ir_ops", "count"},
	{"opt.self_s", "s"}, {"opt.ir_ops", "count"}, {"opt.alloc_mib", "MiB"},
	{"profile.self_s", "s"},
	{"tsched.self_s", "s"}, {"tsched.alloc_mib", "MiB"}, {"tsched.retries", "count"},
	{"isa.link_s", "s"}, {"isa.words", "words"},
	{"schedcheck.self_s", "s"}, {"schedcheck.findings", "count"},
	{"safecheck.self_s", "s"}, {"safecheck.alloc_mib", "MiB"}, {"safecheck.sites", "count"}, {"safecheck.proven_ratio", "ratio"},
	{"vliw.translate_s", "s"},
	{"vliw.run_checked_s", "s"}, {"vliw.run_native_s", "s"}, {"vliw.timeshare_s", "s"},
	{"vliw.beats", "beats"}, {"vliw.bank_stall_beats", "beats"}, {"vliw.refill_beats", "beats"},
	{"vliw.tlb_trap_beats", "beats"}, {"vliw.hidden_beats", "beats"}, {"vliw.switches", "count"},
	{"serve.artifact_hit_ratio", "ratio"}, {"serve.run_hit_ratio", "ratio"}, {"serve.flight_joins", "count"},
	{"serve.rejected", "count"}, {"serve.rerun_p50_ms", "ms"},
	{"ir.interp_s", "s"},
	{"gc.cycles", "count"}, {"gc.pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// row is one human-readable metric line: a workload-specific metric,
// printed above the JSON line with its sample count.
type row struct {
	name  string
	value float64
	unit  string
	n     int
}

// phase is one timed stretch of a workload: untraced for the end-to-end
// numbers, or traced for the per-layer ones.
type phase struct {
	pass    []float64     // seconds per pass
	elapsed time.Duration // of the untraced phase
}

// tally counts attempted operations and the ones that failed or disagreed
// with their reference. It is shared by the phases of one run.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	log       io.Writer
}

// check records one operation; a non-nil err counts it as failed.
func (t *tally) check(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 20 {
			fmt.Fprintf(t.log, "perfbench: FAIL: %v\n", err)
		}
	}
}

// workload is one traffic shape. setup may be called several times; each
// call replaces the previous state (close releases it).
type workload interface {
	setupReps() int
	// corruptReferences alters every reference; the benchmark must then
	// report failures (tests use it).
	corruptReferences()
	setup(ctx context.Context) (interp time.Duration, err error)
	run(ctx context.Context, d time.Duration, tr *tracer, ph *phase) error
	// exact returns the workload's exact counts: simulated beats per pass
	// and linked instruction words.
	exact() (simBeats, codeWords int64)
	// fingerprints returns the image fingerprint of every program the
	// workload built itself, by program name.
	fingerprints() map[string][32]byte
	// rows returns the workload-specific metrics of the untraced phase.
	rows(u *phase) []row
	// layers returns the per-layer numbers of the traced phase, per pass.
	layers(t *phase, lt layerTotals) map[string]float64
	close()
}

type config struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	corrupt  bool // alter every reference before the timed phase
}

// outcome is everything one invocation measured.
type outcome struct {
	attempted, failed int
	trace             bool
	e2e, layers       map[string]float64
	fingerprints      map[string][32]byte
	table             string
}

func newWorkload(cfg config, t *tally) (workload, error) {
	switch cfg.workload {
	case "cold":
		return newCold(cfg, t), nil
	case "hot":
		return newHot(cfg, t), nil
	case "serve":
		return newServe(cfg, t), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold, hot, or serve)", cfg.workload)
}

// benchmark runs one invocation: set-up (repeated), the untraced timed
// phase, and with cfg.trace the traced phase.
func benchmark(ctx context.Context, cfg config, log io.Writer) (*outcome, error) {
	tl := &tally{log: log}
	w, err := newWorkload(cfg, tl)
	if err != nil {
		return nil, err
	}
	defer w.close()

	reps := w.setupReps()
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var interp time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if interp, err = w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, seconds(time.Since(start)))
	}
	if cfg.corrupt {
		w.corruptReferences()
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	runtime.GC()
	hs := startHeapSampler(2 * time.Millisecond)
	u := &phase{}
	start := time.Now()
	err = w.run(ctx, d, nil, u)
	u.elapsed = time.Since(start)
	peak := hs.finish()
	if err != nil {
		return nil, err
	}
	simBeats, codeWords := w.exact()

	o := &outcome{trace: cfg.trace, e2e: map[string]float64{}, fingerprints: w.fingerprints()}
	var tb strings.Builder
	fmt.Fprintf(&tb, "perfbench %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(&tb, "%-28s %16s %-8s %8s\n", "metric", "value", "unit", "n")
	put := func(r row) { fmt.Fprintf(&tb, "%-28s %16.6g %-8s %8d\n", r.name, r.value, r.unit, r.n) }
	e2e := map[string]row{
		"setup_s":       {"setup_s", median(setups), "s", len(setups)},
		"pass_s":        {"pass_s", median(u.pass), "s", len(u.pass)},
		"sim_beats":     {"sim_beats", float64(simBeats), "beats", 1},
		"code_words":    {"code_words", float64(codeWords), "words", 1},
		"peak_heap_mib": {"peak_heap_mib", peak, "MiB", 1},
	}
	for _, m := range endToEnd {
		put(e2e[m.name])
	}
	fmt.Fprintf(&tb, "-- pass_s quartiles: min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g\n",
		quantile(u.pass, 0), quantile(u.pass, 0.25), median(u.pass), quantile(u.pass, 0.75), quantile(u.pass, 1))
	fmt.Fprintf(&tb, "-- %s metrics (untraced)\n", cfg.workload)
	for _, r := range w.rows(u) {
		put(r)
	}

	for _, m := range endToEnd {
		o.e2e[m.name] = e2e[m.name].value
	}
	if cfg.trace {
		tr := newTracer(cfg.workload == "cold")
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t := &phase{}
		if err := w.run(ctx, d, tr, t); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		lt := tr.totals()
		layers := w.layers(t, lt)
		np := float64(max(len(t.pass), 1))
		layers["ir.interp_s"] = seconds(interp)
		layers["gc.cycles"] = float64(ms1.NumGC-ms0.NumGC) / np
		layers["gc.pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / np
		layers["trace.overhead_ratio"] = median(t.pass)/median(u.pass) - 1
		fmt.Fprintf(&tb, "-- tracing overhead: traced pass_s %.6g s vs untraced %.6g s (%+.1f%%)\n",
			median(t.pass), median(u.pass), 100*layers["trace.overhead_ratio"])
		fmt.Fprintf(&tb, "-- per-layer self time (traced phase, %d passes)\n%s", len(t.pass), lt.selfTable(len(t.pass)))
		fmt.Fprintf(&tb, "-- per-layer metrics (per pass)\n")
		for _, m := range perLayer {
			put(row{m.name, layers[m.name], m.unit, len(t.pass)})
		}
		o.layers = layers
		if err := writeTrace(cfg.out, tr); err != nil {
			return nil, err
		}
	}
	o.attempted, o.failed = tl.attempted, tl.failed
	fmt.Fprintf(&tb, "%-28s %16.6g %-8s %8d\n", "error_rate", float64(o.failed)/float64(max(o.attempted, 1)), "ratio", o.attempted)
	o.table = tb.String()
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "report.txt"), []byte(o.table), 0o644); err != nil {
		return nil, err
	}
	return o, nil
}

func writeTrace(dir string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine renders the final JSON line.
func (o *outcome) resultLine() ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, o.e2e
	if o.trace {
		defs, vals = perLayer, o.layers
	}
	ms := map[string]metric{}
	for _, d := range defs {
		ms[d.name] = metric{vals[d.name], d.unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "cold, hot, or serve")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = add a traced phase and print the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		root: ".", workload: *workload, seed: *seed, seconds: *secs, trace: *traceFlag == 1,
		out: filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceFlag)),
	}
	o, err := benchmark(context.Background(), cfg, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := o.resultLine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(o.table)
	fmt.Println(string(line))
	if o.failed > 0 {
		os.Exit(1)
	}
}
