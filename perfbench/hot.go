package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// hotTimeshareK is the number of hardware contexts in the time-shared batch.
const hotTimeshareK = 4

// hot runs long-running programs that set-up already built, certified, and
// translated: each pass runs every program once on the checked tier and
// once on the native tier through Artifact.RunOn on a reused machine per
// program and tier, then a K=4 RunMany batch of each program at native.
// The compiler does no work in the timed loop. One caller.
type hot struct {
	cfg   config
	tally *tally
	rng   *rand.Rand
	progs []*hotProg

	// Per pass (untraced phase): host seconds per tier and work beats.
	checkedS, nativeS, shareS []float64
	// Traced phase: scheduler counters summed over the phase.
	hidden, switches int64
}

type hotProg struct {
	program
	art               *core.Artifact
	mChecked, mNative *vliw.Machine
	mShare            *vliw.Machine
	stats             vliw.Stats // the checked run's counters
	words             int
	arts              []*core.Artifact // the batch: the artifact K times
}

func newHot(cfg config, t *tally) *hot { return &hot{cfg: cfg, tally: t} }

func (h *hot) setupReps() int { return 3 }
func (h *hot) close()         {}

// hotPrograms are the long-running programs: fib and sort from the
// repository and the four longest internal/xp workloads, each 2-9 × 10^5
// beats.
func hotPrograms(root string) ([]program, error) {
	repo, err := repoPrograms(root)
	if err != nil {
		return nil, err
	}
	var ps []program
	for _, p := range repo {
		if p.name == "examples/fib.mf" || p.name == "testdata/sort.mf" {
			ps = append(ps, p)
		}
	}
	if len(ps) != 2 {
		return nil, fmt.Errorf("examples/fib.mf or testdata/sort.mf missing")
	}
	for _, name := range []string{"sort", "fir", "tridiag", "scanner"} {
		p, err := xpProgram(name)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// setup builds, certifies, and translates every program and warms one
// machine per program and tier, checking the warm-up runs.
func (h *hot) setup(ctx context.Context) (time.Duration, error) {
	h.rng = rand.New(rand.NewSource(h.cfg.seed))
	ps, err := hotPrograms(h.cfg.root)
	if err != nil {
		return 0, err
	}
	interp, err := withReferences(ps)
	if err != nil {
		return 0, err
	}
	h.progs = nil
	h.checkedS, h.nativeS, h.shareS = nil, nil, nil
	for _, p := range ps {
		a, err := core.Build(ctx, p.src, core.DefaultOptions())
		if err != nil {
			return 0, fmt.Errorf("build %s: %w", p.name, err)
		}
		if _, err := a.CertifySafe(); err != nil {
			return 0, fmt.Errorf("certify %s: %w", p.name, err)
		}
		hp := &hotProg{program: p, art: a, mChecked: a.Machine(), mNative: a.Machine(), mShare: a.Machine(), words: len(a.Image().Instrs)}
		for i := 0; i < hotTimeshareK; i++ {
			hp.arts = append(hp.arts, a)
		}
		res, err := a.RunOn(ctx, hp.mChecked, core.RunOptions{Tier: vliw.TierChecked})
		if err != nil || !p.ref.matches(res.Exit, res.Output) {
			return 0, fmt.Errorf("warm-up %s checked: exit %d, output %q, error %v; reference %s", p.name, res.Exit, res.Output, err, p.ref)
		}
		hp.stats = res.Stats
		h.progs = append(h.progs, hp)
		if err := h.runNative(ctx, hp, nil, 0); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
		if _, err := h.runShare(ctx, hp, nil, 0); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return interp, nil
}

func (h *hot) corruptReferences() {
	for _, p := range h.progs {
		p.ref.exit ^= 1
	}
}

func (h *hot) run(ctx context.Context, d time.Duration, tr *tracer, ph *phase) error {
	h.hidden, h.switches = 0, 0
	deadline := time.Now().Add(d)
	var group int64
	for len(ph.pass) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		var ck, nt, sh time.Duration
		for _, i := range h.rng.Perm(len(h.progs)) {
			p := h.progs[i]
			group++
			t0 := time.Now()
			h.tally.check(h.runChecked(ctx, p, tr, group))
			t1 := time.Now()
			group++
			h.tally.check(h.runNative(ctx, p, tr, group))
			t2 := time.Now()
			ck += t1.Sub(t0)
			nt += t2.Sub(t1)
		}
		for _, i := range h.rng.Perm(len(h.progs)) {
			p := h.progs[i]
			group++
			t0 := time.Now()
			sched, err := h.runShare(ctx, p, tr, group)
			sh += time.Since(t0)
			h.tally.check(err)
			h.hidden += sched.HiddenBeats
			h.switches += sched.Switches
		}
		ph.pass = append(ph.pass, seconds(time.Since(start)))
		if tr == nil {
			h.checkedS = append(h.checkedS, seconds(ck))
			h.nativeS = append(h.nativeS, seconds(nt))
			h.shareS = append(h.shareS, seconds(sh))
		}
	}
	return nil
}

func (h *hot) runChecked(ctx context.Context, p *hotProg, tr *tracer, group int64) error {
	var res core.ExitResult
	err := tr.do(group, -1, "vliw.run_checked", p.name, func() error {
		var err error
		res, err = p.art.RunOn(ctx, p.mChecked, core.RunOptions{Tier: vliw.TierChecked})
		return err
	})
	return h.verify(p, res, err, vliw.TierChecked)
}

func (h *hot) runNative(ctx context.Context, p *hotProg, tr *tracer, group int64) error {
	var res core.ExitResult
	err := tr.do(group, -1, "vliw.run_native", p.name, func() error {
		var err error
		res, err = p.art.RunOn(ctx, p.mNative, core.RunOptions{Tier: vliw.TierNative})
		return err
	})
	return h.verify(p, res, err, vliw.TierNative)
}

// verify checks exit and output against the reference and all 23 Stats
// counters against the checked warm-up run.
func (h *hot) verify(p *hotProg, res core.ExitResult, err error, tier vliw.Tier) error {
	switch {
	case err != nil:
		return fmt.Errorf("hot %s %s: %w", p.name, tier, err)
	case !p.ref.matches(res.Exit, res.Output):
		return fmt.Errorf("hot %s %s: got exit %d, output %q; reference %s", p.name, tier, res.Exit, res.Output, p.ref)
	case res.Tier != tier:
		return fmt.Errorf("hot %s: asked for the %s tier, ran on %s", p.name, tier, res.Tier)
	case res.Stats != p.stats:
		return fmt.Errorf("hot %s %s: Stats %+v differ from the checked run's %+v", p.name, tier, res.Stats, p.stats)
	}
	return nil
}

// runShare time-shares K copies of the program on one machine at native;
// each context must match the solo run exactly.
func (h *hot) runShare(ctx context.Context, p *hotProg, tr *tracer, group int64) (vliw.SchedStats, error) {
	var rs []core.ManyResult
	var sched vliw.SchedStats
	err := tr.do(group, -1, "vliw.timeshare", p.name, func() error {
		var err error
		rs, sched, err = core.RunManyOn(ctx, p.mShare, p.arts, core.RunManyOptions{Tier: vliw.TierNative})
		return err
	})
	if err != nil {
		return sched, fmt.Errorf("hot %s timeshare: %w", p.name, err)
	}
	for i, r := range rs {
		if err := h.verify(p, core.ExitResult{Exit: r.Exit, Output: r.Output, Stats: r.Stats, Tier: r.Tier}, r.Err, vliw.TierNative); err != nil {
			return sched, fmt.Errorf("context %d: %w", i, err)
		}
	}
	return sched, nil
}

// beatsPerTierPass is the simulated work of one run of every program.
func (h *hot) beatsPerTierPass() int64 {
	var b int64
	for _, p := range h.progs {
		b += p.stats.Beats
	}
	return b
}

func (h *hot) fingerprints() map[string][32]byte {
	fps := map[string][32]byte{}
	for _, p := range h.progs {
		fps[p.name] = p.art.Image().Fingerprint()
	}
	return fps
}

func (h *hot) exact() (simBeats, codeWords int64) {
	for _, p := range h.progs {
		codeWords += int64(p.words)
	}
	return h.beatsPerTierPass(), codeWords
}

func (h *hot) rows(u *phase) []row {
	n := len(u.pass)
	b := float64(h.beatsPerTierPass())
	return []row{
		{"hot_checked_mbeats_per_s", b / median(h.checkedS) / 1e6, "Mbeat/s", n},
		{"hot_native_mbeats_per_s", b / median(h.nativeS) / 1e6, "Mbeat/s", n},
		{"hot_timeshare_mbeats_per_s", hotTimeshareK * b / median(h.shareS) / 1e6, "Mbeat/s", n},
	}
}

func (h *hot) layers(t *phase, lt layerTotals) map[string]float64 {
	np := float64(max(len(t.pass), 1))
	l := map[string]float64{
		"vliw.run_checked_s": lt.self["vliw.run_checked"].Seconds() / np,
		"vliw.run_native_s":  lt.self["vliw.run_native"].Seconds() / np,
		"vliw.timeshare_s":   lt.self["vliw.timeshare"].Seconds() / np,
		"vliw.hidden_beats":  float64(h.hidden) / np,
		"vliw.switches":      float64(h.switches) / np,
	}
	for _, p := range h.progs {
		addBeats(l, 2+hotTimeshareK, p.stats) // checked, native, and K contexts
	}
	return l
}
