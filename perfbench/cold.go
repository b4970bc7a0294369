package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/profile"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/tsched"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// cold takes every corpus program from source to exit twice per pass, each
// time on a fresh Artifact: once as Build → Run(checked), once as
// Build → CertifySafe → Run(native). One caller; tsched keeps its default
// per-CPU worker pool.
type cold struct {
	cfg   config
	tally *tally
	rng   *rand.Rand
	progs []coldProg

	// Per pass, in pass order (untraced phase).
	checkedS, nativeS []float64
	// Per program: source→exit seconds of each copy, one per pass.
	progChecked, progNative [][]float64
	// Traced phase: per-pass counts gathered from the re-driven layers.
	tcounts map[string]float64
}

type coldProg struct {
	program
	fp     [32]byte // image fingerprint of the first core.Build
	haveFP bool
	stats  vliw.Stats
	words  int
	proven int
	sites  int
}

func newCold(cfg config, t *tally) *cold {
	return &cold{cfg: cfg, tally: t}
}

func (c *cold) setupReps() int { return 21 }
func (c *cold) close()         {}

// setup assembles the corpus and computes its references: the repository
// programs plus one retry-pool and one clean-pool fuzz.Gen program drawn
// with the seed.
func (c *cold) setup(ctx context.Context) (time.Duration, error) {
	c.rng = rand.New(rand.NewSource(c.cfg.seed))
	ps, err := repoPrograms(c.cfg.root)
	if err != nil {
		return 0, err
	}
	ps = append(ps, genProgram(draw(c.rng, retryPool)), genProgram(draw(c.rng, cleanPool)))
	interp, err := withReferences(ps)
	if err != nil {
		return 0, err
	}
	c.progs = make([]coldProg, len(ps))
	for i, p := range ps {
		c.progs[i] = coldProg{program: p}
	}
	c.progChecked = make([][]float64, len(ps))
	c.progNative = make([][]float64, len(ps))
	c.checkedS, c.nativeS = nil, nil
	return interp, nil
}

func (c *cold) corruptReferences() {
	for i := range c.progs {
		c.progs[i].ref.exit ^= 1
	}
}

func (c *cold) run(ctx context.Context, d time.Duration, tr *tracer, ph *phase) error {
	if tr != nil {
		c.tcounts = map[string]float64{}
	}
	deadline := time.Now().Add(d)
	var group int64
	for len(ph.pass) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		var passChecked, passNative time.Duration
		for _, i := range c.rng.Perm(len(c.progs)) {
			p := &c.progs[i]
			group++
			ck, err := c.copyChecked(ctx, p, tr, group)
			if err != nil {
				return err
			}
			group++
			nt, err := c.copyNative(ctx, p, tr, group)
			if err != nil {
				return err
			}
			passChecked += ck
			passNative += nt
			if tr == nil {
				c.progChecked[i] = append(c.progChecked[i], seconds(ck))
				c.progNative[i] = append(c.progNative[i], seconds(nt))
			}
		}
		ph.pass = append(ph.pass, seconds(time.Since(start)))
		if tr == nil {
			c.checkedS = append(c.checkedS, seconds(passChecked))
			c.nativeS = append(c.nativeS, seconds(passNative))
		}
	}
	return nil
}

// copyChecked is Build → Run(checked); traced, it re-drives the same
// sequence layer by layer.
func (c *cold) copyChecked(ctx context.Context, p *coldProg, tr *tracer, group int64) (time.Duration, error) {
	start := time.Now()
	var img *isa.Image
	var res core.ExitResult
	var err error
	if tr == nil {
		var a *core.Artifact
		if a, err = core.Build(ctx, p.src, core.DefaultOptions()); err == nil {
			img = a.Image()
			res, err = a.Run(ctx, core.RunOptions{Tier: vliw.TierChecked})
		}
	} else {
		root := tr.open(group, "program", "checked:"+p.name)
		var b *redriven
		if b, err = c.redrive(ctx, p, tr, group, root); err == nil {
			img = b.img
			res, err = runTraced(ctx, tr, group, root, "vliw.run_checked", p.name, img, nil)
		}
		tr.close(root)
	}
	elapsed := time.Since(start)
	if err != nil {
		c.tally.check(fmt.Errorf("cold %s checked: %w", p.name, err))
		return elapsed, nil
	}
	c.tally.check(c.verify(p, img, res, vliw.TierChecked))
	return elapsed, nil
}

// copyNative is Build → CertifySafe → Run(native), which includes the
// native translation.
func (c *cold) copyNative(ctx context.Context, p *coldProg, tr *tracer, group int64) (time.Duration, error) {
	start := time.Now()
	var img *isa.Image
	var res core.ExitResult
	var err error
	var proven, sites int
	if tr == nil {
		var a *core.Artifact
		if a, err = core.Build(ctx, p.src, core.DefaultOptions()); err == nil {
			img = a.Image()
			if _, err = a.CertifySafe(); err == nil {
				proven, sites = a.Safety().Proven(), a.Safety().Total()
				res, err = a.Run(ctx, core.RunOptions{Tier: vliw.TierNative})
			}
		}
	} else {
		root := tr.open(group, "program", "native:"+p.name)
		var b *redriven
		if b, err = c.redrive(ctx, p, tr, group, root); err == nil {
			img = b.img
			var cert *safecheck.SafeCertificate
			if cert, proven, sites, err = c.certifyTraced(tr, group, root, p.name, b); err == nil {
				res, err = runTraced(ctx, tr, group, root, "vliw.run_native", p.name, img, cert)
			}
		}
		tr.close(root)
	}
	elapsed := time.Since(start)
	if err != nil {
		c.tally.check(fmt.Errorf("cold %s native: %w", p.name, err))
		return elapsed, nil
	}
	if p.sites == 0 {
		p.proven, p.sites = proven, sites
	} else if p.proven != proven || p.sites != sites {
		c.tally.check(fmt.Errorf("cold %s: safecheck proved %d/%d sites, earlier %d/%d", p.name, proven, sites, p.proven, p.sites))
		return elapsed, nil
	}
	c.tally.check(c.verify(p, img, res, vliw.TierNative))
	return elapsed, nil
}

// verify checks one copy's result: exit and output against the reference,
// the tier actually taken, every Stats counter against the program's other
// runs, and the image fingerprint against the first core.Build.
func (c *cold) verify(p *coldProg, img *isa.Image, res core.ExitResult, tier vliw.Tier) error {
	if !p.ref.matches(res.Exit, res.Output) {
		return fmt.Errorf("cold %s %s: got exit %d, output %q; reference %s", p.name, tier, res.Exit, res.Output, p.ref)
	}
	if res.Tier != tier {
		return fmt.Errorf("cold %s: asked for the %s tier, ran on %s", p.name, tier, res.Tier)
	}
	fp := img.Fingerprint()
	if !p.haveFP {
		p.fp, p.haveFP, p.stats, p.words = fp, true, res.Stats, len(img.Instrs)
		return nil
	}
	if fp != p.fp {
		return fmt.Errorf("cold %s %s: image fingerprint %x differs from core.Build's %x", p.name, tier, fp[:8], p.fp[:8])
	}
	if res.Stats != p.stats {
		return fmt.Errorf("cold %s %s: Stats %+v differ from the checked run's %+v", p.name, tier, res.Stats, p.stats)
	}
	return nil
}

// redriven is a build assembled from the layers' own entry points.
type redriven struct {
	img   *isa.Image
	codes []*tsched.FuncCode
}

// redrive repeats core.CompileIR's sequence from outside, one span per
// layer: lang.Compile, the opt passes, profile estimation, tsched (with
// core's capacity retry ladder), and isa.Link.
func (c *cold) redrive(ctx context.Context, p *coldProg, tr *tracer, group int64, root int) (*redriven, error) {
	opts := core.DefaultOptions()
	var prog *ir.Program
	if err := tr.do(group, root, "lang", p.name, func() error {
		var err error
		prog, err = lang.Compile(p.src)
		return err
	}); err != nil {
		return nil, err
	}
	c.tcounts["lang.ir_ops"] += float64(pipeline.CountOps(prog))
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	optCfg := opts.Opt
	for {
		work := prog.Clone()
		pctx := pipeline.NewContext()
		if err := tr.do(group, root, "opt", p.name, func() error {
			return pipeline.Run(ctx, work, pctx, opt.Passes(optCfg)...)
		}); err != nil {
			return nil, err
		}
		opsAfterOpt := pipeline.CountOps(work)
		if err := tr.do(group, root, "profile", p.name, func() error {
			return pipeline.Run(ctx, work, pctx, profile.Pass(opts.Profile == core.ProfileRun))
		}); err != nil {
			return nil, err
		}
		var codes []*tsched.FuncCode
		err := tr.do(group, root, "tsched", p.name, func() error {
			var err error
			codes, err = tsched.CompileParallel(ctx, work, opts.Config, pctx.Profile, tsched.CompileOptions{
				MaxTraceBlocks: opts.MaxTraceBlocks,
				Parallelism:    opts.Parallelism,
			})
			return err
		})
		if err != nil {
			var ep *tsched.ErrPressure
			var es *tsched.ErrScheduleSize
			capacity := errors.As(err, &ep) || errors.As(err, &es)
			if capacity && optCfg.UnrollFactor > 1 {
				optCfg.UnrollFactor /= 2
				c.tcounts["tsched.retries"]++
				continue
			}
			if capacity && optCfg.Inline {
				optCfg.Inline = false
				c.tcounts["tsched.retries"]++
				continue
			}
			return nil, err
		}
		c.tcounts["opt.ir_ops"] += float64(opsAfterOpt)
		var img *isa.Image
		if err := tr.do(group, root, "isa", p.name, func() error {
			var err error
			img, err = isa.Link(work, codes, opts.Config)
			return err
		}); err != nil {
			return nil, err
		}
		c.tcounts["isa.words"] += float64(len(img.Instrs))
		return &redriven{img: img, codes: codes}, nil
	}
}

// certifyTraced mints the graded certificate the way Artifact.CertifySafe
// does, from schedcheck's and safecheck's own entry points, and arms a
// machine with it (the native translation) inside the vliw.translate span.
func (c *cold) certifyTraced(tr *tracer, group int64, root int, name string, b *redriven) (*safecheck.SafeCertificate, int, int, error) {
	src := schedcheck.NewSourceMap(b.img, b.codes)
	var cert *schedcheck.Certificate
	if err := tr.do(group, root, "schedcheck", name, func() error {
		rep := schedcheck.Check(b.img, schedcheck.Options{Src: src})
		c.tcounts["schedcheck.findings"] += float64(len(rep.Findings))
		var err error
		cert, err = rep.Certify()
		return err
	}); err != nil {
		return nil, 0, 0, err
	}
	var safe *safecheck.SafeCertificate
	var rep *safecheck.Report
	if err := tr.do(group, root, "safecheck", name, func() error {
		rep = safecheck.Analyze(b.img, safecheck.Options{Src: src})
		var err error
		safe, err = rep.Certify(cert)
		return err
	}); err != nil {
		return nil, 0, 0, err
	}
	c.tcounts["safecheck.sites"] += float64(rep.Total())
	c.tcounts["safecheck.proven"] += float64(rep.Proven())
	return safe, rep.Proven(), rep.Total(), nil
}

// runTraced runs an image on a fresh machine inside a span: checked when
// cert is nil, otherwise native after a vliw.translate span that arms the
// certificate.
func runTraced(ctx context.Context, tr *tracer, group int64, root int, name, class string, img *isa.Image, cert *safecheck.SafeCertificate) (core.ExitResult, error) {
	m := vliw.New(img)
	if cert != nil {
		if err := tr.do(group, root, "vliw.translate", class, func() error {
			return m.UseNativeCertificate(cert)
		}); err != nil {
			return core.ExitResult{}, err
		}
	}
	var res core.ExitResult
	err := tr.do(group, root, name, class, func() error {
		v, out, err := m.RunContext(ctx)
		res = core.ExitResult{Exit: v, Output: out, Stats: m.Stats, Tier: m.Tier()}
		return err
	})
	return res, err
}

func (c *cold) fingerprints() map[string][32]byte {
	fps := map[string][32]byte{}
	for _, p := range c.progs {
		fps[p.name] = p.fp
	}
	return fps
}

func (c *cold) exact() (simBeats, codeWords int64) {
	for _, p := range c.progs {
		simBeats += p.stats.Beats
		codeWords += int64(p.words)
	}
	return simBeats, codeWords
}

func (c *cold) rows(u *phase) []row {
	n := len(u.pass)
	proven, sites := 0, 0
	for _, p := range c.progs {
		proven += p.proven
		sites += p.sites
	}
	rs := []row{
		{"cold_checked_s", median(c.checkedS), "s", n},
		{"cold_native_s", median(c.nativeS), "s", n},
		{"safecheck.proven_ratio", float64(proven) / float64(max(sites, 1)), "ratio", 1},
	}
	// Per-program rows: source→exit seconds of each copy and their ratio.
	var ratios []float64
	for i, p := range c.progs {
		ck, nt := median(c.progChecked[i]), median(c.progNative[i])
		ratios = append(ratios, nt/ck)
		rs = append(rs,
			row{"prog." + p.name + ".checked_s", ck, "s", len(c.progChecked[i])},
			row{"prog." + p.name + ".native_s", nt, "s", len(c.progNative[i])},
			row{"prog." + p.name + ".native/checked", nt / ck, "ratio", len(c.progNative[i])},
		)
	}
	rs = append(rs, row{"prog.geomean.native/checked", geomean(ratios), "ratio", len(ratios)})
	return rs
}

func (c *cold) layers(t *phase, lt layerTotals) map[string]float64 {
	np := float64(max(len(t.pass), 1))
	l := map[string]float64{}
	for span, metric := range map[string]string{
		"lang": "lang.self_s", "opt": "opt.self_s", "profile": "profile.self_s",
		"tsched": "tsched.self_s", "isa": "isa.link_s", "schedcheck": "schedcheck.self_s",
		"safecheck": "safecheck.self_s", "vliw.translate": "vliw.translate_s",
		"vliw.run_checked": "vliw.run_checked_s", "vliw.run_native": "vliw.run_native_s",
	} {
		l[metric] = lt.self[span].Seconds() / np
	}
	for span, metric := range map[string]string{"opt": "opt.alloc_mib", "tsched": "tsched.alloc_mib", "safecheck": "safecheck.alloc_mib"} {
		l[metric] = float64(lt.alloc[span]) / mib / np
	}
	for _, k := range []string{"lang.ir_ops", "opt.ir_ops", "tsched.retries", "isa.words", "schedcheck.findings", "safecheck.sites"} {
		l[k] = c.tcounts[k] / np
	}
	l["safecheck.proven_ratio"] = c.tcounts["safecheck.proven"] / max(c.tcounts["safecheck.sites"], 1)
	for _, p := range c.progs {
		addBeats(l, 2, p.stats) // each pass runs every program twice
	}
	return l
}
