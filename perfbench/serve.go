package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/multiflow-repro/trace/internal/serve"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// Serve traffic: a closed loop of serveClients clients on keep-alive
// connections to an in-process serve.New over loopback HTTP, with one
// backend worker per compile and an artifact cache of serveCacheBytes. Requests come in rounds with a fixed class mix, shuffled
// by the seed:
//
//	hit    each repository program at checked and at native, twice each
//	       (artifact cached, run memoized)
//	rerun  each repository program once at native with no_cache
//	miss   one never-seen source at checked: a missPool program with a
//	       unique comment line, which the server must compile and cache
const (
	serveClients   = 2
	hitsPerPair    = 2 // per program and tier
	missesPerRound = 1
	// roundsPerPass groups rounds into passes: a round's own duration
	// swings with where its miss lands between the two clients, so a pass
	// spans enough rounds to average that out.
	roundsPerPass = 10
	// serveCacheBytes is small enough that the misses fill the artifact
	// cache within the first seconds, after which each miss evicts an old
	// one: the heap then holds steady instead of growing with the number
	// of misses served.
	serveCacheBytes = 16 << 20
)

type serveW struct {
	cfg   config
	tally *tally
	rng   *rand.Rand
	progs []program // the repository programs (hit and rerun classes)
	miss  []program // missPool programs

	srv    *http.Server
	done   chan error
	client *http.Client
	base   string

	expStats  map[string]serve.RunStats // by program name
	words     int64
	missMu    sync.Mutex
	missStats map[int]serve.RunStats // by missPool index, from its first miss

	// Untraced phase, by class: latencies in milliseconds.
	lat map[string][]float64
	// Traced phase.
	tlat      map[string][]float64
	m0, m1    serveMetrics
	missCount atomic.Int64
}

func newServe(cfg config, t *tally) *serveW { return &serveW{cfg: cfg, tally: t} }

func (s *serveW) setupReps() int { return 3 }

// request is one generated request.
type request struct {
	class   string // hit, rerun, miss
	prog    int    // index into progs, or into miss for the miss class
	tier    vliw.Tier
	noCache bool
	tag     int64 // miss serial number, which makes the source unique
}

func (s *serveW) round() []request {
	var rs []request
	for i := range s.progs {
		for _, t := range []vliw.Tier{vliw.TierChecked, vliw.TierNative} {
			for k := 0; k < hitsPerPair; k++ {
				rs = append(rs, request{class: "hit", prog: i, tier: t})
			}
		}
		rs = append(rs, request{class: "rerun", prog: i, tier: vliw.TierNative, noCache: true})
	}
	for k := 0; k < missesPerRound; k++ {
		rs = append(rs, request{class: "miss", prog: s.rng.Intn(len(s.miss)), tier: vliw.TierChecked})
	}
	s.rng.Shuffle(len(rs), func(a, b int) { rs[a], rs[b] = rs[b], rs[a] })
	return rs
}

// setup starts a fresh server and warms it: every repository program is
// compiled (POST /compile), run at checked and at native (which mints the
// safety certificate), and rerun once at native without the run cache.
func (s *serveW) setup(ctx context.Context) (time.Duration, error) {
	s.close()
	s.rng = rand.New(rand.NewSource(s.cfg.seed))
	progs, err := repoPrograms(s.cfg.root)
	if err != nil {
		return 0, err
	}
	var miss []program
	for _, seed := range missPool {
		miss = append(miss, genProgram(seed))
	}
	all := append(append([]program(nil), progs...), miss...)
	interp, err := withReferences(all)
	if err != nil {
		return 0, err
	}
	s.progs, s.miss = all[:len(progs)], all[len(progs):]
	s.expStats = map[string]serve.RunStats{}
	s.missStats = map[int]serve.RunStats{}
	s.words = 0
	s.missCount.Store(0)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: serve.New(serve.Config{Parallelism: 1, CacheBytes: serveCacheBytes})}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
	}}

	for i, p := range s.progs {
		var cr serve.CompileResponse
		if err := s.post(ctx, "/compile", serve.CompileRequest{Source: p.src}, &cr); err != nil {
			return 0, fmt.Errorf("warm-up compile %s: %w", p.name, err)
		}
		s.words += int64(cr.Instrs)
		for _, r := range []request{
			{class: "warm", prog: i, tier: vliw.TierChecked},
			{class: "warm", prog: i, tier: vliw.TierNative},
			{class: "warm", prog: i, tier: vliw.TierNative, noCache: true},
		} {
			if _, err := s.do(ctx, r); err != nil {
				return 0, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return interp, nil
}

func (s *serveW) corruptReferences() {
	for i := range s.progs {
		s.progs[i].ref.exit ^= 1
	}
	for i := range s.miss {
		s.miss[i].ref.exit ^= 1
	}
}

func (s *serveW) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: server: %v\n", err)
	}
	s.client.CloseIdleConnections()
	s.srv = nil
}

func (s *serveW) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// do sends one /run request and checks the reply: exit and output against
// the reference, the tier taken, and the wire Stats against every other
// run of the same program (checked and native must agree).
func (s *serveW) do(ctx context.Context, r request) (serve.RunResponse, error) {
	p := s.progs[r.prog]
	src := p.src
	if r.class == "miss" {
		p = s.miss[r.prog]
		src = fmt.Sprintf("%s\n// miss %d-%d\n", p.src, s.cfg.seed, r.tag)
	}
	var rr serve.RunResponse
	err := s.post(ctx, "/run", serve.RunRequest{Source: src, Run: serve.RunRequestOptions{Tier: r.tier, NoCache: r.noCache}}, &rr)
	switch {
	case err != nil:
		return rr, fmt.Errorf("serve %s %s %s: %w", r.class, p.name, r.tier, err)
	case !p.ref.matches(rr.Exit, rr.Output):
		return rr, fmt.Errorf("serve %s %s %s: got exit %d, output %q; reference %s", r.class, p.name, r.tier, rr.Exit, rr.Output, p.ref)
	case rr.Tier != r.tier:
		return rr, fmt.Errorf("serve %s %s: asked for the %s tier, ran on %s", r.class, p.name, r.tier, rr.Tier)
	}
	if r.class == "miss" {
		s.missMu.Lock()
		defer s.missMu.Unlock()
		if prev, ok := s.missStats[r.prog]; ok && prev != rr.Stats {
			return rr, fmt.Errorf("serve miss %s: Stats %+v differ from an earlier compile's %+v", p.name, rr.Stats, prev)
		}
		s.missStats[r.prog] = rr.Stats
		return rr, nil
	}
	if r.class == "warm" && r.tier == vliw.TierChecked {
		s.expStats[p.name] = rr.Stats
	}
	if want := s.expStats[p.name]; rr.Stats != want {
		return rr, fmt.Errorf("serve %s %s %s: Stats %+v differ from the checked run's %+v", r.class, p.name, r.tier, rr.Stats, want)
	}
	return rr, nil
}

// serveMetrics is the subset of GET /metrics the benchmark reports.
type serveMetrics struct {
	raw           []byte
	ArtifactCache struct{ Hits, Misses int64 } `json:"artifact_cache"`
	RunCache      struct{ Hits, Misses int64 } `json:"run_cache"`
	FlightJoins   int64                        `json:"flight_joins"`
	Saturated     int64                        `json:"saturated"`
}

func (s *serveW) metrics(ctx context.Context) (serveMetrics, error) {
	var m serveMetrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if m.raw, err = io.ReadAll(resp.Body); err != nil {
		return m, err
	}
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return m, json.Unmarshal(m.raw, &m)
}

// run drives the closed loop until d has passed, then finishes the pass in
// progress. A pass is roundsPerPass rounds; its time runs from the last
// reply of the previous pass (or of an earlier one, if that came later) to
// the last reply of its own.
func (s *serveW) run(ctx context.Context, d time.Duration, tr *tracer, ph *phase) error {
	m0, err := s.metrics(ctx)
	if err != nil {
		return err
	}
	perPass := (len(s.progs)*(2*hitsPerPair+1) + missesPerRound) * roundsPerPass
	start := time.Now()
	deadline := start.Add(d)
	var (
		mu     sync.Mutex
		reqs   []request
		issued int
		end    []time.Duration // completion time of each request, by index
		lat    = map[string][]float64{}
	)
	// next hands out the request sequence in order, one pass at a time,
	// stopping at the first pass boundary after the deadline.
	next := func() (int, request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if issued%perPass == 0 {
			if issued > 0 && !time.Now().Before(deadline) {
				return 0, request{}, false
			}
			for k := 0; k < roundsPerPass; k++ {
				for _, r := range s.round() {
					if r.class == "miss" {
						r.tag = s.missCount.Add(1)
					}
					reqs = append(reqs, r)
				}
			}
			end = append(end, make([]time.Duration, perPass)...)
		}
		issued++
		return issued - 1, reqs[issued-1], true
	}
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, r, ok := next()
				if !ok {
					return
				}
				t0 := time.Now()
				err := tr.do(int64(i), -1, "serve."+r.class, r.class, func() error {
					_, err := s.do(ctx, r)
					return err
				})
				t1 := time.Now()
				s.tally.check(err)
				mu.Lock()
				end[i] = t1.Sub(start)
				lat[r.class] = append(lat[r.class], millis(t1.Sub(t0)))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	var prev time.Duration
	for k := 0; k < len(end)/perPass; k++ {
		last := prev
		for _, e := range end[k*perPass : (k+1)*perPass] {
			last = max(last, e)
		}
		ph.pass = append(ph.pass, seconds(last-prev))
		prev = last
	}
	m1, err := s.metrics(ctx)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.cfg.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(s.cfg.out, "serve-metrics.json"), m1.raw, 0o644); err != nil {
		return err
	}
	if tr == nil {
		s.lat = lat
	} else {
		s.tlat, s.m0, s.m1 = lat, m0, m1
	}
	return nil
}

// fingerprints is empty: the server builds every serve program.
func (s *serveW) fingerprints() map[string][32]byte { return nil }

func (s *serveW) exact() (simBeats, codeWords int64) {
	// Per round: hitsPerPair hits at each of two tiers plus one rerun of
	// every repository program. Misses vary with the seed and are left out.
	for _, st := range s.expStats {
		simBeats += (2*hitsPerPair + 1) * st.Beats
	}
	return simBeats, s.words
}

func (s *serveW) rows(u *phase) []row {
	hit, miss, rerun := s.lat["hit"], s.lat["miss"], s.lat["rerun"]
	n := len(hit) + len(miss) + len(rerun)
	return []row{
		{"serve_req_per_s", float64(n) / u.elapsed.Seconds(), "req/s", n},
		{"serve_hit_p50_ms", median(hit), "ms", len(hit)},
		{"serve_hit_p99_ms", quantile(hit, 0.99), "ms", beyond(hit, 0.99)},
		{"serve_miss_p50_ms", median(miss), "ms", len(miss)},
		{"serve_miss_p90_ms", quantile(miss, 0.90), "ms", beyond(miss, 0.90)},
		{"serve_rerun_p50_ms", median(rerun), "ms", len(rerun)},
	}
}

func (s *serveW) layers(t *phase, lt layerTotals) map[string]float64 {
	np := float64(max(len(t.pass), 1))
	ah, am := s.m1.ArtifactCache.Hits-s.m0.ArtifactCache.Hits, s.m1.ArtifactCache.Misses-s.m0.ArtifactCache.Misses
	rh, rm := s.m1.RunCache.Hits-s.m0.RunCache.Hits, s.m1.RunCache.Misses-s.m0.RunCache.Misses
	return map[string]float64{
		"serve.artifact_hit_ratio": float64(ah) / float64(max(ah+am, 1)),
		"serve.run_hit_ratio":      float64(rh) / float64(max(rh+rm, 1)),
		"serve.flight_joins":       float64(s.m1.FlightJoins-s.m0.FlightJoins) / np,
		"serve.rejected":           float64(s.m1.Saturated-s.m0.Saturated) / np,
		"serve.rerun_p50_ms":       median(s.tlat["rerun"]),
	}
}
