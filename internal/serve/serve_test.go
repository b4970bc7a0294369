package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// demoSrc is a small program every test compiles; distinct tests mutate a
// comment to get distinct cache keys.
const demoSrc = `
func add(a int, b int) int { return a + b }
func main() int {
	var s int = 0
	for (var i int = 0; i < 50; i = i + 1) { s = add(s, i) }
	print_i(s)
	return s
}
`

// slowSrc runs long enough (hundreds of thousands of beats) that a short
// deadline reliably expires mid-simulation.
const slowSrc = `
func main() int {
	var s int = 0
	for (var i int = 0; i < 2000000; i = i + 1) { s = s + (i & 7) }
	return s & 65535
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, hs
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return v
}

func TestCompileCacheMissThenHit(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})
	before := core.PipelineRuns()

	resp, raw := post(t, hs.URL+"/compile", CompileRequest{Source: demoSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first compile: status %d: %s", resp.StatusCode, raw)
	}
	first := decode[CompileResponse](t, raw)
	if first.Cached {
		t.Error("first compile reported cached=true")
	}
	if first.Key == "" || first.Instrs == 0 {
		t.Errorf("implausible response: %+v", first)
	}

	resp, raw = post(t, hs.URL+"/compile", CompileRequest{Source: demoSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second compile: status %d: %s", resp.StatusCode, raw)
	}
	second := decode[CompileResponse](t, raw)
	if !second.Cached {
		t.Error("second compile of identical source was not a cache hit")
	}
	if second.Key != first.Key {
		t.Errorf("key changed between identical compiles: %s vs %s", first.Key, second.Key)
	}
	if got := s.Metrics().ArtifactHits.Value(); got != 1 {
		t.Errorf("ArtifactHits = %d, want 1", got)
	}
	if ran := core.PipelineRuns() - before; ran != 1 {
		t.Errorf("pipeline executed %d times for two identical requests, want 1", ran)
	}
}

func TestKeySeparatesOptions(t *testing.T) {
	// Default options written explicitly must hash like omitted defaults;
	// semantically different options must not.
	base := Key(demoSrc, Options{})
	lvl2 := 2
	if got := Key(demoSrc, Options{Pairs: 4, OptLevel: &lvl2}); got != base {
		t.Error("explicit defaults produced a different key than omitted defaults")
	}
	if got := Key(demoSrc, Options{Pairs: 1}); got == base {
		t.Error("pairs=1 produced the same key as pairs=4")
	}
	lvl0 := 0
	if got := Key(demoSrc, Options{OptLevel: &lvl0}); got == base {
		t.Error("O=0 produced the same key as O=2")
	}
	if got := Key(demoSrc+" ", Options{}); got == base {
		t.Error("different source produced the same key")
	}
}

func TestConcurrentIdenticalCompilesCollapse(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	src := demoSrc + "// collapse\n"
	before := core.PipelineRuns()

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := json.Marshal(CompileRequest{Source: src})
			if err != nil {
				errs <- err.Error()
				return
			}
			resp, err := http.Post(hs.URL+"/compile", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// The acceptance criterion: N identical concurrent requests, exactly
	// one pipeline execution. The counter lives beneath every core entry
	// point, so neither the cache nor the flight group can fake it.
	if ran := core.PipelineRuns() - before; ran != 1 {
		t.Errorf("pipeline executed %d times for %d concurrent identical requests, want 1", ran, n)
	}
}

func TestRunResultMemoized(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	src := demoSrc + "// memo\n"
	req := RunRequest{Source: src, Run: RunRequestOptions{Tier: vliw.TierNative}}
	before := core.PipelineRuns()

	resp, raw := post(t, hs.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp.StatusCode, raw)
	}
	first := decode[RunResponse](t, raw)
	if first.CachedResult {
		t.Error("first run reported cached_result=true")
	}
	if first.Tier != vliw.TierNative {
		t.Errorf("native run took the %v tier", first.Tier)
	}

	resp, raw = post(t, hs.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d: %s", resp.StatusCode, raw)
	}
	second := decode[RunResponse](t, raw)
	if !second.CachedResult || !second.CachedBuild {
		t.Errorf("second identical run not served from cache: %+v", second)
	}
	if second.Exit != first.Exit || second.Output != first.Output || second.Stats != first.Stats {
		t.Errorf("memoized result differs from computed result:\n%+v\n%+v", first, second)
	}
	if ran := core.PipelineRuns() - before; ran != 1 {
		t.Errorf("pipeline executed %d times across both runs, want 1", ran)
	}

	// no_cache forces a re-execution but must produce identical results
	// (the simulator is deterministic — that is what justifies the memo).
	req.Run.NoCache = true
	resp, raw = post(t, hs.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no_cache run: status %d: %s", resp.StatusCode, raw)
	}
	third := decode[RunResponse](t, raw)
	if third.CachedResult {
		t.Error("no_cache run reported cached_result=true")
	}
	if third.Exit != first.Exit || third.Stats.Beats != first.Stats.Beats {
		t.Errorf("re-executed run diverged from memoized run: %+v vs %+v", third, first)
	}
}

// guardedSrc exercises every guard class the native tier can delete: array
// stores and loads behind provable loop bounds, plus a division by a
// nonzero constant.
const guardedSrc = `
var a [8]int
func main() int {
	var s int = 0
	for (var i int = 0; i < 8; i = i + 1) { a[i] = i * 3 }
	for (var i int = 0; i < 8; i = i + 1) { s = s + a[i] }
	return s / 3
}
`

// wantBadTier asserts a response is the structured 400 bad_request an
// unknown tier name earns, and that its message names the valid tiers.
func wantBadTier(t *testing.T, label string, resp *http.Response, raw []byte) {
	t.Helper()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%s: status %d, want 400: %s", label, resp.StatusCode, raw)
	}
	body := decode[map[string]ErrorBody](t, raw)
	e := body["error"]
	if e.Kind != "bad_request" || !strings.Contains(e.Msg, "checked") || !strings.Contains(e.Msg, "native") {
		t.Fatalf("%s: want a bad_request naming the valid tiers, got %+v", label, e)
	}
}

// TestRunSafeTier: the retired "fast" and "safe" tier names are structured
// bad_requests on /run — never a silent fallback to another tier — and no
// run is counted.
func TestRunSafeTier(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})
	for _, name := range []string{"fast", "safe"} {
		resp, raw := post(t, hs.URL+"/run", map[string]any{
			"source": guardedSrc, "run": map[string]any{"tier": name}})
		wantBadTier(t, name, resp, raw)
	}
	if got := s.Metrics().RunsCertChecked.Value() + s.Metrics().RunsCertNative.Value(); got != 0 {
		t.Errorf("rejected requests counted %d runs", got)
	}
}

// TestRunNativeTier: run.tier="native" selects the closure-threaded tier end
// to end — the response names the tier, the memo keys native apart from
// checked, an unknown tier is a structured bad_request, and /metrics counts
// each run under its cert_level.
func TestRunNativeTier(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})

	natReq := RunRequest{Source: guardedSrc, Run: RunRequestOptions{Tier: vliw.TierNative}}
	resp, raw := post(t, hs.URL+"/run", natReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("native run: status %d: %s", resp.StatusCode, raw)
	}
	native := decode[RunResponse](t, raw)
	if native.Tier != vliw.TierNative {
		t.Fatalf("native run not on the native tier: %+v", native)
	}

	// The checked run of the same source must not be served from the
	// native run's memo entry (distinct runKey) and must agree bit-for-bit.
	resp, raw = post(t, hs.URL+"/run", RunRequest{Source: guardedSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checked run: status %d: %s", resp.StatusCode, raw)
	}
	checked := decode[RunResponse](t, raw)
	if checked.CachedResult {
		t.Error("checked run hit the native run's memo entry (runKey ignores the tier)")
	}
	if checked.Tier != vliw.TierChecked {
		t.Errorf("checked run tier = %v", checked.Tier)
	}
	if native.Exit != checked.Exit || native.Output != checked.Output || native.Stats != checked.Stats {
		t.Errorf("tiers disagree:\n native:  %+v\n checked: %+v", native, checked)
	}

	// A repeat native request is a memo hit and keeps its tier name.
	resp, raw = post(t, hs.URL+"/run", natReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached native run: status %d: %s", resp.StatusCode, raw)
	}
	cached := decode[RunResponse](t, raw)
	if !cached.CachedResult || cached.Tier != vliw.TierNative {
		t.Errorf("cached native run lost its tier: %+v", cached)
	}

	resp, raw = post(t, hs.URL+"/run", map[string]any{
		"source": guardedSrc, "run": map[string]any{"tier": "turbo"}})
	wantBadTier(t, "unknown tier", resp, raw)

	if got := s.Metrics().RunsCertNative.Value(); got != 2 {
		t.Errorf("RunsCertNative = %d, want 2", got)
	}
	if got := s.Metrics().RunsCertChecked.Value(); got != 1 {
		t.Errorf("RunsCertChecked = %d, want 1", got)
	}
}

// TestRunManySafeTier: the batch endpoint rejects the retired "fast" and
// "safe" tier names as structured bad_requests, and puts every tenant on
// the native tier under both tenancies with results identical to checked
// ones.
func TestRunManySafeTier(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})

	for _, name := range []string{"fast", "safe"} {
		resp, raw := post(t, hs.URL+"/runmany", map[string]any{
			"programs": []map[string]string{{"source": tenantSrcs[0]}},
			"run":      map[string]any{"tier": name}})
		wantBadTier(t, name, resp, raw)
	}

	for _, tenancy := range []string{"contexts", "machines"} {
		raw := mustPostOK(t, hs.URL+"/runmany", runManyReq(tenancy, vliw.TierNative))
		batch := decode[RunManyResponse](t, raw)
		checked := decode[RunManyResponse](t, mustPostOK(t, hs.URL+"/runmany", runManyReq(tenancy, vliw.TierChecked)))
		for i, r := range batch.Results {
			if r.Error != "" {
				t.Fatalf("%s tenant %d: %s", tenancy, i, r.Error)
			}
			if r.Tier != vliw.TierNative {
				t.Errorf("%s tenant %d not on the native tier: %+v", tenancy, i, r)
			}
			c := checked.Results[i]
			if r.Exit != c.Exit || r.Output != c.Output || r.Stats != c.Stats {
				t.Errorf("%s tenant %d diverges from checked:\n native:  %+v\n checked: %+v", tenancy, i, r, c)
			}
		}
	}
}

func mustPostOK(t *testing.T, url string, body any) []byte {
	t.Helper()
	resp, raw := post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

func TestRunDeadlineReturns504AndMachineToPool(t *testing.T) {
	// SnapshotBytes < 0 disables checkpointing: the deadline maps straight
	// to 504 (the default configuration instead answers 202 + resume token;
	// snapshot_test.go covers that path).
	s, hs := newTestServer(t, Config{Parallelism: 1, RunTimeout: 30 * time.Millisecond, SnapshotBytes: -1})

	resp, raw := post(t, hs.URL+"/run", RunRequest{
		Source: slowSrc,
		Run:    RunRequestOptions{NoCache: true},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, raw)
	}
	body := decode[map[string]ErrorBody](t, raw)
	if body["error"].Kind != "timeout" {
		t.Errorf("error kind = %q, want timeout; body %s", body["error"].Kind, raw)
	}
	if got := s.Metrics().MachinesInUse.Value(); got != 0 {
		t.Errorf("MachinesInUse = %d after timed-out run, want 0 (machine leaked)", got)
	}
	if got := s.Metrics().Timeouts.Value(); got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}
}

func TestCompileErrorIsStructured(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})
	resp, raw := post(t, hs.URL+"/compile", CompileRequest{
		Source: "func main() int {\n\treturn undefined_variable\n}",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, raw)
	}
	body := decode[map[string]ErrorBody](t, raw)
	e := body["error"]
	if e.Kind != "compile" {
		t.Errorf("kind = %q, want compile", e.Kind)
	}
	if e.Pos == nil {
		t.Fatalf("no position on compile diagnostic: %s", raw)
	}
	if e.Pos.Line != 2 || e.Pos.Col == 0 {
		t.Errorf("position = %+v, want line 2 with a column", e.Pos)
	}
	if !strings.Contains(e.Msg, "undefined") {
		t.Errorf("msg = %q, want mention of the undefined identifier", e.Msg)
	}
	if got := s.Metrics().CompileErrors.Value(); got != 1 {
		t.Errorf("CompileErrors = %d, want 1", got)
	}
}

func TestSaturationReturns429(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1, MaxInflight: 1, RunTimeout: 5 * time.Second})

	// Occupy the single admission slot with a genuinely slow run.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		raw, _ := json.Marshal(RunRequest{Source: slowSrc, Run: RunRequestOptions{NoCache: true}})
		resp, err := http.Post(hs.URL+"/run", "application/json", bytes.NewReader(raw))
		if err == nil {
			resp.Body.Close()
		}
		close(release)
	}()
	<-started
	// Wait for the slow request to be admitted.
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics().InFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, raw := post(t, hs.URL+"/compile", CompileRequest{Source: demoSrc})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, raw)
	}
	body := decode[map[string]ErrorBody](t, raw)
	if body["error"].Kind != "saturated" {
		t.Errorf("error kind = %q, want saturated", body["error"].Kind)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}
	if got := s.Metrics().Saturated.Value(); got == 0 {
		t.Error("Saturated counter not incremented")
	}
	if got := s.Metrics().Compile.Rejected.Value(); got == 0 {
		t.Error("per-endpoint Rejected counter not incremented for /compile")
	}
	if got := s.Metrics().Run.Rejected.Value(); got != 0 {
		t.Errorf("/run rejected %d requests; the rejection was on /compile", got)
	}
	// GET /metrics must stay reachable while the server is saturated —
	// that is the whole point of exempting it from admission.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status = %d under saturation, want 200", mresp.StatusCode)
	}
	<-release
	wg.Wait()
}

func TestLintEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	resp, raw := post(t, hs.URL+"/lint", CompileRequest{Source: demoSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	rep := decode[LintResponse](t, raw)
	if !rep.Clean || rep.Errors != 0 {
		t.Errorf("demo program should lint clean: %+v", rep)
	}
	if rep.Words == 0 || rep.Reachable == 0 {
		t.Errorf("lint response missing image shape: %+v", rep)
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1, MaxSourceBytes: 128})

	resp, _ := post(t, hs.URL+"/compile", CompileRequest{Source: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty source: status %d, want 400", resp.StatusCode)
	}

	resp, _ = post(t, hs.URL+"/compile", CompileRequest{Source: strings.Repeat("x", 200)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized source: status %d, want 413", resp.StatusCode)
	}

	r, err := http.Post(hs.URL+"/compile", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", r.StatusCode)
	}

	r, err = http.Get(hs.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: status %d, want 405", r.StatusCode)
	}

	badPairs := CompileRequest{Source: "func main() int { return 0 }"}
	badPairs.Options.Pairs = 3
	resp, _ = post(t, hs.URL+"/compile", badPairs)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("pairs=3: status %d, want 400", resp.StatusCode)
	}
}

func TestArtifactCacheEviction(t *testing.T) {
	// A budget big enough for roughly one artifact forces eviction on the
	// second distinct compile.
	s, hs := newTestServer(t, Config{Parallelism: 1, CacheBytes: 8 << 10})
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("%s// v%d\n", demoSrc, i)
		resp, raw := post(t, hs.URL+"/compile", CompileRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if got := s.Metrics().ArtifactEvictions.Value(); got == 0 {
		t.Error("no evictions after compiling 3 distinct programs into an ~1-artifact budget")
	}
	if got := s.Metrics().ArtifactEntries.Value(); got < 1 {
		t.Errorf("ArtifactEntries = %d, want >= 1", got)
	}
}

func TestMetricsEndpointShape(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	post(t, hs.URL+"/compile", CompileRequest{Source: demoSrc})
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"artifact_cache", "run_cache", "endpoints", "in_flight", "machines_in_use", "cert_level"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("metrics snapshot missing %q", k)
		}
	}
}
