// Command srvsmoke is the check.sh round-trip client for tracesrv: it
// compiles, runs, lints, and scrapes metrics against a running server and
// exits non-zero on any mismatch. It exists as a Go program (rather than
// curl in the script) so the smoke stage runs anywhere the toolchain does
// and can assert on response structure, not just status codes.
//
// Usage:
//
//	srvsmoke -addr host:port -src prog.mf
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"
)

func main() {
	addr := flag.String("addr", "", "server address (host:port)")
	srcPath := flag.String("src", "examples/fib.mf", "program to round-trip")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "srvsmoke: -addr required")
		os.Exit(2)
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fatal(err)
	}
	base := "http://" + *addr
	client := &http.Client{Timeout: 2 * time.Minute}

	// 1. Compile: fresh artifact.
	var comp struct {
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
		Instrs int    `json:"instrs"`
	}
	postJSON(client, base+"/compile", map[string]any{"source": string(src)}, &comp)
	if comp.Key == "" || comp.Instrs == 0 {
		fatal(fmt.Errorf("compile: implausible response %+v", comp))
	}

	// 2. Compile again: must be a cache hit on the same key.
	var comp2 struct {
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	postJSON(client, base+"/compile", map[string]any{"source": string(src)}, &comp2)
	if !comp2.Cached || comp2.Key != comp.Key {
		fatal(fmt.Errorf("second compile not a cache hit: %+v vs key %s", comp2, comp.Key))
	}

	// 3. Run twice on the native tier: second must be memoized and
	// identical.
	runReq := map[string]any{"source": string(src), "run": map[string]any{"tier": "native"}}
	type tierRun struct {
		CachedResult bool   `json:"cached_result"`
		Tier         string `json:"tier"`
		Exit         int32  `json:"exit"`
		Output       string `json:"output"`
		Stats        struct {
			Beats int64 `json:"beats"`
		} `json:"stats"`
	}
	var run1, run2 tierRun
	postJSON(client, base+"/run", runReq, &run1)
	if run1.Tier != "native" || run1.Stats.Beats == 0 {
		fatal(fmt.Errorf("run: implausible response %+v", run1))
	}
	postJSON(client, base+"/run", runReq, &run2)
	if !run2.CachedResult || run2.Exit != run1.Exit || run2.Output != run1.Output || run2.Stats.Beats != run1.Stats.Beats {
		fatal(fmt.Errorf("memoized run diverged: %+v vs %+v", run2, run1))
	}

	// 4. Run on the checked tier by name: the result must match the native
	// run exactly (certificates change how the image executes, never what
	// it computes). The retired "fast" and "safe" names are bad requests.
	var checked tierRun
	postJSON(client, base+"/run",
		map[string]any{"source": string(src), "run": map[string]any{"tier": "checked"}}, &checked)
	if checked.Tier != "checked" {
		fatal(fmt.Errorf("checked run not on the checked tier: %+v", checked))
	}
	if checked.Exit != run1.Exit || checked.Output != run1.Output || checked.Stats.Beats != run1.Stats.Beats {
		fatal(fmt.Errorf("checked tier diverged from native: %+v vs %+v", checked, run1))
	}
	for _, tier := range []string{"fast", "safe"} {
		raw, _ := json.Marshal(map[string]any{"source": string(src), "run": map[string]any{"tier": tier}})
		resp, err := client.Post(base+"/run", "application/json", bytes.NewReader(raw))
		if err != nil {
			fatal(err)
		}
		var body struct {
			Error struct {
				Kind string `json:"kind"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || body.Error.Kind != "bad_request" {
			fatal(fmt.Errorf("tier %q: want a 400 bad_request, got status %d, %+v", tier, resp.StatusCode, body))
		}
	}

	// 5. Lint: the example must verify clean.
	var lint struct {
		Clean  bool `json:"clean"`
		Errors int  `json:"errors"`
	}
	postJSON(client, base+"/lint", map[string]any{"source": string(src)}, &lint)
	if !lint.Clean || lint.Errors != 0 {
		fatal(fmt.Errorf("lint: example not clean: %+v", lint))
	}

	// 6. A compile error must come back 400 with a position.
	resp, err := client.Post(base+"/compile", "application/json",
		bytes.NewReader([]byte(`{"source": "func main() int { return nope }"}`)))
	if err != nil {
		fatal(err)
	}
	var errBody struct {
		Error struct {
			Kind string `json:"kind"`
			Pos  *struct {
				Line int `json:"line"`
			} `json:"pos"`
		} `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest ||
		errBody.Error.Kind != "compile" || errBody.Error.Pos == nil {
		fatal(fmt.Errorf("compile error not structured: status %d, %+v", resp.StatusCode, errBody))
	}

	// 7. Metrics must record what we did, including the tier breakdown.
	mresp, err := client.Get(base + "/metrics")
	if err != nil {
		fatal(err)
	}
	var metrics struct {
		ArtifactCache struct {
			Hits int64 `json:"hits"`
		} `json:"artifact_cache"`
		RunCache struct {
			Hits int64 `json:"hits"`
		} `json:"run_cache"`
		CertLevel map[string]int64 `json:"cert_level"`
	}
	err = json.NewDecoder(mresp.Body).Decode(&metrics)
	mresp.Body.Close()
	if err != nil {
		fatal(err)
	}
	if metrics.ArtifactCache.Hits == 0 || metrics.RunCache.Hits == 0 {
		fatal(fmt.Errorf("metrics did not record cache hits: %+v", metrics))
	}
	// cert_level counts runs per tier: exactly checked and native, both hit.
	cl := metrics.CertLevel
	if len(cl) != 2 || cl["checked"] == 0 || cl["native"] == 0 {
		fatal(fmt.Errorf("metrics did not record the run tiers as {checked, native}: %+v", cl))
	}

	fmt.Println("srvsmoke: ok (compile, cache hit, native run, memoized run, checked tier, retired tiers refused, lint, structured error, metrics)")
}

func postJSON(client *http.Client, url string, body any, out any) {
	raw, err := json.Marshal(body)
	if err != nil {
		fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		fatal(fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, buf.String()))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		fatal(fmt.Errorf("%s: %w", url, err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "srvsmoke:", err)
	os.Exit(1)
}
