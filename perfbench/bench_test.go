package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// shortRun runs a workload at its smallest length: one set-up, one
// untraced pass, and one traced pass.
func shortRun(t *testing.T, workload string, corrupt bool) *outcome {
	t.Helper()
	cfg := config{
		root: "..", workload: workload, seed: 7, seconds: 0.001,
		trace: true, out: t.TempDir(), corrupt: corrupt,
	}
	o, err := benchmark(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return o
}

// TestDeterministic runs every workload twice and requires the exact counts
// to agree: code_words, sim_beats, every image fingerprint, and the share
// of safety sites safecheck proves.
func TestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range []string{"cold", "hot", "serve"} {
		a, b := shortRun(t, w, false), shortRun(t, w, false)
		for _, o := range []*outcome{a, b} {
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%s: %d of %d operations failed", w, o.failed, o.attempted)
			}
		}
		for _, m := range []string{"code_words", "sim_beats"} {
			if a.e2e[m] != b.e2e[m] || a.e2e[m] == 0 {
				t.Errorf("%s: %s differs between runs or is zero: %v vs %v", w, m, a.e2e[m], b.e2e[m])
			}
		}
		if a.layers["safecheck.proven_ratio"] != b.layers["safecheck.proven_ratio"] {
			t.Errorf("%s: safecheck.proven_ratio %v vs %v", w, a.layers["safecheck.proven_ratio"], b.layers["safecheck.proven_ratio"])
		}
		if len(a.fingerprints) != len(b.fingerprints) {
			t.Errorf("%s: %d vs %d fingerprints", w, len(a.fingerprints), len(b.fingerprints))
		}
		for name, fp := range a.fingerprints {
			if b.fingerprints[name] != fp {
				t.Errorf("%s: %s image fingerprint differs between runs", w, name)
			}
		}
	}
}

// TestWrongReferenceFails corrupts every reference after set-up: each
// operation must then count as failed, and the result must not read as
// correct.
func TestWrongReferenceFails(t *testing.T) {
	o := shortRun(t, "serve", true)
	if o.attempted == 0 || o.failed != o.attempted {
		t.Fatalf("%d of %d operations failed, want all", o.failed, o.attempted)
	}
	line, err := o.resultLine()
	if err != nil {
		t.Fatal(err)
	}
	var res struct{ Correct bool }
	if err := json.Unmarshal(line, &res); err != nil || res.Correct {
		t.Fatalf("result line %s reads as correct (err %v)", line, err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(config{workload: w.Name}, &tally{log: io.Discard}); err != nil {
			t.Error(err)
		}
	}
}
