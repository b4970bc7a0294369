package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"time"

	"github.com/multiflow-repro/trace/internal/vliw"
)

// histBuckets are the latency histogram bucket upper bounds. They are
// log-scale: request latencies span five orders of magnitude between a
// cache-hit run (microseconds) and a cold compile of an unrolled kernel
// (hundreds of milliseconds), so linear buckets would waste all their
// resolution on one end.
const numHistBuckets = 6

var histBuckets = [numHistBuckets]time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// histogram is a fixed-bucket latency histogram built from expvar counters,
// so it is safe for concurrent observation and renders directly into the
// /metrics snapshot.
type histogram struct {
	count   expvar.Int
	sumNs   expvar.Int
	buckets [numHistBuckets + 1]expvar.Int // last bucket = overflow
}

func (h *histogram) observe(d time.Duration) {
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	for i, ub := range histBuckets {
		if d <= ub {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[numHistBuckets].Add(1)
}

// snapshot renders the histogram as a JSON-able map: cumulative bucket
// counts keyed by upper bound, plus count and mean.
func (h *histogram) snapshot() map[string]any {
	out := map[string]any{"count": h.count.Value()}
	if n := h.count.Value(); n > 0 {
		out["mean_ms"] = float64(h.sumNs.Value()) / float64(n) / 1e6
	}
	b := map[string]int64{}
	var cum int64
	for i, ub := range histBuckets {
		cum += h.buckets[i].Value()
		b["le_"+ub.String()] = cum
	}
	cum += h.buckets[numHistBuckets].Value()
	b["le_inf"] = cum
	out["buckets"] = b
	return out
}

// Metrics is the server's observable state. Every variable is an expvar so
// concurrent handlers update it without locks; the set is held per-Server
// (not published to the process-global expvar namespace, which would panic
// on duplicate names when tests build several servers) and rendered by the
// /metrics handler. Command tracesrv additionally publishes the snapshot
// globally under "tracesrv" for /debug/vars interop.
type Metrics struct {
	// Artifact cache.
	ArtifactHits      expvar.Int
	ArtifactMisses    expvar.Int
	ArtifactEvictions expvar.Int
	ArtifactBytes     expvar.Int
	ArtifactEntries   expvar.Int
	// Compilations collapsed into an in-flight duplicate instead of
	// compiled again.
	FlightJoins expvar.Int
	// Deterministic run-result cache.
	RunHits   expvar.Int
	RunMisses expvar.Int
	// Admission control and lifecycle.
	InFlight      expvar.Int // requests currently admitted
	Saturated     expvar.Int // requests rejected with 429
	Timeouts      expvar.Int // requests that hit their deadline (504)
	CompileErrors expvar.Int // requests rejected with a diagnostic (400)
	// Machine pool.
	MachinesInUse expvar.Int // machines currently executing a request
	// Completed runs by the execution tier actually taken (cached results
	// included): "checked" ran fully dynamically verified, "native" ran the
	// closure-threaded translation under a safety certificate.
	RunsCertChecked expvar.Int
	RunsCertNative  expvar.Int
	// Resume-snapshot store (deadline-paused runs awaiting /resume).
	SnapshotsStored    expvar.Int // checkpoints issued (202 responses)
	SnapshotsResumed   expvar.Int // checkpoints resumed to completion
	SnapshotsRecovered expvar.Int // checkpoints re-indexed from disk at boot
	SnapshotEvictions  expvar.Int // RAM evictions (disk copies survive)
	SnapshotBytes      expvar.Int
	SnapshotEntries    expvar.Int

	// Per-endpoint request counts and latency histograms.
	Compile, Run, RunMany, Resume, Lint endpointMetrics
}

type endpointMetrics struct {
	Requests expvar.Int
	// Rejected counts this endpoint's admission-control rejections (429).
	// Saturated is the cross-endpoint total; the per-endpoint split tells
	// an operator which traffic class is being shed.
	Rejected expvar.Int
	Latency  histogram
}

// countRunTier buckets one completed run (solo or per-tenant) by the
// execution tier it took. The tier comes from the result, not the request:
// a request that fell back (it cannot today — tier selection errors the run
// instead) would be counted at the tier it took.
func (m *Metrics) countRunTier(tier vliw.Tier) {
	if tier == vliw.TierNative {
		m.RunsCertNative.Add(1)
	} else {
		m.RunsCertChecked.Add(1)
	}
}

func (e *endpointMetrics) snapshot() map[string]any {
	return map[string]any{
		"requests": e.Requests.Value(),
		"rejected": e.Rejected.Value(),
		"latency":  e.Latency.snapshot(),
	}
}

// Snapshot renders every metric as one JSON-able tree.
func (m *Metrics) Snapshot() map[string]any {
	return map[string]any{
		"artifact_cache": map[string]any{
			"hits":      m.ArtifactHits.Value(),
			"misses":    m.ArtifactMisses.Value(),
			"evictions": m.ArtifactEvictions.Value(),
			"bytes":     m.ArtifactBytes.Value(),
			"entries":   m.ArtifactEntries.Value(),
		},
		"flight_joins": m.FlightJoins.Value(),
		"run_cache": map[string]any{
			"hits":   m.RunHits.Value(),
			"misses": m.RunMisses.Value(),
		},
		"in_flight":       m.InFlight.Value(),
		"saturated":       m.Saturated.Value(),
		"timeouts":        m.Timeouts.Value(),
		"compile_errors":  m.CompileErrors.Value(),
		"machines_in_use": m.MachinesInUse.Value(),
		"cert_level": map[string]int64{
			"checked": m.RunsCertChecked.Value(),
			"native":  m.RunsCertNative.Value(),
		},
		"snapshots": map[string]any{
			"stored":    m.SnapshotsStored.Value(),
			"resumed":   m.SnapshotsResumed.Value(),
			"recovered": m.SnapshotsRecovered.Value(),
			"evictions": m.SnapshotEvictions.Value(),
			"bytes":     m.SnapshotBytes.Value(),
			"entries":   m.SnapshotEntries.Value(),
		},
		"endpoints": map[string]any{
			"compile": m.Compile.snapshot(),
			"run":     m.Run.snapshot(),
			"runmany": m.RunMany.snapshot(),
			"resume":  m.Resume.snapshot(),
			"lint":    m.Lint.snapshot(),
		},
	}
}

func (m *Metrics) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.Snapshot()); err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	}
}
