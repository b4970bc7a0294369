package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// snapMeta is everything needed to resume a paused run besides the snapshot
// itself. The source and options re-derive the artifact through the normal
// content-addressed compile path if the cache evicted it — the compiler is
// deterministic, so the rebuilt image carries the same fingerprint the
// snapshot was bound to and vliw.Context.Restore accepts it.
type snapMeta struct {
	ArtKey  string  `json:"art_key"`
	Source  string  `json:"source"`
	Options Options `json:"options"`
	Beats   int64   `json:"beats"`
}

type snapEntry struct {
	tok  string
	meta snapMeta
	snap []byte
	cost int64
}

// snapshotStore holds resume snapshots for deadline-paused runs: a
// byte-budgeted in-RAM LRU, optionally backed by a spill directory. Tokens
// are content addresses (SHA-256 of the snapshot bytes), so a stored file is
// self-validating: the boot-time recovery scan and every disk read recompute
// the hash and discard anything corrupt — which is what makes the disk tier
// safe to trust after a SIGKILL mid-write (the atomic write+rename below
// means a crash leaves either the complete file or none).
type snapshotStore struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // of *snapEntry, front = most recent
	byTok  map[string]*list.Element
	dir    string // "" = RAM only
	m      *Metrics
}

// newSnapshotStore builds the store; a negative budget disables
// checkpointing entirely and returns nil. With a spill directory it runs the
// crash-recovery scan: leftover temp files are dropped, valid snapshots are
// re-indexed (so a restarted server keeps honoring tokens it issued before
// being killed), and corrupt ones are deleted.
func newSnapshotStore(budget int64, dir string, m *Metrics) *snapshotStore {
	if budget < 0 {
		return nil
	}
	s := &snapshotStore{
		budget: budget,
		lru:    list.New(),
		byTok:  map[string]*list.Element{},
		dir:    dir,
		m:      m,
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			s.dir = "" // unusable spill dir degrades to RAM-only
		} else {
			s.recoverDisk()
		}
	}
	return s
}

// put stores a snapshot and returns its resume token. The disk copy (when
// spilling is on) is written before RAM eviction runs, so even a snapshot
// evicted immediately by the byte budget stays resumable from disk.
func (s *snapshotStore) put(meta snapMeta, snap []byte) string {
	sum := sha256.Sum256(snap)
	tok := hex.EncodeToString(sum[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byTok[tok]; ok {
		s.lru.MoveToFront(el)
		return tok
	}
	if s.dir != "" {
		s.writeDisk(tok, meta, snap)
	}
	s.insert(&snapEntry{tok: tok, meta: meta, snap: snap,
		cost: int64(len(snap)) + int64(len(meta.Source)) + 256})
	s.m.SnapshotsStored.Add(1)
	return tok
}

// insert adds the entry and evicts past the budget (RAM only — disk copies
// survive eviction and back the token until remove). Caller holds the lock.
func (s *snapshotStore) insert(e *snapEntry) {
	s.byTok[e.tok] = s.lru.PushFront(e)
	s.used += e.cost
	for s.used > s.budget && s.lru.Len() > 1 {
		oldest := s.lru.Back()
		ent := oldest.Value.(*snapEntry)
		s.lru.Remove(oldest)
		delete(s.byTok, ent.tok)
		s.used -= ent.cost
		s.m.SnapshotEvictions.Add(1)
	}
	s.m.SnapshotBytes.Set(s.used)
	s.m.SnapshotEntries.Set(int64(s.lru.Len()))
}

// get resolves a token: RAM first, then the spill directory. A disk hit is
// validated (hash over the snapshot bytes must equal the token) before use.
func (s *snapshotStore) get(tok string) (snapMeta, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byTok[tok]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*snapEntry)
		return e.meta, e.snap, true
	}
	if s.dir == "" {
		return snapMeta{}, nil, false
	}
	meta, snap, err := readSnapFile(s.snapPath(tok), tok)
	if err != nil {
		return snapMeta{}, nil, false
	}
	return meta, snap, true
}

// remove retires a token after its run completes, freeing RAM and disk.
func (s *snapshotStore) remove(tok string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byTok[tok]; ok {
		e := el.Value.(*snapEntry)
		s.lru.Remove(el)
		delete(s.byTok, tok)
		s.used -= e.cost
		s.m.SnapshotBytes.Set(s.used)
		s.m.SnapshotEntries.Set(int64(s.lru.Len()))
	}
	if s.dir != "" {
		os.Remove(s.snapPath(tok))
	}
}

func (s *snapshotStore) snapPath(tok string) string {
	return filepath.Join(s.dir, tok+".snap")
}

// writeDisk spills one snapshot: u32 meta length, meta JSON, snapshot bytes,
// written to a temp file and renamed into place so a crash at any point
// leaves no partially-written .snap file. Caller holds the lock.
func (s *snapshotStore) writeDisk(tok string, meta snapMeta, snap []byte) {
	mj, err := json.Marshal(meta)
	if err != nil {
		return
	}
	buf := make([]byte, 4, 4+len(mj)+len(snap))
	binary.LittleEndian.PutUint32(buf, uint32(len(mj)))
	buf = append(buf, mj...)
	buf = append(buf, snap...)
	tmp := s.snapPath(tok) + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, s.snapPath(tok)); err != nil {
		os.Remove(tmp)
	}
}

// readSnapFile loads and validates one spilled snapshot; tok is the expected
// content address.
func readSnapFile(path, tok string) (snapMeta, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapMeta{}, nil, err
	}
	if len(data) < 4 {
		return snapMeta{}, nil, errors.New("truncated snapshot file")
	}
	ml := binary.LittleEndian.Uint32(data)
	if int64(ml) > int64(len(data))-4 {
		return snapMeta{}, nil, errors.New("truncated snapshot file")
	}
	var meta snapMeta
	if err := json.Unmarshal(data[4:4+ml], &meta); err != nil {
		return snapMeta{}, nil, fmt.Errorf("snapshot metadata: %w", err)
	}
	snap := data[4+ml:]
	sum := sha256.Sum256(snap)
	if hex.EncodeToString(sum[:]) != tok {
		return snapMeta{}, nil, errors.New("snapshot bytes do not match their token")
	}
	return meta, snap, nil
}

// recoverDisk is the boot-time crash-recovery scan over the spill directory.
func (s *snapshotStore) recoverDisk() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			// An interrupted spill; the rename never happened.
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		tok, ok := strings.CutSuffix(name, ".snap")
		if !ok || len(tok) != 64 {
			continue
		}
		meta, snap, err := readSnapFile(filepath.Join(s.dir, name), tok)
		if err != nil {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		s.insert(&snapEntry{tok: tok, meta: meta, snap: snap,
			cost: int64(len(snap)) + int64(len(meta.Source)) + 256})
		s.m.SnapshotsRecovered.Add(1)
	}
}

// PausedResponse is the 202 body for a run that hit the server's deadline
// and was checkpointed instead of discarded. POST /resume with the token
// continues it under a fresh deadline.
type PausedResponse struct {
	Key         string `json:"key"`
	Paused      bool   `json:"paused"`
	ResumeToken string `json:"resume_token"`
	// Beats is the checkpointed context's virtual clock — how far the run
	// got; it grows monotonically across successive pauses of the same run.
	Beats  int64  `json:"beats"`
	Reason string `json:"reason"`
}

// ResumeRequest is the body of POST /resume.
type ResumeRequest struct {
	Token string            `json:"token"`
	Run   RunRequestOptions `json:"run"`
}

// maybePause intercepts a run that exceeded the server's deadline when a
// resume snapshot was captured: it stores the snapshot and answers 202 with
// the token. Returns whether it handled the response. Client disconnects
// (r.Context done) are not paused — nobody is reading the token.
func (s *Server) maybePause(w http.ResponseWriter, r *http.Request, meta snapMeta, out core.ExitResult, err error) bool {
	if s.snapshots == nil || out.Snapshot == nil {
		return false
	}
	if !errors.Is(err, context.DeadlineExceeded) || r.Context().Err() != nil {
		return false
	}
	meta.Beats = out.Stats.Beats
	tok := s.snapshots.put(meta, out.Snapshot)
	writeJSON(w, http.StatusAccepted, PausedResponse{
		Key: meta.ArtKey, Paused: true, ResumeToken: tok,
		Beats: out.Stats.Beats, Reason: "timeout",
	})
	return true
}

// handleResume serves POST /resume: the checkpointed run continues under a
// fresh run deadline, on a pooled machine, against the artifact re-resolved
// through the normal compile cache (a cache eviction just means one
// deterministic recompile). A resume that times out again re-checkpoints and
// answers another 202, so arbitrarily long programs complete in deadline-
// sized installments.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Resume.Requests.Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, ErrorBody{Kind: "bad_request", Msg: "use POST"})
		return
	}
	if s.snapshots == nil {
		writeError(w, http.StatusNotFound, ErrorBody{
			Kind: "bad_request", Msg: "checkpointing is disabled on this server"})
		return
	}
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	raw, err := io.ReadAll(body)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{
			Kind: "bad_request", Msg: "request body too large"})
		return
	}
	var req ResumeRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{
			Kind: "bad_request", Msg: "malformed JSON: " + err.Error()})
		return
	}
	if req.Token == "" {
		writeError(w, http.StatusBadRequest, ErrorBody{Kind: "bad_request", Msg: "empty token"})
		return
	}
	release, ok := s.admitRequest(w, &s.metrics.Resume)
	if !ok {
		return
	}
	defer release()

	meta, snap, ok := s.snapshots.get(req.Token)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorBody{
			Kind: "not_found", Msg: "unknown or expired resume token"})
		return
	}

	cctx, cancelCompile := context.WithTimeout(r.Context(), s.cfg.CompileTimeout)
	art, cachedBuild, _, err := s.artifact(cctx, meta.ArtKey, meta.Source, meta.Options)
	cancelCompile()
	if err != nil {
		s.writeCompileError(w, err)
		return
	}

	rctx, cancelRun := context.WithTimeout(r.Context(), s.cfg.RunTimeout)
	out, err := s.resumeArtifact(rctx, art, snap, req.Run.Tier, req.Run.MaxCycles)
	cancelRun()
	if err != nil {
		if s.maybePause(w, r, meta, out, err) {
			s.metrics.Resume.Latency.observe(time.Since(start))
			return
		}
		s.writeRunError(w, err)
		return
	}
	s.snapshots.remove(req.Token)
	s.metrics.SnapshotsResumed.Add(1)
	s.metrics.Resume.Latency.observe(time.Since(start))
	s.metrics.countRunTier(out.Tier)
	writeJSON(w, http.StatusOK, RunResponse{
		Key: meta.ArtKey, CachedBuild: cachedBuild,
		Tier: out.Tier,
		Exit: out.Exit, Output: out.Output,
		Stats: wireStats(out.Stats),
	})
}

// resumeArtifact is runArtifact for a restored execution.
func (s *Server) resumeArtifact(ctx context.Context, art *core.Artifact, snap []byte, tier vliw.Tier, maxCycles int64) (core.ExitResult, error) {
	m := s.machines.Get().(*vliw.Machine)
	s.metrics.MachinesInUse.Add(1)
	defer func() {
		s.metrics.MachinesInUse.Add(-1)
		s.machines.Put(m)
	}()
	return art.RunFromOn(ctx, m, snap, core.RunOptions{
		Tier: tier, MaxCycles: maxCycles, SnapshotOnInterrupt: true})
}

// StartDrain flips the server to draining: /readyz starts answering 503 so
// load balancers stop routing new work here, while requests already in
// flight (and direct probes of the other endpoints) proceed normally.
// cmd/tracesrv calls it on SIGTERM before http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// handleHealthz is the liveness probe: the process is up and serving.
// Like /metrics, it bypasses admission control — a saturated server is
// still alive, and shooting it for being busy would only shed the load
// onto its neighbors.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"status":"ok"}`+"\n")
}

// handleReadyz is the readiness probe: 200 while accepting new work, 503
// once draining. Also admission-exempt.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"status":"draining"}`+"\n")
		return
	}
	io.WriteString(w, `{"status":"ready"}`+"\n")
}
