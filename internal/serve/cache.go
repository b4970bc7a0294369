package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// Key addresses a compilation by content: SHA-256 over the canonicalized
// semantic options and the source text. Two requests with the same key are
// the same compilation by construction — the compiler is deterministic at
// every Parallelism setting (cross-checked continuously by the fuzz
// oracle), so the key never needs to mention who asked or how many backend
// workers built it.
func Key(src string, o Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s", o.canonical(), src)
	return hex.EncodeToString(h.Sum(nil))
}

// artifactEntry is one cached compilation with its byte cost.
type artifactEntry struct {
	key  string
	art  *core.Artifact
	cost int64
}

// artifactCache is a byte-budgeted LRU of compiled artifacts. Artifacts are
// immutable (see core.Artifact), so a cached entry is handed to concurrent
// requests without copying; only the recency list and the map need the
// lock.
type artifactCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // of *artifactEntry, front = most recent
	byKey  map[string]*list.Element
	m      *Metrics
}

func newArtifactCache(budget int64, m *Metrics) *artifactCache {
	return &artifactCache{budget: budget, lru: list.New(), byKey: map[string]*list.Element{}, m: m}
}

// get returns the cached artifact and marks it most recently used.
func (c *artifactCache) get(key string) (*core.Artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.m.ArtifactMisses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.m.ArtifactHits.Add(1)
	return el.Value.(*artifactEntry).art, true
}

// add inserts the artifact and evicts least-recently-used entries until the
// budget holds. An artifact larger than the whole budget is still cached
// alone (the alternative — recompiling it on every request — is strictly
// worse); it will be evicted by the next insertion.
func (c *artifactCache) add(key string, art *core.Artifact) {
	cost := artifactCost(key, art)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// A racing compile of the same key finished first; keep its entry.
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&artifactEntry{key: key, art: art, cost: cost})
	c.byKey[key] = el
	c.used += cost
	c.m.ArtifactBytes.Set(c.used)
	c.m.ArtifactEntries.Set(int64(c.lru.Len()))
	for c.used > c.budget && c.lru.Len() > 1 {
		oldest := c.lru.Back()
		ent := oldest.Value.(*artifactEntry)
		c.lru.Remove(oldest)
		delete(c.byKey, ent.key)
		c.used -= ent.cost
		c.m.ArtifactEvictions.Add(1)
	}
	c.m.ArtifactBytes.Set(c.used)
	c.m.ArtifactEntries.Set(int64(c.lru.Len()))
}

// artifactCost estimates an artifact's resident size. The dominant terms
// are the linked instruction words and the retained IR (both sides of the
// differential oracle); the constant per-op factor is a measured
// approximation, not an accounting guarantee — the budget bounds the cache
// to the right order of magnitude.
func artifactCost(key string, art *core.Artifact) int64 {
	res := art.Result()
	fixed, _, ops := res.Image.CodeSizes()
	return int64(len(key)) + fixed + 96*int64(ops) + 256
}

// runKey addresses a deterministic execution: the artifact key plus every
// semantic run option — the tier name, so each tier memoizes separately
// (their results must be identical, but the key keeps the caches honest
// instead of assuming it). The simulator is a
// deterministic function of the image (no wall clock, no randomness —
// performance counters included), so one completed run answers every later
// identical request.
func runKey(artKey string, tier vliw.Tier, maxCycles int64) string {
	return fmt.Sprintf("%s/tier=%s/max=%d", artKey, tier, maxCycles)
}

// runCache memoizes completed run results, bounded by entry count (results
// are small: an exit code, captured output, and a Stats struct).
type runCache struct {
	mu    sync.Mutex
	limit int
	lru   *list.List // of runEntry
	byKey map[string]*list.Element
	m     *Metrics
}

type runEntry struct {
	key string
	res core.ExitResult
}

func newRunCache(limit int, m *Metrics) *runCache {
	return &runCache{limit: limit, lru: list.New(), byKey: map[string]*list.Element{}, m: m}
}

func (c *runCache) get(key string) (core.ExitResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.m.RunMisses.Add(1)
		return core.ExitResult{}, false
	}
	c.lru.MoveToFront(el)
	c.m.RunHits.Add(1)
	return el.Value.(*runEntry).res, true
}

func (c *runCache) add(key string, res core.ExitResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[key]; ok {
		return
	}
	c.byKey[key] = c.lru.PushFront(&runEntry{key: key, res: res})
	for c.lru.Len() > c.limit {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*runEntry).key)
	}
}
