package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one program copy or request share
// a group ID; parent is the index of the enclosing span, or -1.
type span struct {
	name   string
	class  string
	group  int64
	parent int
	start  time.Duration // since the tracer's epoch
	end    time.Duration
	alloc  uint64 // bytes allocated during the span (alloc-measuring tracers only)
}

// tracer keeps spans in memory until the run ends. With allocs set, each
// span also records the process-wide allocation delta across it, which is
// meaningful only when a single caller drives the layers (cold).
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	allocs bool
}

func newTracer(allocs bool) *tracer {
	return &tracer{epoch: time.Now(), allocs: allocs}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// do runs fn inside a span. A nil tracer just runs fn, so untraced code
// paths share the traced ones.
func (t *tracer) do(group int64, parent int, name, class string, fn func() error) error {
	if t == nil {
		return fn()
	}
	var a0 uint64
	if t.allocs {
		a0 = totalAlloc()
	}
	start := time.Since(t.epoch)
	err := fn()
	end := time.Since(t.epoch)
	var alloc uint64
	if t.allocs {
		alloc = totalAlloc() - a0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, class: class, group: group, parent: parent, start: start, end: end, alloc: alloc})
	return err
}

// open starts a span whose end is recorded later by close; used for the
// root span of a program copy, whose children are recorded first.
func (t *tracer) open(group int64, name, class string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, class: class, group: group, parent: -1, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = end
}

// layerTotals is the per-span-name aggregate of a trace.
type layerTotals struct {
	self  map[string]time.Duration
	alloc map[string]uint64
	count map[string]int
}

// totals computes every span's self time — its duration minus the part of
// it that its child spans cover — and sums self time, allocation, and
// count by span name.
func (t *tracer) totals() layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	lt := layerTotals{self: map[string]time.Duration{}, alloc: map[string]uint64{}, count: map[string]int{}}
	for i, s := range t.spans {
		covered := covered(t.spans, kids[i])
		lt.self[s.name] += s.end - s.start - covered
		alloc := s.alloc
		for _, k := range kids[i] {
			alloc -= min(alloc, t.spans[k].alloc)
		}
		lt.alloc[s.name] += alloc
		lt.count[s.name]++
	}
	return lt
}

// covered returns the length of the union of the child spans' intervals.
func covered(spans []span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]time.Duration{spans[k].start, spans[k].end})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curS, curE time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeChrome writes the spans in Chrome trace-event JSON, which Perfetto
// and chrome://tracing open directly: one complete ("X") event per span,
// one track per group.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.parent, "group": s.group, "class": s.class}
		if t.allocs {
			args["alloc_bytes"] = s.alloc
		}
		evs = append(evs, event{
			Name: s.name, Cat: s.class, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.group, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// selfTable renders the per-layer self-time table, per pass.
func (lt layerTotals) selfTable(passes int) string {
	names := make([]string, 0, len(lt.self))
	for n := range lt.self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return lt.self[names[a]] > lt.self[names[b]] })
	var total time.Duration
	for _, n := range names {
		total += lt.self[n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %7s %8s %10s\n", "span", "self s/pass", "share", "calls", "alloc MiB")
	for _, n := range names {
		p := float64(max(passes, 1))
		share := 0.0
		if total > 0 {
			share = float64(lt.self[n]) / float64(total)
		}
		fmt.Fprintf(&b, "%-20s %12.6f %6.1f%% %8.1f %10.2f\n", n, lt.self[n].Seconds()/p, 100*share,
			float64(lt.count[n])/p, float64(lt.alloc[n])/mib/p)
	}
	return b.String()
}
