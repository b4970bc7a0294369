package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"github.com/multiflow-repro/trace/internal/vliw"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs is not modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile: the guide's rule
// is that a reported percentile needs at least ten of them.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// addBeats adds n runs' worth of a program's beat counters to the
// per-layer vliw metrics.
func addBeats(l map[string]float64, n int, st vliw.Stats) {
	f := float64(n)
	l["vliw.beats"] += f * float64(st.Beats)
	l["vliw.bank_stall_beats"] += f * float64(st.BankStalls)
	l["vliw.refill_beats"] += f * float64(st.RefillBeats)
	l["vliw.tlb_trap_beats"] += f * float64(st.TrapBeats)
}

// heapSampler records the peak live heap — the bytes the garbage collector
// found reachable, updated at the end of every cycle — while it runs,
// reading runtime/metrics (no stop-the-world) every interval. Unlike the
// total of heap objects, it does not depend on where between two
// collections a sample happens to fall.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / mib
}
