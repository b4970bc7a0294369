// Command tracefuzz drives the differential fuzzing oracle: it generates
// seeded random MF programs, compiles each at every optimization level for
// several TRACE configurations, runs them on the VLIW simulator and the
// scalar reference, and fails on any divergence — wrong output, unexpected
// trap, hang, or a nondeterministic parallel build.
//
// Usage:
//
//	tracefuzz [-seed N] [-n N] [-j N] [-ref-steps N] [-tier T] [-timeshare] [-snapshot] [-v]
//
// The run is deterministic: the same -seed and -n always test the same
// programs, and a reported seed is a complete reproduction recipe.
// -tier selects the execution-tier regime: checked (the default) runs the
// dynamically verified tier only; native upgrades the oracle to the tier
// matrix — every image also runs on the closure-threaded native tier, once
// armed with the resource certificate and once with the safety
// certificate, and all three runs must agree on the exit value, the output,
// the fault, and every Stats counter.
// With -timeshare, a clean campaign is followed by the multi-context stage:
// the same generated programs run again time-shared four to a machine —
// checked, or on both native legs under -tier=native — and every program
// must reproduce its solo exit, output, and stats exactly.
// With -snapshot, a clean campaign is followed by the checkpoint/restore
// stage: each program runs again split at random beats — pause, serialize,
// restore on a fresh machine, continue, on the checked tier and the native
// tier under the resource certificate, plus under the safety certificate
// with -tier=native — and must reproduce its uninterrupted run
// bit-for-bit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"

	"github.com/multiflow-repro/trace/internal/fuzz"
	"github.com/multiflow-repro/trace/internal/vliw"
)

type outcome struct {
	seed int64
	err  error // nil, fuzz.ErrSkip, or *fuzz.Divergence
}

func main() {
	seed := flag.Int64("seed", 1, "first seed to test")
	n := flag.Int64("n", 500, "number of consecutive seeds to test")
	jobs := flag.Int("j", 0, "worker pool size (0 = one per CPU)")
	refSteps := flag.Int64("ref-steps", 0, "reference interpreter op budget (0 = default)")
	tierName := flag.String("tier", "", "execution tier regime: checked (default) or native (tier matrix: every image also runs native under the resource and the safety certificate, and all three runs must agree on exit, output, fault, and every Stats counter)")
	timeshare := flag.Bool("timeshare", false, "also run the generated programs time-shared K=4 and require solo-identical results")
	snapshot := flag.Bool("snapshot", false, "also split each generated program's run at random beats via snapshot/restore and require uninterrupted-identical results")
	verbose := flag.Bool("v", false, "print every seed's outcome")
	flag.Parse()
	if *jobs <= 0 {
		*jobs = runtime.NumCPU()
	}
	tier, err := vliw.ParseTier(*tierName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracefuzz: %v\n", err)
		os.Exit(2)
	}

	// SIGINT drains the campaign: in-flight oracle runs stop at the next
	// compile-pass or simulation-check boundary and the summary still prints.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()

	opts := fuzz.Options{RefSteps: *refSteps, Tier: tier}
	seeds := make(chan int64)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < *jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range seeds {
				results <- outcome{s, fuzz.CheckSeed(ctx, s, opts)}
			}
		}()
	}
	go func() {
	feed:
		for s := *seed; s < *seed+*n; s++ {
			select {
			case seeds <- s:
			case <-ctx.Done():
				break feed
			}
		}
		close(seeds)
		wg.Wait()
		close(results)
	}()

	var ok, skipped int64
	var bad []outcome
	done := int64(0)
	for r := range results {
		done++
		switch {
		case r.err == nil:
			ok++
		case r.err == fuzz.ErrSkip:
			skipped++
		case errors.Is(r.err, context.Canceled):
			// interrupted mid-oracle: not a finding
			skipped++
		default:
			bad = append(bad, r)
		}
		if *verbose {
			fmt.Printf("seed %d: %v\n", r.seed, r.err)
		} else if done%50 == 0 {
			fmt.Printf("tracefuzz: %d/%d seeds (%d ok, %d skipped, %d diverged)\n",
				done, *n, ok, skipped, len(bad))
		}
	}

	// Workers finish out of order; sort so the report is deterministic.
	sort.Slice(bad, func(i, j int) bool { return bad[i].seed < bad[j].seed })
	for _, r := range bad {
		fmt.Fprintf(os.Stderr, "\nseed %d: %v\n", r.seed, r.err)
		if d, isDiv := r.err.(*fuzz.Divergence); isDiv {
			fmt.Fprintf(os.Stderr, "--- program (reproduce with -seed %d -n 1) ---\n%s\n", r.seed, d.Src)
		}
	}
	fmt.Printf("tracefuzz: %d seeds: %d ok, %d skipped, %d diverged\n", *n, ok, skipped, len(bad))
	if len(bad) > 0 {
		os.Exit(1)
	}

	if *timeshare && ctx.Err() == nil {
		fmt.Printf("tracefuzz: timeshare stage: seeds %d..%d in batches of 4\n", *seed, *seed+*n-1)
		err := fuzz.CheckTimeshareSeeds(ctx, *seed, *n, opts)
		switch {
		case err == nil:
			fmt.Println("tracefuzz: timeshare stage: solo and time-shared runs identical")
		case err == fuzz.ErrSkip:
			fmt.Println("tracefuzz: timeshare stage: no program survived to compare")
		case errors.Is(err, context.Canceled):
			// interrupted: not a finding
		default:
			fmt.Fprintf(os.Stderr, "\ntimeshare: %v\n", err)
			if d, isDiv := err.(*fuzz.Divergence); isDiv {
				fmt.Fprintf(os.Stderr, "--- program ---\n%s\n", d.Src)
			}
			os.Exit(1)
		}
	}

	if *snapshot && ctx.Err() == nil {
		fmt.Printf("tracefuzz: snapshot stage: seeds %d..%d, %d random splits each\n", *seed, *seed+*n-1, 3)
		err := fuzz.CheckSnapshotSeeds(ctx, *seed, *n, opts)
		switch {
		case err == nil:
			fmt.Println("tracefuzz: snapshot stage: split and uninterrupted runs identical")
		case err == fuzz.ErrSkip:
			fmt.Println("tracefuzz: snapshot stage: no program survived to split")
		case errors.Is(err, context.Canceled):
			// interrupted: not a finding
		default:
			fmt.Fprintf(os.Stderr, "\nsnapshot: %v\n", err)
			if d, isDiv := err.(*fuzz.Divergence); isDiv {
				fmt.Fprintf(os.Stderr, "--- program ---\n%s\n", d.Src)
			}
			os.Exit(1)
		}
	}
}
