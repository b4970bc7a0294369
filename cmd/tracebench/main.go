// Command tracebench regenerates the paper's results: every experiment in
// DESIGN.md's per-experiment index prints a paper-vs-measured table.
//
// Usage:
//
//	tracebench             run everything
//	tracebench -exp e1     run one experiment (e1..e12, f1)
//	tracebench -list       list experiments
//	tracebench -j N        bound the compiler's backend worker pool
//	tracebench -tier T     simulate on the named tier (same tables)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"github.com/multiflow-repro/trace/internal/vliw"
	"github.com/multiflow-repro/trace/internal/xp"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e12, f1, all)")
	list := flag.Bool("list", false, "list experiments")
	jobs := flag.Int("j", 0, "compiler backend worker pool size (0 = one per CPU, 1 = sequential)")
	tierName := flag.String("tier", "", "execution tier for the simulations: checked (default) or native (tables are identical)")
	flag.Parse()
	xp.Parallelism = *jobs
	var err error
	xp.Tier, err = vliw.ParseTier(*tierName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracebench:", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range xp.Registry() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	// SIGINT stops the harness at the next compile or simulation boundary.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	tables, err := xp.RunByID(ctx, *exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracebench:", err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}
