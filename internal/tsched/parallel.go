package tsched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// ErrInternal is a per-function backend crash converted into an error: a
// panic in lowering, trace selection, scheduling, or register allocation
// fails that function's compilation unit with attribution instead of
// tearing down the whole worker pool (and the process) with a stack trace.
type ErrInternal struct {
	Func  string // function whose compilation crashed
	Value any    // recovered panic value
	Stack []byte // debug.Stack() at recovery
}

func (e *ErrInternal) Error() string {
	return fmt.Sprintf("internal scheduler error compiling %s: %v", e.Func, e.Value)
}

// CompileOptions configures a whole-program backend run.
type CompileOptions struct {
	// MaxTraceBlocks caps trace length (0 = unlimited; 1 = basic-block
	// compaction only).
	MaxTraceBlocks int
	// Parallelism bounds the worker pool compiling functions concurrently:
	// 0 means one worker per available CPU, 1 forces sequential
	// compilation, N>1 uses at most N workers. Output is deterministic and
	// identical at every setting: functions are compiled independently and
	// results are ordered by function index, not completion order.
	Parallelism int
}

// CompileParallel lowers and schedules every function of the program for
// the given machine, fanning the per-function backend (lowering, trace
// selection, list scheduling, register-bank allocation, emission) out over
// a bounded worker pool. It modifies prog (call spills); callers pass a
// private copy. Functions whose register demand overflows a bank are
// retried with shorter traces before the error is surfaced.
//
// Function compilations are independent — the only shared inputs are the
// read-only profile and global layout — so the fan-out preserves sequential
// results exactly; linking stays sequential in the caller.
//
// ctx is checked between per-function jobs: once canceled, no new function
// compilation starts (in-flight ones finish — a function either compiles
// completely or not at all) and the ctx error is returned, unless an
// earlier function had already failed on its own, in which case that error
// wins so cancellation never masks a real diagnosis.
func CompileParallel(ctx context.Context, prog *ir.Program, cfg mach.Config, prof ir.Profile, o CompileOptions) ([]*FuncCode, error) {
	layout, _ := ir.LayoutGlobals(prog)
	ladder := retryLadder(o.MaxTraceBlocks)

	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(prog.Funcs) {
		workers = len(prog.Funcs)
	}

	out := make([]*FuncCode, len(prog.Funcs))
	errs := make([]error, len(prog.Funcs))
	if workers <= 1 {
		for i, f := range prog.Funcs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i], errs[i] = compileOne(cfg, prog, f, prof[f.Name], layout, ladder)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if ctx.Err() != nil {
						continue // drain without compiling
					}
					f := prog.Funcs[i]
					out[i], errs[i] = compileOne(cfg, prog, f, prof[f.Name], layout, ladder)
				}
			}()
		}
	feed:
		for i := range prog.Funcs {
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}

	// Surface the failure of the earliest function so the error is the same
	// one sequential compilation reports, regardless of completion order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// compileOne runs the whole backend on a single function, descending the
// trace-length retry ladder on register pressure. Panics anywhere in the
// per-function backend are recovered into *ErrInternal so one poisoned
// function cannot kill the worker pool.
func compileOne(cfg mach.Config, prog *ir.Program, f *ir.Func, prof map[[2]int]float64, layout map[string]int64, ladder []int) (fc *FuncCode, err error) {
	defer func() {
		if r := recover(); r != nil {
			fc, err = nil, &ErrInternal{Func: f.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	return compileOneInner(cfg, prog, f, prof, layout, ladder)
}

func compileOneInner(cfg mach.Config, prog *ir.Program, f *ir.Func, prof map[[2]int]float64, layout map[string]int64, ladder []int) (*FuncCode, error) {
	vf, err := LowerFunc(prog, f, f.Name == "main")
	if err != nil {
		return nil, err
	}
	var fc *FuncCode
	for _, maxBlocks := range ladder {
		fc, err = CompileFunc(cfg, vf, prof, layout, maxBlocks)
		if err == nil {
			return fc, nil
		}
		if !isCapacityErr(err) {
			return nil, err
		}
	}
	return nil, err
}

// isCapacityErr reports whether err is a structured capacity rejection
// (register pressure or schedule-size blowup) that shorter traces may fix.
func isCapacityErr(err error) bool {
	switch err.(type) {
	case *ErrPressure, *ErrScheduleSize:
		return true
	}
	return false
}

// retryLadder returns the descending trace-length caps tried on register
// pressure: unlimited, then 6, 2, 1 blocks; with an explicit cap, the caps
// at or below it.
func retryLadder(maxTraceBlocks int) []int {
	if maxTraceBlocks <= 0 {
		return []int{0, 6, 2, 1}
	}
	ladder := []int{}
	for _, m := range []int{maxTraceBlocks, 2, 1} {
		if m <= maxTraceBlocks {
			ladder = append(ladder, m)
		}
	}
	return ladder
}
