package coherence

import (
	"context"
	"runtime"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// This file keeps the pre-facade entry points compiling as one-line
// wrappers over the unified Verifier. Each wrapper is pinned to the
// facade by the oracle-parity test in verifier_test.go: wrapper and
// facade must return identical verdicts, schedules and stats.

// Solve decides VMC for one address with the general memoized search.
//
// Deprecated: use NewVerifier(solver.WithStrategy(solver.StrategyExact),
// solver.WithOptions(opts)).Solve(ctx, exec, addr).
func Solve(ctx context.Context, exec *memory.Execution, addr memory.Addr, opts *Options) (*Result, error) {
	return NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts)).Solve(ctx, exec, addr)
}

// SolveAuto decides VMC for one address via the fastest applicable
// algorithm (Figure 5.3 dispatch).
//
// Deprecated: use NewVerifier(solver.WithOptions(opts)).Solve(ctx, exec, addr).
func SolveAuto(ctx context.Context, exec *memory.Execution, addr memory.Addr, opts *Options) (*Result, error) {
	return NewVerifier(solver.WithOptions(opts)).Solve(ctx, exec, addr)
}

// SolveResilient decides VMC for one address with the graceful-
// degradation ladder; writeOrder optionally supplies a §5.2 hint.
//
// Deprecated: use NewVerifier(solver.WithStrategy(solver.StrategyResilient),
// solver.WithWriteOrders(...), solver.WithOptions(opts)).SolveAddr(ctx,
// exec, addr) and AddrReport.Resilient.
func SolveResilient(ctx context.Context, exec *memory.Execution, addr memory.Addr, writeOrder []memory.Ref, opts *Options) (*ResilientResult, error) {
	v := NewVerifier(solver.WithStrategy(solver.StrategyResilient),
		solver.WithWriteOrders(map[memory.Addr][]memory.Ref{addr: writeOrder}), solver.WithOptions(opts))
	ar, err := v.SolveAddr(ctx, exec, addr)
	if err != nil {
		return nil, err
	}
	return ar.Resilient(), nil
}

// VerifyExecution checks whether exec is a coherent execution,
// verifying each address sequentially with the auto dispatch.
//
// Deprecated: use NewVerifier(solver.WithOptions(opts)).Verify(ctx, exec)
// and Report.Results.
func VerifyExecution(ctx context.Context, exec *memory.Execution, opts *Options) (map[memory.Addr]*Result, error) {
	rep, err := NewVerifier(solver.WithOptions(opts)).Verify(ctx, exec)
	return reportResults(rep), err
}

// VerifyExecutionParallel is VerifyExecution fanned out across workers
// goroutines (runtime.NumCPU() when workers <= 0).
//
// Deprecated: use NewVerifier(solver.WithWorkers(workers),
// solver.WithOptions(opts)).Verify(ctx, exec).
func VerifyExecutionParallel(ctx context.Context, exec *memory.Execution, opts *Options, workers int) (map[memory.Addr]*Result, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	rep, err := NewVerifier(solver.WithWorkers(workers), solver.WithOptions(opts)).Verify(ctx, exec)
	return reportResults(rep), err
}

// VerifyExecutionResilient runs the degradation ladder for every
// address of exec; writeOrders optionally supplies per-address hints.
//
// Deprecated: use NewVerifier(solver.WithStrategy(solver.StrategyResilient),
// solver.WithWriteOrders(writeOrders), solver.WithOptions(opts)).Verify(ctx, exec).
func VerifyExecutionResilient(ctx context.Context, exec *memory.Execution, writeOrders map[memory.Addr][]memory.Ref, opts *Options) (map[memory.Addr]*ResilientResult, error) {
	rep, err := NewVerifier(solver.WithStrategy(solver.StrategyResilient),
		solver.WithWriteOrders(writeOrders), solver.WithOptions(opts)).Verify(ctx, exec)
	if rep == nil {
		return nil, err
	}
	out := make(map[memory.Addr]*ResilientResult, len(rep.Addrs))
	for i := range rep.Addrs {
		out[rep.Addrs[i].Addr] = rep.Addrs[i].Resilient()
	}
	return out, err
}

// VerifyExecutionCheckpoint is VerifyExecution with explicit checkpoint
// state: replayed results, memo-seeded resume, and a resumable
// Checkpoint on budget aborts (nil on success).
//
// Deprecated: use NewVerifier(solver.WithOptions(opts)).VerifyCheckpoint(ctx,
// exec, resume), or solver.WithCheckpoint(path) to bind the checkpoint
// to a file.
func VerifyExecutionCheckpoint(ctx context.Context, exec *memory.Execution, opts *Options, resume *Checkpoint) (map[memory.Addr]*Result, *Checkpoint, error) {
	rep, err := NewVerifier(solver.WithOptions(opts)).VerifyCheckpoint(ctx, exec, resume)
	if rep == nil {
		return nil, nil, err
	}
	return reportResults(rep), rep.Checkpoint, err
}

// Coherent reports whether the execution as a whole is coherent,
// returning the offending address when it is not.
//
// Deprecated: use NewVerifier(solver.WithOptions(opts)).Verify(ctx, exec)
// and Report.FirstViolation.
func Coherent(ctx context.Context, exec *memory.Execution, opts *Options) (bool, memory.Addr, error) {
	rep, err := NewVerifier(solver.WithOptions(opts)).Verify(ctx, exec)
	if err != nil {
		if be, ok := solver.AsBudgetError(err); ok && be.HasAddr {
			return false, be.Addr, err
		}
		return false, 0, err
	}
	if a, bad := rep.FirstViolation(); bad {
		return false, a, nil
	}
	return true, 0, nil
}

// reportResults is Report.Results tolerating the nil report of a
// validation failure.
func reportResults(rep *Report) map[memory.Addr]*Result {
	if rep == nil {
		return nil
	}
	return rep.Results()
}
