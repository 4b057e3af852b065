// Package coherence implements solvers for the Verifying Memory Coherence
// (VMC) decision problem of Cantin, Lipasti & Smith (Definition 4.1):
// given a set of process histories of reads and writes to one address, is
// there a coherent schedule?
//
// VMC is NP-Complete in general (Theorem 4.2), so the package decides
// each address with one escalation ladder (ladder.go), mirroring the
// paper's complexity summary (Figure 5.3): polynomial rungs first, the
// exponential search only where they cannot decide.
//
//  1. the fast path (fastpath.go): polynomial constraint propagation
//     that decides structured instances of any size in near-linear
//     time — sound in both directions, escalating only on an explicit
//     INCONCLUSIVE;
//  2. the Figure 5.3 specialists: the polynomial algorithms for the
//     read-map (at most one write per value), one-operation-per-process
//     and read-modify-write-chain rows;
//  3. the exact search, which realizes the paper's O(n^k) bound for k
//     process histories via memoization and an eager read-scheduling
//     rule, optionally split across workers (Options.ParallelSearch);
//  4. the degrade rungs, reached only when the budget stops the search:
//     a supplied §5.2 write order, exhaustive small write-order
//     enumeration, and sound necessary conditions, ending in an
//     explicit Unknown verdict instead of an error.
//
// The strategy names the rungs that run (solver.StrategyExact: 3;
// StrategyAuto, the default: 2–3; StrategyFast: 1–3;
// StrategyResilient: 1–4). Verifier is the facade, constructed with the
// functional options of internal/solver. The paper defines a coherent
// multiprocessor execution address by address, so every multi-address
// entry point is a set of independent single-address jobs, and
// Verifier.SolveBatch is the one driver that runs them: pooled scratch,
// one projection pass per execution, and an optional fan-out across
// workers (solver.WithWorkers). Verifier.Verify is one SolveBatch over
// an execution's addresses in largest-projection-first order.
//
// Every entry point takes a context.Context and honors the unified
// resource budget of internal/solver: cancellation, the per-address
// wall-clock Options.Timeout (one deadline shared by every rung), and
// the Options.MaxStates bound (charged by the exact search only) all
// abort the solve with a *solver.ErrBudgetExceeded carrying the partial
// Stats — except under StrategyResilient, whose degrade rungs turn a
// deadline or state-bound trip into an answer.
//
// All solvers return a certificate schedule on success; certificates are
// validated by memory.CheckCoherent in the package tests.
package coherence

import (
	"context"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// Options control the search-based solvers; the type is shared with
// internal/consistency via internal/solver. The zero value (or nil) asks
// for a complete, memoized, eager-read search with no resource bound.
// Construct with a literal or with solver.New(solver.WithMaxStates(n),
// solver.WithTimeout(d), ...).
type Options = solver.Options

// Stats describes the work a solver performed (shared with
// internal/consistency via internal/solver).
type Stats = solver.Stats

// Result is the outcome of a VMC query. It implements solver.Verdict.
type Result struct {
	// Coherent reports whether a coherent schedule exists.
	Coherent bool
	// Decided is false only when a StrategyResilient ladder ended
	// Unknown: no rung could decide (a BatchResult then carries such a
	// Result; AddrReport uses a nil Result instead). Budget trips under
	// the other strategies are *solver.ErrBudgetExceeded errors, not
	// undecided Results.
	Decided bool
	// Schedule is a certificate coherent schedule when Coherent is true,
	// with references into the execution the solver was given.
	Schedule memory.Schedule
	// Algorithm names the algorithm that produced the result.
	Algorithm string
	// Stats describes the work performed.
	Stats Stats
}

// Holds implements solver.Verdict.
func (r *Result) Holds() bool { return r.Coherent }

// IsDecided implements solver.Verdict.
func (r *Result) IsDecided() bool { return r.Decided }

// AlgorithmName implements solver.Verdict.
func (r *Result) AlgorithmName() string { return r.Algorithm }

// SolverStats implements solver.Verdict.
func (r *Result) SolverStats() solver.Stats { return r.Stats }

// Certificate implements solver.Verdict.
func (r *Result) Certificate() memory.Schedule { return r.Schedule }

// instance is a single-address VMC instance extracted from an execution:
// the per-process histories restricted to one address, the optional
// initial and final values, and the mapping back to the original refs.
type instance struct {
	addr memory.Addr
	hist []memory.History
	// backIdx[p][i] is the original ref of the i-th projected op of
	// process p, in ascending program order. nil means the identity
	// projection: the instance aliases the execution's histories.
	backIdx [][]memory.Ref
	init    *memory.Value
	final   *memory.Value
	nops    int
	// initVal and finalVal hold the values init and final point to, so
	// an instance carries its own bounds without separate allocations
	// (an instance is therefore never copied once bound).
	initVal, finalVal memory.Value
}

// project builds the single-address instance for addr.
func project(exec *memory.Execution, addr memory.Addr) *instance {
	inst := new(instance)
	inst.load(exec, addr)
	return inst
}

// load makes in the single-address instance of exec at addr. An
// execution that touches only addr is its own projection: the instance
// then aliases the execution's histories (no copies, no back-map) and
// its refs translate to themselves.
func (in *instance) load(exec *memory.Execution, addr memory.Addr) {
	*in = instance{addr: addr}
	if n, ok := soleAddress(exec, addr); ok {
		in.hist, in.nops = exec.Histories, n
	} else {
		proj, back := exec.Project(addr)
		in.hist, in.backIdx, in.nops = proj.Histories, back, proj.NumOps()
	}
	in.bind(exec, addr)
}

// bind points init and final at the execution's declared values for
// addr, if any.
func (in *instance) bind(exec *memory.Execution, addr memory.Addr) {
	if d, ok := exec.Initial[addr]; ok {
		in.initVal, in.init = d, &in.initVal
	}
	if d, ok := exec.Final[addr]; ok {
		in.finalVal, in.final = d, &in.finalVal
	}
}

// soleAddress reports whether every operation of exec is a memory
// operation at addr, and counts them.
func soleAddress(exec *memory.Execution, addr memory.Addr) (int, bool) {
	n := 0
	for _, h := range exec.Histories {
		for _, o := range h {
			if !o.IsMemory() || o.Addr != addr {
				return 0, false
			}
			n++
		}
	}
	return n, true
}

// origRef maps a projection ref back to the original execution's ref.
func (in *instance) origRef(r memory.Ref) memory.Ref {
	if in.backIdx == nil {
		return r
	}
	return in.backIdx[r.Proc][r.Index]
}

// translate maps a schedule over projection refs back to original refs.
func (in *instance) translate(s []memory.Ref) memory.Schedule {
	out := make(memory.Schedule, len(s))
	if in.backIdx == nil {
		copy(out, s)
		return out
	}
	for i, r := range s {
		out[i] = in.backIdx[r.Proc][r.Index]
	}
	return out
}

// hasWrites reports whether any operation in the instance writes.
func (in *instance) hasWrites() bool {
	for _, h := range in.hist {
		for _, o := range h {
			if _, ok := o.Writes(); ok {
				return true
			}
		}
	}
	return false
}

// allRMW reports whether every operation is a read-modify-write.
func (in *instance) allRMW() bool {
	for _, h := range in.hist {
		for _, o := range h {
			if o.Kind != memory.ReadModifyWrite {
				return false
			}
		}
	}
	return true
}

// maxOpsPerProcess returns the length of the longest projected history.
func (in *instance) maxOpsPerProcess() int {
	max := 0
	for _, h := range in.hist {
		if len(h) > max {
			max = len(h)
		}
	}
	return max
}

// maxWritesPerValue returns the largest number of writes of any single
// value. counts is a scratch map, cleared first (nil allocates one).
func (in *instance) maxWritesPerValue(counts map[memory.Value]int) int {
	if counts == nil {
		counts = make(map[memory.Value]int)
	} else {
		clear(counts)
	}
	max := 0
	for _, h := range in.hist {
		for _, o := range h {
			if d, ok := o.Writes(); ok {
				counts[d]++
				if counts[d] > max {
					max = counts[d]
				}
			}
		}
	}
	return max
}

// stampOps records the work of a direct polynomial algorithm: each
// operation processed counts as one state, so -stats output stays
// meaningful on every algorithm path.
func stampOps(r *Result, inst *instance) {
	if r != nil && r.Stats.States == 0 {
		r.Stats.States = inst.nops
	}
}

// beginSolve opens a per-address observability span named after the
// entry point and bumps the live solve counter. With no observer on the
// context it returns a no-op span and the unchanged context at the cost
// of one context lookup.
func beginSolve(ctx context.Context, name string, addr memory.Addr) (obs.Span, context.Context) {
	obs.MetricsFrom(ctx).SolveBegin()
	return obs.TracerFrom(ctx).BeginAddr(ctx, name, int64(addr))
}

// endSolve closes a solve span with the outcome (verdict + deciding
// algorithm, or the abort reason) and marks the solve finished.
func endSolve(ctx context.Context, sp obs.Span, r *Result, err error) {
	obs.MetricsFrom(ctx).SolveEnd()
	switch {
	case err != nil:
		detail := "error: " + err.Error()
		if be, ok := solver.AsBudgetError(err); ok {
			detail = "budget: " + be.Reason.String()
		}
		sp.End(detail, 0)
	case r.Coherent:
		sp.End("coherent ("+r.Algorithm+")", int64(r.Stats.States))
	default:
		sp.End("incoherent ("+r.Algorithm+")", int64(r.Stats.States))
	}
}

// withAddr annotates a budget error with the address being solved.
func withAddr(e *solver.ErrBudgetExceeded, addr memory.Addr) *solver.ErrBudgetExceeded {
	if e != nil && !e.HasAddr {
		e.Addr, e.HasAddr = addr, true
	}
	return e
}
