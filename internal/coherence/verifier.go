package coherence

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// Verifier is the unified facade over every coherence decision
// procedure in this package: each address it checks climbs the
// escalation ladder (ladder.go) as far as the configured strategy
// allows. One Verifier, configured once with the functional options of
// internal/solver, serves every policy: SolveAddr decides one address,
// SolveBatch any set of addresses, Verify a whole execution (through
// SolveBatch, or sequentially when checkpointed), and VerifyCheckpoint
// resumes explicitly.
//
//	v := coherence.NewVerifier(
//	        solver.WithStrategy(solver.StrategyFast),
//	        solver.WithWorkers(8),
//	        solver.WithBudget(solver.WithMaxStates(1e6), solver.WithTimeout(time.Second)),
//	)
//	report, err := v.Verify(ctx, exec)
//
// A Verifier is immutable after construction and safe for concurrent
// use; the long-running verification service constructs a handful and
// shares them across all requests.
type Verifier struct {
	cfg *solver.Config
}

// NewVerifier builds a Verifier from functional options. With no
// options it verifies sequentially with StrategyAuto and no resource
// bound.
func NewVerifier(opts ...solver.ConfigOption) *Verifier {
	return &Verifier{cfg: solver.NewConfig(opts...)}
}

// Config returns the verifier's configuration (read-only by contract).
func (v *Verifier) Config() *solver.Config { return v.cfg }

// AddrReport is the per-address outcome of a facade verification. It is
// strategy-neutral: the strategies without degrade rungs always decide
// (Verdict is Coherent or Incoherent, Result non-nil) or return a budget
// error, while StrategyResilient may end at VerdictUnknown with a nil
// Result and the necessary-condition evidence in Checks.
type AddrReport struct {
	// Addr is the address this report covers.
	Addr memory.Addr
	// Verdict is the three-valued answer for the address.
	Verdict ResilientVerdict
	// Rung is the ladder rung that produced the verdict.
	Rung Rung
	// Result is the deciding solver's result (certificate, algorithm,
	// per-solve stats); nil when Verdict is Unknown.
	Result *Result
	// Stats aggregates all work spent on the address, including the
	// partial stats of rungs that escalated (Result.Stats is the same).
	Stats Stats
	// Checks lists the necessary-condition outcomes when the resilient
	// ladder reached its last rung.
	Checks []string
}

// addrReportFromResult wraps a decided two-valued result.
func addrReportFromResult(addr memory.Addr, r *Result) *AddrReport {
	ar := &AddrReport{Addr: addr, Verdict: VerdictCoherent, Rung: RungExact, Result: r, Stats: r.Stats}
	if !r.Coherent {
		ar.Verdict = VerdictIncoherent
	}
	return ar
}

// Report is the execution-level outcome of Verifier.Verify: one
// AddrReport per address (in ascending address order) plus the
// aggregate verdict and stats.
type Report struct {
	// Verdict aggregates the per-address verdicts: Incoherent if any
	// address is incoherent, else Unknown if any address is undecided,
	// else Coherent.
	Verdict ResilientVerdict
	// Addrs holds the per-address reports, sorted by address.
	Addrs []AddrReport
	// Stats merges the per-address stats.
	Stats Stats
	// Checkpoint carries the resumable state of a budget-aborted
	// checkpointed run (nil otherwise); see solver.WithCheckpoint.
	Checkpoint *Checkpoint
}

// add appends an address report and folds in its stats.
func (r *Report) add(ar *AddrReport) {
	r.Addrs = append(r.Addrs, *ar)
	r.Stats.Merge(ar.Stats)
}

// finalize computes the aggregate verdict.
func (r *Report) finalize() {
	r.Verdict = VerdictCoherent
	for i := range r.Addrs {
		switch r.Addrs[i].Verdict {
		case VerdictIncoherent:
			r.Verdict = VerdictIncoherent
			return
		case VerdictUnknown:
			r.Verdict = VerdictUnknown
		}
	}
}

// Coherent reports whether every address was proven coherent.
func (r *Report) Coherent() bool { return r.Verdict == VerdictCoherent }

// FirstViolation returns the lowest address proven Incoherent (ok=false
// when none is; an Unknown address is not a violation).
func (r *Report) FirstViolation() (memory.Addr, bool) {
	for i := range r.Addrs {
		if r.Addrs[i].Verdict == VerdictIncoherent {
			return r.Addrs[i].Addr, true
		}
	}
	return 0, false
}

// SolveAddr decides VMC for a single address under the configured
// strategy and returns the strategy-neutral per-address report.
func (v *Verifier) SolveAddr(ctx context.Context, exec *memory.Execution, addr memory.Addr) (*AddrReport, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	return v.solveAddrOpts(ctx, exec, addr, v.cfg.Options)
}

// solveAddrOpts projects one address of a validated execution and runs
// the ladder on it with an explicit per-solve Options value (the
// checkpointed loop derives a per-address variant of the configured
// budget).
func (v *Verifier) solveAddrOpts(ctx context.Context, exec *memory.Execution, addr memory.Addr, opts *Options) (*AddrReport, error) {
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	ar, err := v.ladder(ctx, exec, project(exec, addr), opts, sc)
	if err != nil {
		return nil, err
	}
	if ar.Result == &sc.res {
		// Detach the search's result from the pooled scratch.
		r := sc.res
		ar.Result = &r
	}
	return &ar, nil
}

// Verify checks every address of the execution under the configured
// strategy, budget and parallelism: one SolveBatch job per address, in
// AddressesByHardness order, so the heaviest addresses start first.
//
// Error semantics follow the strategy: the exact strategies report a
// per-address budget trip as an error — the one for the lowest failing
// address, whatever the worker count — alongside the partial Report of
// the addresses below it; StrategyResilient degrades the affected
// address and continues, so its Report always covers every address
// unless the context is cancelled.
// With solver.WithCheckpoint configured, verification is sequential,
// resumes from the checkpoint file when it exists, and re-writes it on a
// budget abort.
func (v *Verifier) Verify(ctx context.Context, exec *memory.Execution) (*Report, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	if v.cfg.CheckpointPath != "" {
		return v.verifyCheckpointFile(ctx, exec)
	}
	addrs := AddressesByHardness(exec)
	jobs := make([]BatchJob, len(addrs))
	for i, a := range addrs {
		jobs[i] = BatchJob{Exec: exec, Addr: a}
	}
	res := v.SolveBatch(ctx, jobs)
	byAddr := make([]int, len(addrs))
	for i := range byAddr {
		byAddr[i] = i
	}
	sort.Slice(byAddr, func(i, j int) bool { return addrs[byAddr[i]] < addrs[byAddr[j]] })
	rep := &Report{}
	for _, i := range byAddr {
		if res[i].Err != nil {
			return rep, res[i].Err
		}
		rep.add(res[i].Report(addrs[i]))
	}
	rep.finalize()
	return rep, nil
}

// VerifyCheckpoint is Verify with explicit checkpoint state: results
// already present in resume are replayed without solving, the
// interrupted address's search is seeded from its saved memo table, and
// on a budget abort the returned Report's Checkpoint field captures
// everything needed to continue later (nil on success). Checkpointing
// serializes the address loop by design and requires a strategy whose
// searches snapshot (StrategyAuto or StrategyExact).
func (v *Verifier) VerifyCheckpoint(ctx context.Context, exec *memory.Execution, resume *Checkpoint) (*Report, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	switch v.cfg.Strategy {
	case solver.StrategyAuto, solver.StrategyExact:
	default:
		return nil, fmt.Errorf("coherence: checkpointed verification requires the auto or exact strategy, not %v", v.cfg.Strategy)
	}
	run, err := ResumeCheckpointRun(exec, resume)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	for _, a := range exec.Addresses() {
		if r, ok := run.Lookup(a); ok {
			rep.add(addrReportFromResult(a, r))
			continue
		}
		ar, err := v.solveAddrOpts(ctx, exec, a, run.Configure(a, v.cfg.Options))
		if err != nil {
			if _, ok := solver.AsBudgetError(err); ok {
				rep.Checkpoint = run.Checkpoint()
			}
			return rep, err
		}
		run.Record(a, ar.Result)
		rep.add(ar)
	}
	rep.finalize()
	return rep, nil
}

// verifyCheckpointFile implements solver.WithCheckpoint: resume from the
// configured path when a checkpoint file exists there, and persist the
// resumable state back to it when a budget trip aborts the run.
func (v *Verifier) verifyCheckpointFile(ctx context.Context, exec *memory.Execution) (*Report, error) {
	var resume *Checkpoint
	if _, statErr := os.Stat(v.cfg.CheckpointPath); statErr == nil {
		ck, err := LoadCheckpoint(v.cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		resume = ck
	} else if !errors.Is(statErr, os.ErrNotExist) {
		return nil, statErr
	}
	rep, err := v.VerifyCheckpoint(ctx, exec, resume)
	if rep != nil && rep.Checkpoint != nil {
		if werr := rep.Checkpoint.WriteFile(v.cfg.CheckpointPath); werr != nil {
			return rep, errors.Join(err, werr)
		}
	}
	return rep, err
}

// AddressesByHardness returns the execution's addresses ordered
// largest-projection-first, ties by ascending address. The projection
// size is the only cheap hardness signal before solving, and the
// per-address search is worst-case exponential in it, so dispatching the
// largest first (LPT scheduling) starts the potentially long searches at
// once instead of behind a tail of trivial addresses. Verify and the
// verification service dispatch in this order; it affects only load
// balance, never results.
func AddressesByHardness(exec *memory.Execution) []memory.Addr {
	sizes := make(map[memory.Addr]int)
	for _, h := range exec.Histories {
		for _, o := range h {
			if o.IsMemory() {
				sizes[o.Addr]++
			}
		}
	}
	out := make([]memory.Addr, 0, len(sizes))
	for a := range sizes {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if si, sj := sizes[out[i]], sizes[out[j]]; si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}
