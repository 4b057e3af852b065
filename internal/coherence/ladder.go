package coherence

import (
	"context"
	"fmt"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// The escalation ladder.
//
// The paper's complexity summary (Figure 5.3) is one escalation: the
// polynomial rows first, then the O(n^k) search around the NP-complete
// core of Theorem 4.2. Every address of every entry point — SolveAddr,
// Verify, VerifyCheckpoint and SolveBatch — climbs the same rung
// sequence here:
//
//	fast path → specialists → exact search (∥n) → write order → enumeration → necessary conditions
//
// and the strategy only names which rungs run (ladderOf). The ladder
// owns everything the rungs share: one budget per address (a single
// Options.Timeout deadline for every rung; MaxStates is charged by the
// exact search only, so the polynomial rungs stay usable under a tight
// state budget), the merged Stats of every rung that ran, the deciding
// Rung, and the per-address obs span with one degrade event for every
// escalation.

// rungSet selects the optional ladder rungs; the exact search (∥n with
// Options.ParallelSearch) runs under every strategy.
type rungSet uint8

const (
	runFast        rungSet = 1 << iota // the polynomial fast path (fastpath.go)
	runSpecialists                     // the Figure 5.3 polynomial rows
	runDegrade                         // write order, enumeration, necessary conditions
)

// ladderOf names the rungs a strategy runs besides the exact search.
func ladderOf(s solver.Strategy) rungSet {
	switch s {
	case solver.StrategyExact:
		return 0
	case solver.StrategyFast:
		return runFast | runSpecialists
	case solver.StrategyResilient:
		return runFast | runSpecialists | runDegrade
	}
	return runSpecialists
}

// spanName names the per-address obs span of a strategy.
func spanName(s solver.Strategy) string {
	switch s {
	case solver.StrategyExact:
		return "solve-exact"
	case solver.StrategyFast:
		return "solve-fast"
	case solver.StrategyResilient:
		return "solve-resilient"
	}
	return "solve-auto"
}

// specialist runs the Figure 5.3 polynomial row whose precondition inst
// meets: read-map (at most one write per value), then RMW chains or
// grouping (one operation per process). It returns nil when no row
// applies, including the read-map row's ambiguous corner (the initial
// value collides with a written value).
func (sc *searchScratch) specialist(inst *instance) *Result {
	if inst.maxWritesPerValue(sc.counts) <= 1 {
		if r, ok := readMapInstance(inst); ok {
			return r
		}
	}
	if inst.maxOpsPerProcess() <= 1 {
		if inst.allRMW() {
			return eulerInstance(inst)
		}
		if r, ok := singleOpInstance(inst); ok {
			return r
		}
	}
	return nil
}

// ladder decides one address of a validated execution: inst is its
// projection, opts the per-solve budget, sc the worker's reusable solve
// state. It runs the configured strategy's rungs in ladder order and
// reports the deciding rung with the merged stats of every rung that
// ran (also in Result.Stats). A budget trip is an error unless the
// strategy runs the degrade rungs; cancellation always is.
func (v *Verifier) ladder(ctx context.Context, exec *memory.Execution, inst *instance, opts *Options, sc *searchScratch) (AddrReport, error) {
	rungs := ladderOf(v.cfg.Strategy)
	met, tr := obs.MetricsFrom(ctx), obs.TracerFrom(ctx)
	met.SolveBegin()
	defer met.SolveEnd()
	sp, ctx := tr.BeginAddr(ctx, spanName(v.cfg.Strategy), int64(inst.addr))
	bud := &sc.budget
	bud.Reset(ctx, opts)
	defer bud.Stop()
	bctx := bud.Context()

	// stats merges every rung's work; its Duration is the sum of the
	// rungs' own timings, so the ladder adds no clock reads of its own.
	var stats Stats
	var checks []string
	finish := func(r *Result, rung Rung) (AddrReport, error) {
		stats.Rung = int(rung)
		ar := AddrReport{Addr: inst.addr, Verdict: VerdictUnknown, Rung: rung, Result: r, Stats: stats, Checks: checks}
		alg := "none"
		if r != nil {
			r.Stats = stats
			ar.Verdict, alg = VerdictIncoherent, r.Algorithm
			if r.Coherent {
				ar.Verdict = VerdictCoherent
			}
		}
		if tr != nil {
			sp.End(fmt.Sprintf("%s (%s, rung=%s)", ar.Verdict, alg, rung), int64(stats.States))
		}
		return ar, nil
	}

	fail := func(e *solver.ErrBudgetExceeded) (AddrReport, error) {
		e.Stats = stats
		if tr != nil {
			sp.End("budget: "+e.Reason.String(), int64(stats.States))
		}
		return AddrReport{}, withAddr(e, inst.addr)
	}

	// trip is the budget trip that stopped the climb before the degrade
	// rungs; set by the time the search has run and not decided.
	var trip *solver.ErrBudgetExceeded
	if rungs&runFast != 0 {
		out, e := fastDecide(bctx, exec, inst)
		if e != nil {
			stats.Merge(e.Stats)
			trip = e
		} else {
			stats.Merge(out.stats)
			if out.verdict != fastInconclusive {
				return finish(out.result, RungFast)
			}
			tr.Degrade(sp, RungExact.String(), "fast path inconclusive ("+out.detail+")")
		}
	}
	if trip == nil && rungs&runSpecialists != 0 {
		if trip = solver.Interrupted(bctx); trip == nil {
			if r := sc.specialist(inst); r != nil {
				stats.Merge(r.Stats)
				return finish(r, RungExact)
			}
		}
	}
	if trip == nil {
		r, e := searchInstance(bud, inst, opts, sc)
		if e == nil {
			stats.Merge(r.Stats)
			return finish(r, RungExact)
		}
		stats.Merge(e.Stats)
		trip = e
	}
	if rungs&runDegrade == 0 || trip.Reason == solver.Canceled {
		return fail(trip)
	}

	// The budget stopped the search: degrade. A supplied write order is
	// trusted in the positive direction only — failing to extend a hint
	// does not refute.
	if order := v.cfg.WriteOrders[inst.addr]; len(order) > 0 {
		tr.Degrade(sp, RungWriteOrder.String(), "budget exhausted ("+trip.Reason.String()+"); trying supplied write order")
		if porder, err := inst.toProjectionRefs(order, inst.addr); err == nil {
			if r, err := writeOrderInstance(inst, porder); err == nil {
				stats.Merge(r.Stats)
				if r.Coherent {
					return finish(r, RungWriteOrder)
				}
			}
		}
	}
	if n := countWriters(inst); n > 0 && n <= maxEnumWrites {
		tr.Degrade(sp, RungSpecialist.String(), fmt.Sprintf("enumerating write orders (%d writes)", n))
		r, e := enumerateWriteOrders(bctx, inst, &stats)
		switch {
		case e == nil:
			return finish(r, RungSpecialist)
		case e.Reason == solver.Canceled:
			return fail(e)
		}
		// The deadline ran out mid-enumeration: the necessary conditions
		// below are linear and still answer.
	}
	tr.Degrade(sp, RungNecessary.String(), "checking necessary conditions")
	var violated string
	checks, violated = necessaryConditions(inst)
	stats.States += inst.nops
	if violated != "" {
		return finish(&Result{Coherent: false, Decided: true, Algorithm: "necessary-conditions"}, RungNecessary)
	}
	return finish(nil, RungNecessary)
}
