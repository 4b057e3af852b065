package main

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
	"memverify/internal/trace"
)

// fig41-sweep: seeded Figure 4.1 SAT->VMC instances under the default
// auto strategy, one caller, each with a fixed time limit. The exact
// search does all the work: ingest is a few dozen operations and the
// fast path decides nothing.

// fig41Vars is the variable count m of every instance, with 2m clauses
// of one to three literals. At m=6 single instances range from 10 ms to
// over a second, so a run's median and tail moved with the seed far
// more than any bound worth setting; m=5 keeps the same shape at a
// spread a 20-second run averages out.
const fig41Vars = 5

// fig41Limit is the per-instance time limit. An instance still
// undecided at the limit counts as the time it was given up at. It is
// about ten times the slowest m=5 instance seen, so decided_frac moves
// only when the search slows by an order of magnitude, not with the
// host's speed. (A limit near the 99th percentile steadied the p99 but
// made decided_frac follow the host instead.)
const fig41Limit = time.Second

// fig41Chunk is how many instances one set-up step generates.
const fig41Chunk = 50

// fig41MinInstances is the least number of instances a run decides
// before it may stop.
const fig41MinInstances = 100

// figInput is one serialized instance and its known answer, from the
// CDCL solver of internal/sat on the source formula: the instance is
// coherent iff the formula is satisfiable (Lemma 4.3).
type figInput struct {
	text        string
	ops         int
	satisfiable bool
}

// randomFormula draws m variables and 2m clauses of one to three
// literals, the family the repository's Figure 4.1 benchmarks use.
func randomFormula(rng *rand.Rand, m int) *sat.Formula {
	f := &sat.Formula{NumVars: m}
	for j := 0; j < 2*m; j++ {
		c := make(sat.Clause, 1+rng.Intn(3))
		for k := range c {
			c[k] = sat.Lit(1 + rng.Intn(m))
			if rng.Intn(2) == 0 {
				c[k] = c[k].Neg()
			}
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// figChunk generates n instances with their known answers.
func figChunk(rng *rand.Rand, m, n int) ([]figInput, error) {
	out := make([]figInput, n)
	for i := range out {
		q := randomFormula(rng, m)
		inst, err := reduction.SATToVMC(q)
		if err != nil {
			return nil, err
		}
		sr, err := sat.SolveCDCL(q)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := trace.Write(&b, trace.New(inst.Exec)); err != nil {
			return nil, err
		}
		out[i] = figInput{text: b.String(), ops: inst.Exec.NumMemoryOps(), satisfiable: sr.Satisfiable}
	}
	return out, nil
}

// figVerdict is the untraced path: text to verdict through the facade.
// A budget trip is an undecided verdict, not an error.
func figVerdict(ctx context.Context, v *coherence.Verifier, text string) (coherence.ResilientVerdict, error) {
	tr, err := trace.Read(strings.NewReader(text))
	if err != nil {
		return 0, err
	}
	rep, err := v.Verify(ctx, tr.Exec)
	if _, ok := solver.AsBudgetError(err); ok {
		return coherence.VerdictUnknown, nil
	}
	if err != nil {
		return 0, err
	}
	return rep.Verdict, nil
}

// solveAddr runs one per-address solve under a span that also records
// its allocation, and reports its verdict, stats and whether it was
// decided within the budget.
func solveAddr(ctx context.Context, t *tracer, name string, parent, input int, v *coherence.Verifier, tr *trace.Trace) (*coherence.AddrReport, bool, error) {
	a := tr.Exec.Addresses()[0]
	s := t.beginAlloc(name, parent, input)
	ar, err := v.SolveAddr(ctx, tr.Exec, a)
	t.endAlloc(s)
	if _, ok := solver.AsBudgetError(err); ok {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return ar, ar.Verdict != coherence.VerdictUnknown, nil
}

// figVerifiers are the configurations the traced run compares on every
// instance.
type figVerifiers struct {
	auto, fastProbe, exact, psearch *coherence.Verifier
}

func newFigVerifiers() figVerifiers {
	limit := solver.WithTimeout(fig41Limit)
	return figVerifiers{
		auto: coherence.NewVerifier(solver.WithBudget(limit)),
		// A one-state budget stops StrategyFast as soon as the fast path
		// is inconclusive and it would escalate (the fast path itself
		// ignores state budgets), so the call time is the fast path's.
		fastProbe: coherence.NewVerifier(solver.WithStrategy(solver.StrategyFast), solver.WithBudget(solver.WithMaxStates(1))),
		exact:     coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(limit)),
		psearch: coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact),
			solver.WithBudget(limit, solver.WithParallelSearch(runtime.NumCPU()))),
	}
}

// figLayers accumulates the traced run's per-instance layer figures.
type figLayers struct {
	inputs, fastDecided         int
	fastInconclusiveMS          []float64
	exactMS, psearchMS, speedup []float64
	states                      []float64
	memoHits, memoMisses        int
	slowdowns                   int
}

// figTraced runs one instance through each layer under spans: ingest,
// the auto facade, the fast path probe, the exact search and the
// parallel search. Every ACCEPT's certificate is re-checked; only the
// auto one's check is timed as memory.CheckCoherent.
func figTraced(ctx context.Context, t *tracer, fv figVerifiers, in figInput, input int, o *outcome, l *figLayers) (time.Duration, error) {
	t0 := time.Now()
	root := t.begin("input", 0, input)
	s := t.begin("trace.Read", root, input)
	tr, err := trace.Read(strings.NewReader(in.text))
	t.end(s)
	if err != nil {
		t.end(root)
		return 0, err
	}
	s = t.begin("memory.Validate", root, input)
	err = tr.Exec.Validate()
	t.end(s)
	if err != nil {
		t.end(root)
		return 0, err
	}
	s = t.beginAlloc("memory.Project", root, input)
	tr.Exec.Project(tr.Exec.Addresses()[0])
	t.endAlloc(s)
	ar, decided, err := solveAddr(ctx, t, "auto.SolveAddr", root, input, fv.auto, tr)
	if err == nil && decided {
		o.check(ar.Verdict, in.satisfiable)
		err = recheck(t, root, input, tr.Exec, ar)
	}
	t.end(root)
	traced := time.Since(t0)
	if err != nil {
		return 0, err
	}

	l.inputs++
	t0 = time.Now()
	ar, decided, err = solveAddr(ctx, t, "fast.SolveAddr", 0, input, fv.fastProbe, tr)
	if err != nil {
		return 0, err
	}
	if decided && ar.Rung == coherence.RungFast {
		l.fastDecided++
		o.check(ar.Verdict, in.satisfiable)
		if err := recheck(nil, 0, 0, tr.Exec, ar); err != nil {
			return 0, err
		}
	} else {
		l.fastInconclusiveMS = append(l.fastInconclusiveMS, ms(time.Since(t0)))
	}

	t0 = time.Now()
	ar, decided, err = solveAddr(ctx, t, "exact.SolveAddr", 0, input, fv.exact, tr)
	if err != nil {
		return 0, err
	}
	exactMS := ms(time.Since(t0))
	l.exactMS = append(l.exactMS, exactMS)
	if decided {
		o.check(ar.Verdict, in.satisfiable)
		if err := recheck(nil, 0, 0, tr.Exec, ar); err != nil {
			return 0, err
		}
		l.states = append(l.states, float64(ar.Stats.States))
		l.memoHits += ar.Stats.MemoHits
		l.memoMisses += ar.Stats.MemoMisses
	}

	t0 = time.Now()
	ar, decided, err = solveAddr(ctx, t, "psearch.SolveAddr", 0, input, fv.psearch, tr)
	if err != nil {
		return 0, err
	}
	psMS := ms(time.Since(t0))
	l.psearchMS = append(l.psearchMS, psMS)
	l.speedup = append(l.speedup, ratio(exactMS, psMS))
	if psMS > exactMS {
		l.slowdowns++
	}
	if decided {
		o.check(ar.Verdict, in.satisfiable)
		if err := recheck(nil, 0, 0, tr.Exec, ar); err != nil {
			return 0, err
		}
	}
	return traced, nil
}

func runFig41(ctx context.Context, cfg config) (*outcome, error) {
	chunk, minInstances := fig41Chunk, fig41MinInstances
	m := fig41Vars
	if cfg.quick {
		chunk, minInstances, m = 10, 10, 3
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	fv := newFigVerifiers()
	out := &outcome{rep: newReport()}
	if cfg.traced {
		out.tr = newTracer()
	}
	var layers figLayers
	var setup, verdictMS, untracedMS, tracedMS []float64
	var ops, decided int
	var busy time.Duration
	start := time.Now()
	for round := 0; ; round++ {
		t0 := time.Now()
		batch, err := figChunk(rng, m, chunk)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if cfg.plantWrong && round == 0 {
			// A planted wrong answer must meet a decided verdict: pick the
			// first instance and trust the fixed limit to decide it.
			batch[0].satisfiable = !batch[0].satisfiable
		}
		for _, in := range batch {
			out.attempted++
			t0 := time.Now()
			verdict, err := figVerdict(ctx, fv.auto, in.text)
			d := time.Since(t0)
			busy += d
			if err != nil {
				out.fail(err)
				continue
			}
			out.check(verdict, in.satisfiable)
			verdictMS = append(verdictMS, ms(d))
			ops += in.ops
			if verdict != coherence.VerdictUnknown {
				decided++
			}
			if !cfg.traced {
				continue
			}
			traced, err := figTraced(ctx, out.tr, fv, in, out.attempted, out, &layers)
			if err != nil {
				out.fail(err)
				continue
			}
			untracedMS = append(untracedMS, ms(d))
			tracedMS = append(tracedMS, ms(traced))
		}
		done := busy
		if cfg.traced {
			done = time.Since(start)
		}
		if done >= cfg.duration() && (cfg.traced || len(verdictMS) >= minInstances) {
			break
		}
	}

	r := out.rep
	if !cfg.traced {
		return out, r.closedLoop(out, setup, verdictMS, ops, decided, busy)
	}
	t := out.tr
	r.ingestLayers(t)
	r.setQuantile("fast.solve_ms", "ms", t.perInput("fast.SolveAddr", false), 0.5)
	r.setQuantile("fast.alloc_mb", "MB", t.perInput("fast.SolveAddr", true), 0.5)
	r.set("fast.decided_frac", "ratio", ratio(float64(layers.fastDecided), float64(layers.inputs)), layers.inputs)
	r.setQuantile("fast.inconclusive_ms_p50", "ms", layers.fastInconclusiveMS, 0.5)
	r.setQuantile("search.ms_p50", "ms", layers.exactMS, 0.5)
	r.setQuantile("search.states", "count", layers.states, 0.5)
	r.set("search.states_per_s", "states/s", ratio(sum(layers.states), sum(layers.exactMS)/1000), len(layers.states))
	r.set("search.memo_hit_rate", "ratio",
		ratio(float64(layers.memoHits), float64(layers.memoHits+layers.memoMisses)), len(layers.states))
	r.setQuantile("psearch.ms_p50", "ms", layers.psearchMS, 0.5)
	r.setQuantile("psearch.speedup_p50", "ratio", layers.speedup, 0.5)
	r.set("psearch.slowdown_frac", "ratio", ratio(float64(layers.slowdowns), float64(len(layers.speedup))), len(layers.speedup))
	r.tracedTotals(untracedMS, tracedMS)
	return out, nil
}
