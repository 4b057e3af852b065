package coherence

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

// racingInstance generates an execution of 24 to 39 operations at
// address 0, coherent by construction (the generation order is a
// witness schedule). With incoherent=true one read is corrupted to a
// value nothing ever writes; the second result is the verdict.
func racingInstance(rng *rand.Rand, incoherent bool) (*memory.Execution, bool) {
	const nproc = 3
	nops := 24 + rng.Intn(16)
	exec := &memory.Execution{Histories: make([]memory.History, nproc)}
	exec.SetInitial(0, 0)
	cur := memory.Value(0)
	readRefs := []memory.Ref{}
	for i := 0; i < nops; i++ {
		p := rng.Intn(nproc)
		if rng.Intn(3) == 0 {
			// Values repeat, so the read-map specialist is inapplicable
			// and the search has to decide.
			cur = memory.Value(1 + rng.Intn(3))
			exec.Histories[p] = append(exec.Histories[p], memory.W(0, cur))
		} else {
			readRefs = append(readRefs, memory.Ref{Proc: p, Index: len(exec.Histories[p])})
			exec.Histories[p] = append(exec.Histories[p], memory.R(0, cur))
		}
	}
	if incoherent && len(readRefs) > 0 {
		r := readRefs[rng.Intn(len(readRefs))]
		exec.Histories[r.Proc][r.Index].Data = 9999
		return exec, false
	}
	return exec, true
}

// ladderInput is one execution of the ladder oracle with its known
// per-address verdicts and a recorded write order per address.
type ladderInput struct {
	exec   *memory.Execution
	want   map[memory.Addr]bool
	orders map[memory.Addr][]memory.Ref
}

// certificateOrder extracts the write order of a coherent certificate.
func certificateOrder(exec *memory.Execution, sched memory.Schedule) []memory.Ref {
	var order []memory.Ref
	for _, r := range sched {
		if _, ok := exec.Op(r).Writes(); ok {
			order = append(order, r)
		}
	}
	return order
}

// ladderInputs builds the oracle's inputs: tiny random instances judged
// by brute force, coherent-by-construction traces with their generated
// write orders, search-sized racing instances with construction
// verdicts, and a two-address execution whose hard address only the
// write-order rung can decide under a small budget (the rung then runs
// on the batch driver's slice back-map).
func ladderInputs(t *testing.T) []ladderInput {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	var ins []ladderInput
	for i := 0; i < 120; i++ {
		exec := randomInstance(rng)
		if exec.Validate() != nil {
			continue
		}
		want, sched := bruteForceCoherent(exec, 0)
		in := ladderInput{exec: exec, want: map[memory.Addr]bool{0: want}}
		if want {
			in.orders = map[memory.Addr][]memory.Ref{0: certificateOrder(exec, sched)}
		}
		ins = append(ins, in)
	}
	for i := 0; i < 40; i++ {
		exec, order := randomCoherentTrace(rng, 2+rng.Intn(2), 2+rng.Intn(4), 1+rng.Intn(3))
		ins = append(ins, ladderInput{exec: exec, want: map[memory.Addr]bool{0: true},
			orders: map[memory.Addr][]memory.Ref{0: order}})
	}
	for i := 0; i < 12; i++ {
		exec, want := racingInstance(rng, i%2 == 1)
		ins = append(ins, ladderInput{exec: exec, want: map[memory.Addr]bool{0: want}})
	}

	two := manyWriteExecution()
	two.Histories[0] = append(two.Histories[0], memory.W(1, 5))
	two.Histories[1] = append(two.Histories[1], memory.R(1, 5))
	two.SetInitial(1, 0)
	ar, err := NewVerifier().SolveAddr(context.Background(), two, 0)
	if err != nil || ar.Verdict != VerdictCoherent {
		t.Fatalf("two-address input: %v %+v", err, ar)
	}
	ins = append(ins, ladderInput{exec: two, want: map[memory.Addr]bool{0: true, 1: true},
		orders: map[memory.Addr][]memory.Ref{0: certificateOrder(two, ar.Result.Schedule)}})
	return ins
}

// TestLadderOracle is the one oracle over every verdict path: each
// strategy, with and without the parallel search, through SolveAddr and
// through SolveBatch, on the same inputs. Decided verdicts must match
// the known answer, every ACCEPT's certificate must pass
// memory.CheckCoherent, and the batch must agree with SolveAddr on
// verdict, rung and error — and, sequentially, on algorithm and states.
// The budgeted resilient rows supply the recorded write orders, so the
// degrade rungs run too. However many rungs an address climbs, it counts
// as one solve in the live metrics.
func TestLadderOracle(t *testing.T) {
	ctx := context.Background()
	ins := ladderInputs(t)
	type row struct {
		strat     solver.Strategy
		psearch   int
		maxStates int
		orders    bool
	}
	var rows []row
	for _, s := range []solver.Strategy{solver.StrategyExact, solver.StrategyAuto, solver.StrategyFast, solver.StrategyResilient} {
		for _, ps := range []int{0, 2} {
			rows = append(rows, row{strat: s, psearch: ps})
		}
	}
	rows = append(rows,
		row{strat: solver.StrategyResilient, maxStates: 3, orders: true},
		row{strat: solver.StrategyResilient, psearch: 2, maxStates: 3, orders: true})

	rungs := map[Rung]int{}
	for _, rw := range rows {
		name := fmt.Sprintf("%v/psearch=%d/max=%d/orders=%v", rw.strat, rw.psearch, rw.maxStates, rw.orders)
		m := obs.NewMetrics()
		mctx := obs.With(ctx, &obs.Observer{Metrics: m})
		solves := int64(0)
		for n, in := range ins {
			cfg := []solver.ConfigOption{
				solver.WithStrategy(rw.strat),
				solver.WithBudget(solver.WithParallelSearch(rw.psearch), solver.WithMaxStates(rw.maxStates)),
			}
			if rw.orders {
				cfg = append(cfg, solver.WithWriteOrders(in.orders))
			}
			v := NewVerifier(cfg...)
			var jobs []BatchJob
			for _, a := range in.exec.Addresses() {
				jobs = append(jobs, BatchJob{Exec: in.exec, Addr: a})
			}
			batch := v.SolveBatch(ctx, jobs)
			for j, job := range jobs {
				label := fmt.Sprintf("%s input %d addr %d", name, n, job.Addr)
				ar, err := v.SolveAddr(mctx, in.exec, job.Addr)
				solves++
				br := &batch[j]
				if (err == nil) != (br.Err == nil) {
					t.Fatalf("%s: error mismatch: SolveAddr %v, SolveBatch %v", label, err, br.Err)
				}
				if err != nil {
					if _, ok := solver.AsBudgetError(err); !ok || rw.maxStates == 0 {
						t.Fatalf("%s: unexpected error %v", label, err)
					}
					continue
				}
				bar := br.Report(job.Addr)
				if ar.Verdict != bar.Verdict || ar.Rung != bar.Rung {
					t.Fatalf("%s: SolveAddr (%v, %v) vs SolveBatch (%v, %v)", label, ar.Verdict, ar.Rung, bar.Verdict, bar.Rung)
				}
				if rw.psearch == 0 && ar.Result != nil &&
					(ar.Result.Algorithm != br.Result.Algorithm || ar.Stats.States != br.Result.Stats.States) {
					t.Fatalf("%s: SolveAddr (%s, %d states) vs SolveBatch (%s, %d states)", label,
						ar.Result.Algorithm, ar.Stats.States, br.Result.Algorithm, br.Result.Stats.States)
				}
				rungs[ar.Rung]++
				if ar.Verdict == VerdictUnknown {
					continue
				}
				if got := ar.Verdict == VerdictCoherent; got != in.want[job.Addr] {
					t.Fatalf("%s: verdict %v (%s), want coherent=%v\nhistories=%v", label, ar.Verdict, ar.Result.Algorithm, in.want[job.Addr], in.exec.Histories)
				}
				if ar.Verdict == VerdictCoherent {
					if err := memory.CheckCoherent(in.exec, job.Addr, ar.Result.Schedule); err != nil {
						t.Fatalf("%s: invalid SolveAddr certificate: %v", label, err)
					}
					if err := memory.CheckCoherent(in.exec, job.Addr, br.Result.Schedule); err != nil {
						t.Fatalf("%s: invalid SolveBatch certificate: %v", label, err)
					}
				}
			}
		}
		if s := m.Snapshot(); s.Solves != solves || s.SolvesDone != solves {
			t.Errorf("%s: metrics count %d/%d solves for %d addresses", name, s.SolvesDone, s.Solves, solves)
		}
	}
	for _, r := range []Rung{RungFast, RungExact, RungWriteOrder, RungSpecialist, RungNecessary} {
		if rungs[r] == 0 {
			t.Errorf("no input decided at rung %s: %v", r, rungs)
		}
	}
}

// TestLadderOneDeadline: Options.Timeout bounds the whole ladder of an
// address, not each rung. A relay trace with the ambiguous gadget on
// fresh values keeps the fast path busy and then inconclusive, and the
// exact search cannot finish; a timeout of 1.5× the fast rung's own
// time must stop StrategyFast within 1.25× the timeout (a per-rung
// deadline restarts at the search and takes about 1.6×).
func TestLadderOneDeadline(t *testing.T) {
	exec := workload.GenerateRelay(workload.RelayConfig{Processors: 4, Rounds: 2000, Decoys: 8})
	a, b := memory.Value(-1), memory.Value(-2)
	exec.Histories = append(exec.Histories,
		memory.History{memory.W(0, a)},
		memory.History{memory.W(0, b)},
		memory.History{memory.R(0, a), memory.R(0, b), memory.R(0, a)})
	ctx := context.Background()

	// The fast rung's time: under a 1-state budget the search trips at
	// once, so the solve costs the fast rung plus ingest.
	probe := NewVerifier(solver.WithStrategy(solver.StrategyFast), solver.WithBudget(solver.WithMaxStates(1)))
	runtime.GC()
	t0 := time.Now()
	_, err := probe.SolveAddr(ctx, exec, 0)
	fastTime := time.Since(t0)
	if be, ok := solver.AsBudgetError(err); !ok || be.Reason != solver.ExceededStates {
		t.Fatalf("1-state probe: %v, want a state-budget trip after an inconclusive fast rung", err)
	}

	timeout := fastTime * 3 / 2
	v := NewVerifier(solver.WithStrategy(solver.StrategyFast), solver.WithBudget(solver.WithTimeout(timeout)))
	runtime.GC()
	t0 = time.Now()
	_, err = v.SolveAddr(ctx, exec, 0)
	elapsed := time.Since(t0)
	if be, ok := solver.AsBudgetError(err); !ok || be.Reason != solver.ExceededDeadline {
		t.Fatalf("timed solve: %v, want a deadline trip", err)
	}
	t.Logf("fast rung %v, timeout %v, elapsed %v (%.2f×)", fastTime, timeout, elapsed, float64(elapsed)/float64(timeout))
	if elapsed > timeout*5/4 {
		t.Errorf("StrategyFast ran %v under a %v timeout (%.2f×), want at most 1.25×",
			elapsed, timeout, float64(elapsed)/float64(timeout))
	}
}
