package coherence

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

// parityTraces generates the randomized trial set for the oracle-parity
// tests: coherent traces by construction, half of them mutated with an
// injected violation, plus their generated write orders.
func parityTraces(t *testing.T, trials int) []struct {
	exec   *memory.Execution
	orders map[memory.Addr][]memory.Ref
} {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	var out []struct {
		exec   *memory.Execution
		orders map[memory.Addr][]memory.Ref
	}
	kinds := workload.ViolationKinds()
	for i := 0; i < trials; i++ {
		exec, orders := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 2 + rng.Intn(3),
			OpsPerProc: 4 + rng.Intn(8),
			Addresses:  1 + rng.Intn(3),
			Values:     3,
		})
		if i%2 == 1 {
			mut, err := workload.Inject(rng, exec, kinds[rng.Intn(len(kinds))])
			if err == nil {
				exec = mut
			}
		}
		out = append(out, struct {
			exec   *memory.Execution
			orders map[memory.Addr][]memory.Ref
		}{exec, orders})
	}
	return out
}

// normStats strips wall-clock time, the only nondeterministic Stats
// field, so runs are comparable.
func normStats(s solver.Stats) solver.Stats {
	s.Duration = 0
	return s
}

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch (%v vs %v)", label, a, b)
	}
	if a == nil {
		return
	}
	if a.Coherent != b.Coherent || a.Decided != b.Decided || a.Algorithm != b.Algorithm {
		t.Errorf("%s: verdict mismatch: (%v,%v,%s) vs (%v,%v,%s)",
			label, a.Coherent, a.Decided, a.Algorithm, b.Coherent, b.Decided, b.Algorithm)
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Errorf("%s: schedule mismatch:\n%v\n%v", label, a.Schedule, b.Schedule)
	}
	if normStats(a.Stats) != normStats(b.Stats) {
		t.Errorf("%s: stats mismatch:\n%+v\n%+v", label, normStats(a.Stats), normStats(b.Stats))
	}
}

// TestFacadeWrapperParity pins every deprecated entry point to the
// facade: on randomized trials, wrapper and facade must return identical
// verdicts, schedules and (deterministic) stats.
func TestFacadeWrapperParity(t *testing.T) {
	ctx := context.Background()
	for n, tc := range parityTraces(t, 24) {
		exec := tc.exec
		for _, addr := range exec.Addresses() {
			// Solve / StrategyExact.
			wr, werr := Solve(ctx, exec, addr, nil)
			fr, ferr := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, exec, addr)
			if (werr == nil) != (ferr == nil) {
				t.Fatalf("trial %d addr %d: Solve error mismatch: %v vs %v", n, addr, werr, ferr)
			}
			sameResult(t, "Solve", wr, fr)

			// SolveAuto / default strategy.
			wr, werr = SolveAuto(ctx, exec, addr, nil)
			fr, ferr = NewVerifier().Solve(ctx, exec, addr)
			if (werr == nil) != (ferr == nil) {
				t.Fatalf("trial %d addr %d: SolveAuto error mismatch: %v vs %v", n, addr, werr, ferr)
			}
			sameResult(t, "SolveAuto", wr, fr)

			// SolveResilient / StrategyResilient + write orders.
			worder := tc.orders[addr]
			rr, werr := SolveResilient(ctx, exec, addr, worder, nil)
			far, ferr := NewVerifier(solver.WithStrategy(solver.StrategyResilient),
				solver.WithWriteOrders(tc.orders)).SolveAddr(ctx, exec, addr)
			if werr != nil || ferr != nil {
				t.Fatalf("trial %d addr %d: resilient errors: %v / %v", n, addr, werr, ferr)
			}
			if rr.Verdict != far.Verdict || rr.Rung != far.Rung {
				t.Errorf("trial %d addr %d: resilient mismatch: (%v,%v) vs (%v,%v)",
					n, addr, rr.Verdict, rr.Rung, far.Verdict, far.Rung)
			}
			sameResult(t, "SolveResilient", rr.Result, far.Result)
		}

		// VerifyExecution / facade Verify.
		wm, werr := VerifyExecution(ctx, exec, nil)
		rep, ferr := NewVerifier().Verify(ctx, exec)
		if werr != nil || ferr != nil {
			t.Fatalf("trial %d: VerifyExecution errors: %v / %v", n, werr, ferr)
		}
		fm := rep.Results()
		if len(wm) != len(fm) {
			t.Fatalf("trial %d: result map sizes differ: %d vs %d", n, len(wm), len(fm))
		}
		for a, r := range wm {
			sameResult(t, "VerifyExecution", r, fm[a])
		}

		// VerifyExecutionParallel / WithWorkers.
		pm, werr := VerifyExecutionParallel(ctx, exec, nil, 4)
		prep, ferr := NewVerifier(solver.WithWorkers(4)).Verify(ctx, exec)
		if werr != nil || ferr != nil {
			t.Fatalf("trial %d: parallel errors: %v / %v", n, werr, ferr)
		}
		for a, r := range pm {
			sameResult(t, "VerifyExecutionParallel", r, prep.Results()[a])
		}
		// Parallel and sequential agree too.
		for a, r := range wm {
			sameResult(t, "parallel-vs-sequential", r, pm[a])
		}

		// Coherent / Report.FirstViolation.
		ok, bad, err := Coherent(ctx, exec, nil)
		if err != nil {
			t.Fatalf("trial %d: Coherent: %v", n, err)
		}
		if ok != rep.Coherent() {
			t.Errorf("trial %d: Coherent=%v but report verdict %v", n, ok, rep.Verdict)
		}
		if fa, violated := rep.FirstViolation(); violated != !ok || (violated && fa != bad) {
			t.Errorf("trial %d: FirstViolation (%v,%v) vs Coherent (%v,%v)", n, fa, violated, bad, ok)
		}

		// VerifyExecutionResilient / resilient Verify.
		rm, werr := VerifyExecutionResilient(ctx, exec, tc.orders, nil)
		rrep, ferr := NewVerifier(solver.WithStrategy(solver.StrategyResilient),
			solver.WithWriteOrders(tc.orders)).Verify(ctx, exec)
		if werr != nil || ferr != nil {
			t.Fatalf("trial %d: resilient verify errors: %v / %v", n, werr, ferr)
		}
		for i := range rrep.Addrs {
			ar := &rrep.Addrs[i]
			wr := rm[ar.Addr]
			if wr == nil || wr.Verdict != ar.Verdict {
				t.Errorf("trial %d addr %d: resilient verify mismatch", n, ar.Addr)
			}
		}
	}
}

// TestFacadeCheckpointParity pins VerifyExecutionCheckpoint to the
// facade's VerifyCheckpoint on a fresh (non-resumed) run.
func TestFacadeCheckpointParity(t *testing.T) {
	ctx := context.Background()
	for n, tc := range parityTraces(t, 6) {
		wm, wck, werr := VerifyExecutionCheckpoint(ctx, tc.exec, nil, nil)
		rep, ferr := NewVerifier().VerifyCheckpoint(ctx, tc.exec, nil)
		if werr != nil || ferr != nil {
			t.Fatalf("trial %d: checkpoint errors: %v / %v", n, werr, ferr)
		}
		if wck != nil || rep.Checkpoint != nil {
			t.Fatalf("trial %d: unexpected checkpoint on unbudgeted run", n)
		}
		fm := rep.Results()
		if len(wm) != len(fm) {
			t.Fatalf("trial %d: map sizes differ", n)
		}
		for a, r := range wm {
			sameResult(t, "VerifyExecutionCheckpoint", r, fm[a])
		}
	}
}

// TestVerifierReportShape pins the Report invariants the service relies
// on: Addrs sorted ascending, aggregate stats equal to the per-address
// sum, and AddressesByHardness a permutation of Addresses.
func TestVerifierReportShape(t *testing.T) {
	for _, tc := range parityTraces(t, 8) {
		rep, err := NewVerifier().Verify(context.Background(), tc.exec)
		if err != nil {
			t.Fatal(err)
		}
		var agg Stats
		for i := range rep.Addrs {
			if i > 0 && rep.Addrs[i-1].Addr >= rep.Addrs[i].Addr {
				t.Fatalf("Addrs not sorted: %v >= %v", rep.Addrs[i-1].Addr, rep.Addrs[i].Addr)
			}
			agg.Merge(rep.Addrs[i].Stats)
		}
		if normStats(agg) != normStats(rep.Stats) {
			t.Errorf("aggregate stats mismatch:\n%+v\n%+v", agg, rep.Stats)
		}
		byHard := AddressesByHardness(tc.exec)
		if len(byHard) != len(tc.exec.Addresses()) {
			t.Fatalf("AddressesByHardness dropped addresses")
		}
		seen := map[memory.Addr]bool{}
		for _, a := range byHard {
			if seen[a] {
				t.Fatalf("AddressesByHardness duplicated %v", a)
			}
			seen[a] = true
		}
	}
}
