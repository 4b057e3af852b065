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

// solveExact decides one address with the exact search alone.
func solveExact(ctx context.Context, exec *memory.Execution, addr memory.Addr, opts *Options) (*Result, error) {
	return solveWith(ctx, exec, addr, solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts))
}

// solveAuto decides one address under the default strategy.
func solveAuto(ctx context.Context, exec *memory.Execution, addr memory.Addr, opts *Options) (*Result, error) {
	return solveWith(ctx, exec, addr, solver.WithOptions(opts))
}

// solveWith runs SolveAddr under cfg and returns the deciding Result.
func solveWith(ctx context.Context, exec *memory.Execution, addr memory.Addr, cfg ...solver.ConfigOption) (*Result, error) {
	ar, err := NewVerifier(cfg...).SolveAddr(ctx, exec, addr)
	if err != nil {
		return nil, err
	}
	return ar.Result, nil
}

// sameReport pins two reports to identical per-address verdicts,
// schedules and deterministic stats.
func sameReport(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.Verdict != b.Verdict || len(a.Addrs) != len(b.Addrs) {
		t.Fatalf("%s: report mismatch: %v/%d vs %v/%d", label, a.Verdict, len(a.Addrs), b.Verdict, len(b.Addrs))
	}
	for i := range a.Addrs {
		x, y := &a.Addrs[i], &b.Addrs[i]
		if x.Addr != y.Addr || x.Verdict != y.Verdict || x.Rung != y.Rung {
			t.Errorf("%s: addr %d: (%v,%v) vs addr %d: (%v,%v)", label, x.Addr, x.Verdict, x.Rung, y.Addr, y.Verdict, y.Rung)
		}
		sameResult(t, label, x.Result, y.Result)
	}
}

// TestVerifyWorkersAgree: on randomized trials, parallel Verify (4
// workers) returns exactly what sequential Verify does.
func TestVerifyWorkersAgree(t *testing.T) {
	ctx := context.Background()
	for n, tc := range parityTraces(t, 24) {
		seq, err := NewVerifier().Verify(ctx, tc.exec)
		if err != nil {
			t.Fatalf("trial %d: %v", n, err)
		}
		par, err := NewVerifier(solver.WithWorkers(4)).Verify(ctx, tc.exec)
		if err != nil {
			t.Fatalf("trial %d: parallel: %v", n, err)
		}
		sameReport(t, "parallel-vs-sequential", seq, par)
	}
}

// TestVerifyCheckpointAgrees: on randomized trials, a fresh
// VerifyCheckpoint returns exactly what sequential Verify does.
func TestVerifyCheckpointAgrees(t *testing.T) {
	ctx := context.Background()
	for n, tc := range parityTraces(t, 24) {
		seq, err := NewVerifier().Verify(ctx, tc.exec)
		if err != nil {
			t.Fatalf("trial %d: %v", n, err)
		}
		ck, err := NewVerifier().VerifyCheckpoint(ctx, tc.exec, nil)
		if err != nil {
			t.Fatalf("trial %d: checkpoint: %v", n, err)
		}
		if ck.Checkpoint != nil {
			t.Fatalf("trial %d: unexpected checkpoint on unbudgeted run", n)
		}
		sameReport(t, "checkpoint-vs-sequential", seq, ck)
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
