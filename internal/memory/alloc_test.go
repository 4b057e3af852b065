package memory_test

import (
	"context"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/memory"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

// relayCertificate builds a coherent relay trace of about ops memory
// operations and its certificate schedule.
func relayCertificate(tb testing.TB, ops int) (*memory.Execution, memory.Schedule) {
	tb.Helper()
	const procs, decoys = 4, 8
	exec := workload.GenerateRelay(workload.RelayConfig{
		Processors: procs, Rounds: ops / (procs * (decoys + 2)), Decoys: decoys,
	})
	v := coherence.NewVerifier(solver.WithStrategy(solver.StrategyFast))
	ar, err := v.SolveAddr(context.Background(), exec, 0)
	if err != nil || ar.Result == nil || !ar.Result.Coherent {
		tb.Fatalf("relay of %d ops not proven coherent: %+v, %v", ops, ar, err)
	}
	return exec, ar.Result.Schedule
}

// TestCheckCoherentAllocs guards the dense certificate check: it makes a
// small constant number of allocations, independent of the trace size.
func TestCheckCoherentAllocs(t *testing.T) {
	allocs := func(ops int) float64 {
		exec, s := relayCertificate(t, ops)
		return testing.AllocsPerRun(20, func() {
			if err := memory.CheckCoherent(exec, 0, s); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if small != large || large > 4 {
		t.Errorf("CheckCoherent allocations: %v at 10^3 ops, %v at 10^4 ops; want the same small constant", small, large)
	}
}

func BenchmarkCheckCoherentRelay(b *testing.B) {
	exec, s := relayCertificate(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := memory.CheckCoherent(exec, 0, s); err != nil {
			b.Fatal(err)
		}
	}
}
