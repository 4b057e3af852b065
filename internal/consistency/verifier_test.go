package consistency

import (
	"context"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
)

// TestCoherenceVerdictMapping pins how the per-address models map the
// coherence ladder's three-valued verdict onto a Result, on the
// satisfiable Figure 4.1 instance of (x1∨x2)(¬x1∨x3)(¬x2∨¬x3)(x1∨¬x3)
// (acquire/release-bracketed for LRC). Under a one-state budget the
// auto ladder stops with a budget error, while the resilient ladder
// ends Unknown: an undecided Result, neither a violation nor (for VSCC)
// a broken promise.
func TestCoherenceVerdictMapping(t *testing.T) {
	q := sat.NewFormula(sat.Clause{1, 2}, sat.Clause{-1, 3}, sat.Clause{-2, -3}, sat.Clause{1, -3})
	plain, err := reduction.SATToVMC(q)
	if err != nil {
		t.Fatal(err)
	}
	synced, err := reduction.SATToVMCSynchronized(q)
	if err != nil {
		t.Fatal(err)
	}
	tight := solver.WithBudget(solver.WithMaxStates(1))
	for _, model := range []Model{CoherenceOnly, LRC, VSCC} {
		exec := plain.Exec
		if model == LRC {
			exec = synced.Exec
		}
		for _, tc := range []struct {
			name        string
			opts        []solver.ConfigOption
			budgetError bool
			decided     bool
		}{
			{"unbounded", nil, false, true},
			{"auto", []solver.ConfigOption{tight}, true, false},
			{"resilient", []solver.ConfigOption{tight, solver.WithStrategy(solver.StrategyResilient)}, false, false},
		} {
			t.Run(model.String()+"/"+tc.name, func(t *testing.T) {
				res, err := NewVerifier(model, tc.opts...).Verify(context.Background(), exec)
				if tc.budgetError {
					if _, ok := solver.AsBudgetError(err); !ok {
						t.Fatalf("want a budget error, got %v (%+v)", err, res)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Decided != tc.decided || res.Consistent != tc.decided {
					t.Errorf("got Consistent=%v Decided=%v, want both %v", res.Consistent, res.Decided, tc.decided)
				}
			})
		}
	}
}

// TestSCWriteOrderOptInValidation: explicitly supplying write orders —
// even none — selects the constrained solver, which rejects incomplete
// order sets instead of silently searching unconstrained.
func TestSCWriteOrderOptInValidation(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 1)},
	).SetInitial(0, 0)
	if _, err := NewVerifier(SC, solver.WithWriteOrders(nil)).Verify(context.Background(), exec); err == nil {
		t.Error("nil write orders accepted for an execution with writes")
	}
	// Without the option the unconstrained search runs.
	res, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil || !res.Consistent {
		t.Errorf("unconstrained SC failed: %v %+v", err, res)
	}
}

// TestParseModel pins the shared model vocabulary used by HTTP params
// and CLI flags.
func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Model
	}{
		{"", SC}, {"sc", SC}, {"SC", SC}, {"tso", TSO}, {"PSO", PSO},
		{"coherence", CoherenceOnly}, {"lrc", LRC}, {"vscc", VSCC},
	} {
		got, err := ParseModel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseModel("weird"); err == nil {
		t.Error("unknown model accepted")
	}
}
