package solver

import "memverify/internal/memory"

// Verdict is the common shape of a verification outcome, implemented by
// both coherence.Result and consistency.Result. It lets callers (most
// notably cmd/vmcheck) render one report format for every memory model
// instead of maintaining per-model code paths.
type Verdict interface {
	// Holds reports whether the verified property holds (a coherent
	// schedule / consistent serialization exists).
	Holds() bool
	// IsDecided reports whether the solver established an answer. It
	// is false only when a StrategyResilient ladder ended Unknown;
	// budget trips otherwise surface as *ErrBudgetExceeded errors.
	IsDecided() bool
	// AlgorithmName names the algorithm that produced the verdict.
	AlgorithmName() string
	// SolverStats describes the work performed.
	SolverStats() Stats
	// Certificate returns the witness schedule when Holds (nil
	// otherwise, and nil for checkers whose witness is not a schedule).
	Certificate() memory.Schedule
}
