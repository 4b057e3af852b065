package coherence

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// ambiguousGadget is the smallest instance the fast path leaves
// inconclusive: W a | W b | R a R b R a on fresh values. It is
// incoherent (a is written once, so it cannot be read again after b),
// and the read-map specialist refutes it.
func ambiguousGadget() *memory.Execution {
	return memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
		memory.History{memory.R(0, 1), memory.R(0, 2), memory.R(0, 1)},
	).SetInitial(0, 0)
}

// writeHeavyExecution emits nops operations at address 0 over nproc
// histories, half of them writes of values 1..nvals. It is coherent by
// construction — the emission order is a witness — and the repeated
// values defeat every Figure 5.3 row.
func writeHeavyExecution(seed int64, nproc, nops, nvals int) *memory.Execution {
	rng := rand.New(rand.NewSource(seed))
	exec := &memory.Execution{Histories: make([]memory.History, nproc)}
	exec.SetInitial(0, 0)
	cur := memory.Value(0)
	for i := 0; i < nops; i++ {
		p := rng.Intn(nproc)
		if rng.Intn(2) == 0 {
			cur = memory.Value(1 + rng.Intn(nvals))
			exec.Histories[p] = append(exec.Histories[p], memory.W(0, cur))
		} else {
			exec.Histories[p] = append(exec.Histories[p], memory.R(0, cur))
		}
	}
	return exec
}

// manyWriteExecution has more writes than the enumeration rung accepts,
// and the fast path cannot decide it, so no rung can prove its
// coherence: the canonical Unknown case.
func manyWriteExecution() *memory.Execution { return writeHeavyExecution(7, 4, 48, 3) }

// resilientVerifier builds a StrategyResilient verifier with per-solve
// options opts (nil for none) and any further configuration.
func resilientVerifier(opts *Options, cfg ...solver.ConfigOption) *Verifier {
	return NewVerifier(append([]solver.ConfigOption{
		solver.WithStrategy(solver.StrategyResilient), solver.WithOptions(opts)}, cfg...)...)
}

// TestResilientExactRung: when the fast path is inconclusive, the next
// rungs decide within budget at RungExact.
func TestResilientExactRung(t *testing.T) {
	rr, err := resilientVerifier(nil).SolveAddr(context.Background(), ambiguousGadget(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictIncoherent || rr.Rung != RungExact {
		t.Errorf("verdict=%s rung=%s, want incoherent at exact", rr.Verdict, rr.Rung)
	}
	if rr.Stats.Rung != 0 {
		t.Errorf("Stats.Rung = %d, want 0 for the exact rung", rr.Stats.Rung)
	}
}

// TestResilientSpecialistDecides: the fast path is inconclusive and the
// exact search trips its budget, but the instance has few writes, so
// exhaustive write-order enumeration (the §5.2 algorithm over every
// order) still decides — both ways.
func TestResilientSpecialistDecides(t *testing.T) {
	opts := solver.New(solver.WithMaxStates(3))

	// The gadget plus two writes of one never-read value: still
	// incoherent, and no Figure 5.3 row applies.
	bad := ambiguousGadget()
	bad.Histories = append(bad.Histories, memory.History{memory.W(0, 3)}, memory.History{memory.W(0, 3)})
	rr, err := resilientVerifier(opts).SolveAddr(context.Background(), bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictIncoherent || rr.Rung != RungSpecialist {
		t.Fatalf("verdict=%s rung=%s, want incoherent at specialist", rr.Verdict, rr.Rung)
	}
	if rr.Stats.Rung != int(RungSpecialist) {
		t.Errorf("Stats.Rung = %d, want %d", rr.Stats.Rung, int(RungSpecialist))
	}

	// Coherent case, certificate checked: 8 writes.
	exec := writeHeavyExecution(0, 3, 14, 2)
	rr, err = resilientVerifier(opts).SolveAddr(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictCoherent || rr.Rung != RungSpecialist {
		t.Fatalf("verdict=%s rung=%s, want coherent at specialist", rr.Verdict, rr.Rung)
	}
	if err := memory.CheckCoherent(exec, 0, rr.Result.Schedule); err != nil {
		t.Errorf("specialist certificate invalid: %v", err)
	}
}

// TestResilientUnknown is the degradation acceptance test: budget
// exhausted, no rung decides, and the caller gets Verdict Unknown with
// the rung recorded in Stats — not an error.
func TestResilientUnknown(t *testing.T) {
	exec := manyWriteExecution()
	rr, err := resilientVerifier(solver.New(solver.WithMaxStates(10))).SolveAddr(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictUnknown || rr.Rung != RungNecessary {
		t.Fatalf("verdict=%s rung=%s, want unknown at necessary", rr.Verdict, rr.Rung)
	}
	if rr.Stats.Rung != int(RungNecessary) {
		t.Errorf("Stats.Rung = %d, want %d", rr.Stats.Rung, int(RungNecessary))
	}
	if len(rr.Checks) == 0 {
		t.Error("Unknown verdict carries no necessary-condition evidence")
	}
	if rr.Result != nil {
		t.Errorf("Unknown verdict should carry no Result, got %+v", rr.Result)
	}
	if rr.Stats.States == 0 {
		t.Error("partial exact-search stats lost in aggregation")
	}
}

// TestResilientNecessaryRefutes: even past the enumeration rung, sound
// necessary conditions can still refute.
func TestResilientNecessaryRefutes(t *testing.T) {
	exec := manyWriteExecution()
	// Append the ambiguous gadget on fresh values: the fast path stays
	// inconclusive, and a once-written value read on both sides of
	// another value violates unique-write-contiguity.
	exec.Histories[1] = append(exec.Histories[1], memory.W(0, 100))
	exec.Histories[2] = append(exec.Histories[2], memory.W(0, 101))
	exec.Histories[3] = append(exec.Histories[3], memory.R(0, 100), memory.R(0, 101), memory.R(0, 100))
	rr, err := resilientVerifier(solver.New(solver.WithMaxStates(10))).SolveAddr(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictIncoherent || rr.Rung != RungNecessary {
		t.Fatalf("verdict=%s rung=%s, want incoherent at necessary", rr.Verdict, rr.Rung)
	}
	found := false
	for _, ch := range rr.Checks {
		if strings.Contains(ch, "unique-write-contiguity") && strings.Contains(ch, "FAIL") {
			found = true
		}
	}
	if !found {
		t.Errorf("no failing unique-write-contiguity check in %v", rr.Checks)
	}
}

// TestResilientWriteOrderHint: with a caller-supplied write order, the
// first degrade rung proves coherence polynomially after the fast path
// is inconclusive and the exact search exhausts.
func TestResilientWriteOrderHint(t *testing.T) {
	exec := manyWriteExecution()
	// Derive a valid write order from an unbudgeted solve's certificate.
	fresh, err := solveAuto(context.Background(), exec, 0, nil)
	if err != nil || !fresh.Coherent {
		t.Fatalf("baseline solve: %v, %+v", err, fresh)
	}
	var order []memory.Ref
	for _, r := range fresh.Schedule {
		if _, ok := exec.Op(r).Writes(); ok {
			order = append(order, r)
		}
	}
	hinted := resilientVerifier(solver.New(solver.WithMaxStates(2)),
		solver.WithWriteOrders(map[memory.Addr][]memory.Ref{0: order}))
	rr, err := hinted.SolveAddr(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictCoherent || rr.Rung != RungWriteOrder {
		t.Fatalf("verdict=%s rung=%s, want coherent at write-order", rr.Verdict, rr.Rung)
	}
	if err := memory.CheckCoherent(exec, 0, rr.Result.Schedule); err != nil {
		t.Errorf("write-order certificate invalid: %v", err)
	}
}

// TestResilientCancelPropagates: cancellation is a request to stop, not
// to degrade — the ladder must not keep working.
func TestResilientCancelPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := resilientVerifier(nil).SolveAddr(ctx, manyWriteExecution(), 0)
	be, ok := solver.AsBudgetError(err)
	if !ok || be.Reason != solver.Canceled {
		t.Fatalf("err = %v, want Canceled budget error", err)
	}
}

// TestVerifyExecutionResilient: under StrategyResilient, budget exhaustion on one address must
// not abort the loop — every address gets a verdict (possibly Unknown).
func TestVerifyExecutionResilient(t *testing.T) {
	hard := manyWriteExecution()
	exec := &memory.Execution{Histories: make([]memory.History, len(hard.Histories))}
	copy(exec.Histories, hard.Histories)
	exec.SetInitial(0, 0)
	// A second, trivial address.
	exec.Histories[0] = append(memory.History{memory.W(1, 5)}, exec.Histories[0]...)
	exec.Histories[1] = append(memory.History{memory.R(1, 5)}, exec.Histories[1]...)
	exec.SetInitial(1, 0)

	rep, err := resilientVerifier(solver.New(solver.WithMaxStates(10))).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Addrs) != 2 {
		t.Fatalf("reports for %d addresses, want 2", len(rep.Addrs))
	}
	if rep.Addrs[1].Verdict != VerdictCoherent {
		t.Errorf("trivial address verdict = %s", rep.Addrs[1].Verdict)
	}
	if rep.Addrs[0].Verdict != VerdictUnknown {
		t.Errorf("hard address verdict = %s, want unknown", rep.Addrs[0].Verdict)
	}
	// Unknown is not a violation.
	if rep.Verdict != VerdictUnknown {
		t.Errorf("report verdict = %s, want unknown", rep.Verdict)
	}
	if a, bad := rep.FirstViolation(); bad {
		t.Errorf("FirstViolation = %d for an Unknown-only report", a)
	}
}
