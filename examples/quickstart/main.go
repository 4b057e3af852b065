// Quickstart: build an execution by hand, verify coherence per address,
// inspect the certificate, and see a violation get flagged.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"memverify/internal/coherence"
	"memverify/internal/memory"
)

func main() {
	// One Verifier handles everything; options (strategy, budget,
	// workers) would go into NewVerifier, but the defaults are fine here.
	v := coherence.NewVerifier()

	// Two processors sharing one location. P0 writes 1 then 2; P1 reads
	// 2 and then... let's start with a value P1 could legally observe.
	const x = memory.Addr(0)
	good := memory.NewExecution(
		memory.History{memory.W(x, 1), memory.W(x, 2)},
		memory.History{memory.R(x, 1), memory.R(x, 2)},
	).SetInitial(x, 0)

	ar, err := v.SolveAddr(context.Background(), good, x)
	if err != nil {
		log.Fatal(err)
	}
	res := ar.Result
	fmt.Printf("execution 1 coherent: %v (algorithm: %s)\n", res.Coherent, res.Algorithm)
	fmt.Printf("certificate schedule: %s\n\n", res.Schedule.Format(good))

	// The same histories with P1's reads swapped: it would observe the
	// writes of P0 in the reverse of their program order — no coherent
	// schedule exists.
	bad := memory.NewExecution(
		memory.History{memory.W(x, 1), memory.W(x, 2)},
		memory.History{memory.R(x, 2), memory.R(x, 1)},
	).SetInitial(x, 0)

	ar, err = v.SolveAddr(context.Background(), bad, x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("execution 2 coherent: %v\n", ar.Verdict == coherence.VerdictCoherent)

	// Whole executions (many addresses) are verified address by address;
	// Verify returns a per-address report.
	multi := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 5)},
		memory.History{memory.R(0, 1), memory.R(1, 99)}, // address 1 is broken
	).SetInitial(0, 0).SetInitial(1, 0)
	rep, err := v.Verify(context.Background(), multi)
	if err != nil {
		log.Fatal(err)
	}
	addr, _ := rep.FirstViolation()
	fmt.Printf("execution 3 coherent: %v (first violation at address %d)\n", rep.Coherent(), addr)
}
