package consistency

import (
	"context"
	"fmt"

	"memverify/internal/memory"
)

// SynchronizationDiscipline describes how thoroughly an execution uses
// acquire/release operations, as reported by CheckDiscipline.
type SynchronizationDiscipline int

const (
	// FullySynchronized means every data-memory operation is immediately
	// bracketed by an Acquire before it and a Release after it in its
	// history — the discipline of the Figure 6.1 construction.
	FullySynchronized SynchronizationDiscipline = iota
	// PartiallySynchronized means some but not all operations are
	// bracketed.
	PartiallySynchronized
	// Unsynchronized means no acquire/release operations appear.
	Unsynchronized
)

// String names the discipline.
func (d SynchronizationDiscipline) String() string {
	switch d {
	case FullySynchronized:
		return "fully-synchronized"
	case PartiallySynchronized:
		return "partially-synchronized"
	default:
		return "unsynchronized"
	}
}

// CheckDiscipline classifies the synchronization discipline of exec.
func CheckDiscipline(exec *memory.Execution) SynchronizationDiscipline {
	sawSync := false
	allBracketed := true
	for _, h := range exec.Histories {
		for i, o := range h {
			if o.IsSync() {
				sawSync = true
				continue
			}
			bracketed := i > 0 && h[i-1].Kind == memory.Acquire &&
				i+1 < len(h) && h[i+1].Kind == memory.Release
			if !bracketed {
				allBracketed = false
			}
		}
	}
	switch {
	case !sawSync:
		return Unsynchronized
	case allBracketed:
		return FullySynchronized
	default:
		return PartiallySynchronized
	}
}

// verifyLRC checks adherence to Lazy Release Consistency for executions
// written in the fully synchronized discipline of Figure 6.1: every
// memory operation bracketed by an acquire and a release. Under LRC,
// synchronized accesses to a location must appear serialized — the
// acquiring processor observes all writes ordered before the matching
// release — so for such executions LRC verification coincides with
// verifying memory coherence per address (§6.2: "as long as memory
// operations to some address must appear serialized, either by implicit
// consistency model requirements or explicit synchronization, the
// reductions presented here apply").
//
// Executions that are not fully synchronized are rejected with an error:
// LRC places no useful constraint on unsynchronized accesses, so neither
// acceptance nor rejection would be meaningful.
func (v *Verifier) verifyLRC(ctx context.Context, exec *memory.Execution) (*Result, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	if d := CheckDiscipline(exec); d != FullySynchronized {
		return nil, fmt.Errorf("consistency: execution is %s; LRC verification requires the fully synchronized discipline of Figure 6.1", d)
	}
	rep, err := v.coherenceVerifier().Verify(ctx, exec)
	if err != nil {
		return nil, err
	}
	return fromCoherence(rep, "lrc-synchronized"), nil
}
