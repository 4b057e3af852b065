package solver

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"memverify/internal/memory"
)

// Reason says which budget dimension aborted a solve.
type Reason int

const (
	// ExceededStates: the Options.MaxStates state-count bound was hit.
	ExceededStates Reason = iota
	// ExceededDeadline: the wall-clock timeout (Options.Timeout or a
	// deadline on the incoming context) expired.
	ExceededDeadline
	// Canceled: the incoming context was cancelled.
	Canceled
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ExceededStates:
		return "state budget exhausted"
	case ExceededDeadline:
		return "deadline exceeded"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// ErrBudgetExceeded is returned by every solver entry point when a
// resource budget (state count, wall-clock deadline, or cancellation)
// stops the search before an answer is established. It carries the
// partial Stats accumulated up to the abort, so callers can see how far
// the search got, and — for execution-level entry points that check one
// address at a time — the address whose solve was aborted.
type ErrBudgetExceeded struct {
	// Reason says which budget dimension tripped.
	Reason Reason
	// Stats is the partial progress at the abort point.
	Stats Stats
	// Addr is the address whose per-address solve was aborted, when the
	// aborting entry point works per address (HasAddr reports validity:
	// address 0 is a legitimate address).
	Addr memory.Addr
	// HasAddr reports whether Addr is meaningful.
	HasAddr bool
	// Cause is the underlying context error (context.Canceled or
	// context.DeadlineExceeded) when the abort came from the context,
	// nil for a state-count abort.
	Cause error
}

// Error implements error.
func (e *ErrBudgetExceeded) Error() string {
	if e.HasAddr {
		return fmt.Sprintf("solver: %s at address %d after %d states", e.Reason, e.Addr, e.Stats.States)
	}
	return fmt.Sprintf("solver: %s after %d states", e.Reason, e.Stats.States)
}

// Unwrap exposes the context error so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work.
func (e *ErrBudgetExceeded) Unwrap() error { return e.Cause }

// AsBudgetError unwraps err to an *ErrBudgetExceeded when one is in its
// chain.
func AsBudgetError(err error) (*ErrBudgetExceeded, bool) {
	var e *ErrBudgetExceeded
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

// ctxPollInterval is how many Charge calls pass between context polls.
// A context check is two atomic loads via Done(); amortizing it over a
// power-of-two window keeps the per-state overhead to one mask-and-test.
const ctxPollInterval = 64

// Budget enforces a solve's resource limits: the MaxStates bound from
// Options, the Options.Timeout wall-clock bound, and cancellation of the
// incoming context. Create one per solve with Start, call Charge once
// per search state, and call Stop (usually deferred) to release the
// timeout timer.
type Budget struct {
	ctx     context.Context
	cancel  context.CancelFunc
	limit   int
	tripped *ErrBudgetExceeded
}

// Start derives a Budget from the incoming context and options. When
// opts carries a Timeout, the returned budget's context is a child of
// ctx with that timeout applied.
func Start(ctx context.Context, opts *Options) *Budget {
	b := &Budget{}
	b.Reset(ctx, opts)
	return b
}

// Reset re-initializes b for a fresh solve, releasing any previous
// timeout timer first. It lets a driver that runs many small solves
// (coherence.SolveBatch) keep one Budget per worker instead of
// allocating one per instance; semantics are identical to Start.
func (b *Budget) Reset(ctx context.Context, opts *Options) {
	b.Stop()
	*b = Budget{ctx: ctx, limit: opts.Limit()}
	if d := opts.SolveTimeout(); d > 0 {
		b.ctx, b.cancel = context.WithTimeout(ctx, d)
	}
}

// Context returns the budget's context (with any Options.Timeout
// applied), for passing to nested solves.
func (b *Budget) Context() context.Context { return b.ctx }

// Stop releases the timeout timer, if any. Call it when the solve
// finishes; deferring it is idiomatic.
func (b *Budget) Stop() {
	if b.cancel != nil {
		b.cancel()
	}
}

// Charge records that the search is visiting its states-th state and
// returns a non-nil *ErrBudgetExceeded when a budget dimension has
// tripped. The state-count bound is checked on every call; the context
// is polled every ctxPollInterval calls (and on the first), amortizing
// the poll cost. Once tripped, every later call returns the same error
// (the budget is sticky), so deep recursion unwinds promptly.
func (b *Budget) Charge(states int) *ErrBudgetExceeded {
	if b.tripped != nil {
		return b.tripped
	}
	if b.limit > 0 && states > b.limit {
		b.tripped = &ErrBudgetExceeded{Reason: ExceededStates}
		return b.tripped
	}
	if states&(ctxPollInterval-1) == 0 || states == 1 {
		select {
		case <-b.ctx.Done():
			b.tripped = fromContext(b.ctx.Err())
			return b.tripped
		default:
		}
	}
	return nil
}

// Err returns the trip error (nil when the budget has not tripped).
func (b *Budget) Err() *ErrBudgetExceeded { return b.tripped }

// SharedBudget enforces one state-count limit across the workers of a
// parallel search. Every worker charges the same atomic counter, so the
// MaxStates bound is exact for the search as a whole: the counter equals
// the total number of states any worker visited, and the trip error is
// published once (first tripper wins) and then returned to every
// worker. The wall-clock deadline comes from the context: the caller's
// per-solve Budget has already applied Options.Timeout to it, and every
// worker polls it on its own amortized cadence.
type SharedBudget struct {
	ctx     context.Context
	limit   int64
	states  atomic.Int64
	tripped atomic.Pointer[ErrBudgetExceeded]
}

// StartShared derives a SharedBudget with the given state bound (0 =
// unlimited) from a context that already carries the solve's deadline.
func StartShared(ctx context.Context, limit int) *SharedBudget {
	return &SharedBudget{ctx: ctx, limit: int64(limit)}
}

// Context returns the budget's context, for deriving per-worker
// cancellation.
func (b *SharedBudget) Context() context.Context { return b.ctx }

// Charge records that some worker is visiting one more state and
// returns the trip error once any budget dimension has tripped.
// localStates is the calling worker's own visited-state count; the
// context poll is amortized on it (every ctxPollInterval states per
// worker), while the state-count bound is checked against the shared
// atomic total on every call. The charged state stays counted on a trip
// — the worker did visit it — which is exactly the sequential Budget's
// accounting, so merged Stats match the shared counter precisely.
func (b *SharedBudget) Charge(localStates int) *ErrBudgetExceeded {
	if e := b.tripped.Load(); e != nil {
		return e
	}
	n := b.states.Add(1)
	if b.limit > 0 && n > b.limit {
		b.tripped.CompareAndSwap(nil, &ErrBudgetExceeded{Reason: ExceededStates})
		return b.tripped.Load()
	}
	if localStates&(ctxPollInterval-1) == 0 || localStates == 1 {
		select {
		case <-b.ctx.Done():
			b.tripped.CompareAndSwap(nil, fromContext(b.ctx.Err()))
			return b.tripped.Load()
		default:
		}
	}
	return nil
}

// States returns the shared visited-state total so far.
func (b *SharedBudget) States() int64 { return b.states.Load() }

// Err returns the published trip error (nil when no dimension has
// tripped).
func (b *SharedBudget) Err() *ErrBudgetExceeded { return b.tripped.Load() }

// Interrupted checks a context directly and returns a budget error when
// it is done. The polynomial solvers use it: they have no state counter
// to charge, but must still honor cancellation at their entry points.
func Interrupted(ctx context.Context) *ErrBudgetExceeded {
	select {
	case <-ctx.Done():
		return fromContext(ctx.Err())
	default:
		return nil
	}
}

// fromContext maps a context error to a budget error.
func fromContext(cause error) *ErrBudgetExceeded {
	reason := Canceled
	if errors.Is(cause, context.DeadlineExceeded) {
		reason = ExceededDeadline
	}
	return &ErrBudgetExceeded{Reason: reason, Cause: cause}
}
