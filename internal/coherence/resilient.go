package coherence

import (
	"context"
	"fmt"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// Rung names the escalation-ladder rung that decided an address (see
// ladder.go). Past the exact search the ladder mirrors Figure 5.3 of
// the paper: when the general (NP-hard) problem is out of reach, step
// down to the restricted variants the paper proves tractable, and
// finally to sound necessary conditions that can still refute.
type Rung int

// RungFast is the rung above the exact search: the polynomial
// constraint-propagation frontline (fastpath.go) decided outright. It
// is numbered -1 so the long-standing RungExact == 0 stays pinned and
// Stats.Merge's max-rung aggregation still reports the weakest rung an
// execution fell to.
const RungFast Rung = -1

const (
	// RungExact is the normal case: a Figure 5.3 specialist or the
	// exact search decided within budget.
	RungExact Rung = iota
	// RungWriteOrder is the §5.2 write-order-augmented check, used when
	// the caller supplied an observed write order. It is trusted only
	// in the positive direction here: a coherent schedule extending the
	// supplied order proves coherence of the instance, but failure to
	// extend a hint does not refute it.
	RungWriteOrder
	// RungSpecialist is exhaustive write-order enumeration through the
	// §5.2 placement when the instance has few writes (complete: every
	// coherent schedule induces a write order, so if no order extends,
	// none exists).
	RungSpecialist
	// RungNecessary is the last rung: sound necessary conditions that
	// can refute (Incoherent) but never confirm; when they all pass the
	// verdict is Unknown.
	RungNecessary
)

// String names the rung for reports and obs events.
func (r Rung) String() string {
	switch r {
	case RungFast:
		return "fast"
	case RungExact:
		return "exact"
	case RungWriteOrder:
		return "write-order"
	case RungSpecialist:
		return "specialist"
	case RungNecessary:
		return "necessary"
	}
	return fmt.Sprintf("Rung(%d)", int(r))
}

// ResilientVerdict is the three-valued outcome of a ladder solve.
type ResilientVerdict int

const (
	// VerdictCoherent: a coherent schedule exists (certificate in Result).
	VerdictCoherent ResilientVerdict = iota
	// VerdictIncoherent: no coherent schedule exists.
	VerdictIncoherent
	// VerdictUnknown: no rung could decide — the fast path was
	// inconclusive, the exact search ran out of budget, and every
	// degrade rung was inapplicable or silent. The instance may or may not
	// be coherent; Checks carries the necessary-condition evidence.
	VerdictUnknown
)

// String renders the verdict.
func (v ResilientVerdict) String() string {
	switch v {
	case VerdictCoherent:
		return "coherent"
	case VerdictIncoherent:
		return "incoherent"
	case VerdictUnknown:
		return "unknown"
	}
	return fmt.Sprintf("ResilientVerdict(%d)", int(v))
}

// maxEnumWrites bounds the write count for exhaustive write-order
// enumeration at RungSpecialist. The number of orders is the number of
// interleavings of the per-process write sequences, at most w! (40320
// for w = 8), each checked by the polynomial §5.2 placement.
const maxEnumWrites = 8

// countWriters counts writing operations in the instance.
func countWriters(inst *instance) int {
	n := 0
	for _, h := range inst.hist {
		for _, o := range h {
			if _, ok := o.Writes(); ok {
				n++
			}
		}
	}
	return n
}

// enumerateWriteOrders decides the instance by trying every
// program-order-respecting interleaving of the per-process write
// sequences through the §5.2 placement algorithm. Complete: a coherent
// schedule induces exactly one write order, so if no order extends to a
// coherent schedule none exists. The context is polled between orders.
func enumerateWriteOrders(ctx context.Context, inst *instance, agg *Stats) (*Result, *solver.ErrBudgetExceeded) {
	// Per-process queues of writing-op refs, in program order.
	queues := make([][]memory.Ref, len(inst.hist))
	total := 0
	for h, hist := range inst.hist {
		for i, o := range hist {
			if _, ok := o.Writes(); ok {
				queues[h] = append(queues[h], memory.Ref{Proc: h, Index: i})
				total++
			}
		}
	}
	heads := make([]int, len(queues))
	order := make([]memory.Ref, 0, total)
	tried := 0

	var found *Result
	var rec func() (*solver.ErrBudgetExceeded, bool)
	rec = func() (*solver.ErrBudgetExceeded, bool) {
		if len(order) == total {
			tried++
			if tried&63 == 0 {
				if e := solver.Interrupted(ctx); e != nil {
					return e, false
				}
			}
			r, err := writeOrderInstance(inst, order)
			if err != nil {
				// The enumeration only emits valid orders; an error here is
				// an invariant break, surfaced as incoherent-for-this-order.
				return nil, false
			}
			agg.Merge(r.Stats)
			if r.Coherent {
				found = r
				return nil, true
			}
			return nil, false
		}
		for h := range queues {
			if heads[h] >= len(queues[h]) {
				continue
			}
			order = append(order, queues[h][heads[h]])
			heads[h]++
			e, done := rec()
			heads[h]--
			order = order[:len(order)-1]
			if e != nil || done {
				return e, done
			}
		}
		return nil, false
	}
	if e, _ := rec(); e != nil {
		return nil, e
	}
	if found != nil {
		found.Algorithm = "write-order-enum"
		return found, nil
	}
	return &Result{Coherent: false, Decided: true, Algorithm: "write-order-enum"}, nil
}

// necessaryConditions evaluates sound refutation checks over the
// instance and returns the per-check evidence lines plus the name of
// the first violated condition ("" when all pass). Each condition is
// necessary for coherence, so a violation proves incoherence; passing
// proves nothing (the verdict stays Unknown).
//
// Note that the obvious-looking pairwise reduction — check every
// 2-process sub-history with the constant-process algorithm — is NOT
// sound and is deliberately absent: coherence is not monotone under
// history deletion (removing a writer history changes which write is
// "most recent", and can make a previously-served read unservable), so
// a projection verdict says nothing about the full instance.
func necessaryConditions(inst *instance) (checks []string, violated string) {
	written := make(map[memory.Value]int)
	for _, h := range inst.hist {
		for _, o := range h {
			if d, ok := o.Writes(); ok {
				written[d]++
			}
		}
	}

	record := func(name string, bad bool, detail string) {
		status := "pass"
		if bad {
			status = "FAIL"
			if violated == "" {
				violated = name
			}
		}
		checks = append(checks, fmt.Sprintf("%s: %s (%s)", name, status, detail))
	}

	// unwritten-read-values: a read's value must be written or be the
	// (single) initial value. With a declared initial value any other
	// unwritten value is unreadable; without one, at most one distinct
	// unwritten value can ever be read (whatever the initial happened to
	// be).
	unwritten := make(map[memory.Value]bool)
	for _, h := range inst.hist {
		for _, o := range h {
			if d, ok := o.Reads(); ok && written[d] == 0 {
				unwritten[d] = true
			}
		}
	}
	switch {
	case inst.init != nil:
		bad := ""
		for v := range unwritten {
			if v != *inst.init {
				bad = fmt.Sprintf("read of value %d: never written, initial is %d", v, *inst.init)
				break
			}
		}
		record("unwritten-read-values", bad != "", orDetail(bad, fmt.Sprintf("%d unwritten read values, all initial", len(unwritten))))
	case len(unwritten) > 1:
		record("unwritten-read-values", true, fmt.Sprintf("%d distinct values read but never written; only one initial value exists", len(unwritten)))
	default:
		record("unwritten-read-values", false, fmt.Sprintf("%d unwritten read values", len(unwritten)))
	}

	// read-after-write-unwritten: after the first write in a history (in
	// program order, hence in any schedule), memory always holds some
	// written value — a later read of a never-written value is impossible.
	bad := ""
scan:
	for h, hist := range inst.hist {
		seenWrite := false
		for i, o := range hist {
			if _, ok := o.Writes(); ok {
				seenWrite = true
				continue
			}
			if d, ok := o.Reads(); ok && seenWrite && written[d] == 0 {
				bad = fmt.Sprintf("P%d op %d reads %d, never written, after a write in the same history", h, i, d)
				break scan
			}
		}
	}
	record("read-after-write-unwritten", bad != "", orDetail(bad, "no unwritten-value reads after writes"))

	// final-value: the declared final value must be producible — the last
	// write of a schedule stores it (so it must be written somewhere), or
	// with no writes at all it must equal the declared initial value.
	bad = ""
	if inst.final != nil {
		nw := countWriters(inst)
		switch {
		case nw > 0 && written[*inst.final] == 0:
			bad = fmt.Sprintf("declared final value %d is never written", *inst.final)
		case nw == 0 && inst.init != nil && *inst.init != *inst.final:
			bad = fmt.Sprintf("no writes but initial %d != final %d", *inst.init, *inst.final)
		}
	}
	record("final-value", bad != "", orDetail(bad, "final value producible"))

	// unique-write-contiguity: a value written exactly once (and distinct
	// from the declared initial value) holds in memory over a single
	// contiguous interval of any coherent schedule. Within one history,
	// every operation between the first and last read of such a value
	// must itself carry that value — any other value in between forces
	// the schedule to leave the interval and return, which needs a second
	// write. (This is the per-history structure behind the read-map row
	// of Figure 5.3.)
	bad = ""
	if inst.init != nil {
	contig:
		for h, hist := range inst.hist {
			first := make(map[memory.Value]int)
			last := make(map[memory.Value]int)
			for i, o := range hist {
				if d, ok := o.Reads(); ok && written[d] == 1 && d != *inst.init {
					if _, seen := first[d]; !seen {
						first[d] = i
					}
					last[d] = i
				}
			}
			for v, f := range first {
				for i := f + 1; i < last[v]; i++ {
					o := hist[i]
					if d, ok := o.Reads(); ok && d != v {
						bad = fmt.Sprintf("P%d reads %d between reads of once-written %d", h, d, v)
						break contig
					}
					if d, ok := o.Writes(); ok && d != v {
						bad = fmt.Sprintf("P%d writes %d between reads of once-written %d", h, d, v)
						break contig
					}
				}
			}
		}
	}
	record("unique-write-contiguity", bad != "", orDetail(bad, "once-written read intervals contiguous"))

	return checks, violated
}

// orDetail picks the failure detail when present, else the pass detail.
func orDetail(bad, ok string) string {
	if bad != "" {
		return bad
	}
	return ok
}
