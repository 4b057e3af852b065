package memory

import (
	"fmt"
	"strings"
)

// Schedule is an ordering of operation references from an execution. A
// schedule serves as the NP certificate of Theorem 4.2: CheckCoherent and
// CheckSC validate one in linear time.
type Schedule []Ref

// Format renders the schedule as a compact arrow chain of operations,
// resolving each reference against exec.
func (s Schedule) Format(exec *Execution) string {
	var b strings.Builder
	for i, r := range s {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s:%s", r, exec.Op(r))
	}
	return b.String()
}

// checkCoverage verifies that s contains only operations for which
// belongs holds, each at most once and in program order per process, and
// that every operation for which required holds appears. It is shared by
// the coherent- and SC-schedule checkers.
//
// An OpTracker does the bookkeeping: a few allocations and O(n+P)
// worst-case time for an execution of n operations over P processes. A
// missing operation is reported as the lowest (process, index) one, so
// the message does not depend on anything but the inputs.
func checkCoverage(exec *Execution, s Schedule, belongs, required func(Op) bool) error {
	t := NewOpTracker(exec.Histories)
	for pos, r := range s {
		if !t.InRange(r) {
			return fmt.Errorf("memory: schedule[%d]: reference %s out of range", pos, r)
		}
		if !belongs(exec.Histories[r.Proc][r.Index]) {
			return fmt.Errorf("memory: schedule[%d]: operation %s does not belong to this instance", pos, r)
		}
		switch t.Mark(r) {
		case MarkedTwice:
			return fmt.Errorf("memory: schedule[%d]: operation %s scheduled twice", pos, r)
		case MarkedOutOfOrder:
			return fmt.Errorf("memory: schedule[%d]: %s violates program order (P%d[%d] already scheduled)",
				pos, r, r.Proc, t.Last(r.Proc))
		}
	}
	for p, h := range exec.Histories {
		for i, o := range h {
			if !t.Listed(p, i) && required(o) {
				return fmt.Errorf("memory: schedule is missing operation %s (%s)", Ref{Proc: p, Index: i}, o)
			}
		}
	}
	return nil
}

// CheckCoherent verifies that s is a coherent schedule for the operations
// of exec at address a, per the definition in Section 3: s must contain
// every data-memory operation of exec addressed to a exactly once, in
// program order per process; every read must return the value written by
// the immediately preceding write (reads before the first write return the
// initial value, if one is recorded); and if a final value is recorded,
// the last write must store it.
//
// The check runs in worst-case O(n+P) time for an execution of n
// operations over P processes, with no maps, implementing the
// NP-membership argument of Theorem 4.2.
func CheckCoherent(exec *Execution, a Addr, s Schedule) error {
	atAddr := func(o Op) bool { return o.IsMemory() && o.Addr == a }
	if err := checkCoverage(exec, s, atAddr, atAddr); err != nil {
		return err
	}

	current, bound := exec.Initial[a], false
	if _, ok := exec.Initial[a]; ok {
		bound = true
	}
	sawWrite := false
	var lastWritten Value
	for pos, r := range s {
		o := exec.Op(r)
		if d, ok := o.Reads(); ok {
			if bound {
				if d != current {
					return fmt.Errorf("memory: schedule[%d]: %s read %d but the preceding value is %d",
						pos, r, d, current)
				}
			} else {
				// Initial value unconstrained: the first pre-write read
				// binds it; later pre-write reads must agree.
				current, bound = d, true
			}
		}
		if d, ok := o.Writes(); ok {
			current, bound = d, true
			sawWrite = true
			lastWritten = d
		}
	}
	if final, ok := exec.Final[a]; ok {
		switch {
		case sawWrite && lastWritten != final:
			return fmt.Errorf("memory: last write stores %d but the final value of address %d is %d",
				lastWritten, a, final)
		case !sawWrite && bound && current != final:
			return fmt.Errorf("memory: no writes and initial value %d does not match final value %d",
				current, final)
		}
	}
	return nil
}

// CheckSC verifies that s is a sequentially consistent schedule for exec:
// s must contain every data-memory operation of exec exactly once, in
// program order per process, and every read must return the value written
// by the immediately preceding write to the same address (or the address's
// initial value before any write). Synchronization operations (acquire,
// release, fence) may be included or omitted; if included they only need
// to respect program order. If final values are recorded, the last write
// to each address must store them.
//
// The check runs in O(n) time, matching the "legal schedule" validation of
// Gibbons & Korach.
func CheckSC(exec *Execution, s Schedule) error {
	anyOp := func(Op) bool { return true }
	if err := checkCoverage(exec, s, anyOp, Op.IsMemory); err != nil {
		return err
	}

	type cell struct {
		value Value
		bound bool
		wrote bool
		last  Value
	}
	mem := make(map[Addr]*cell)
	lookup := func(a Addr) *cell {
		c, ok := mem[a]
		if !ok {
			c = &cell{}
			if d, has := exec.Initial[a]; has {
				c.value, c.bound = d, true
			}
			mem[a] = c
		}
		return c
	}
	for pos, r := range s {
		o := exec.Op(r)
		if !o.IsMemory() {
			continue
		}
		c := lookup(o.Addr)
		if d, ok := o.Reads(); ok {
			if c.bound {
				if d != c.value {
					return fmt.Errorf("memory: schedule[%d]: %s read %d from address %d but the preceding value is %d",
						pos, r, d, o.Addr, c.value)
				}
			} else {
				c.value, c.bound = d, true
			}
		}
		if d, ok := o.Writes(); ok {
			c.value, c.bound = d, true
			c.wrote, c.last = true, d
		}
	}
	for a, final := range exec.Final {
		c := lookup(a)
		switch {
		case c.wrote && c.last != final:
			return fmt.Errorf("memory: last write to address %d stores %d but the final value is %d",
				a, c.last, final)
		case !c.wrote && c.bound && c.value != final:
			return fmt.Errorf("memory: address %d has no writes and value %d does not match final value %d",
				a, c.value, final)
		}
	}
	return nil
}
