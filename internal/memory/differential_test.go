package memory

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The map-based certificate checkers the dense ones replaced, kept as
// test-only references: TestCheckersMatchReference runs both on valid
// certificates and their mutants and requires the same verdict and the
// same error class.

func refCheckCoverage(exec *Execution, s Schedule, allowed, required map[Ref]bool) error {
	seen := make(map[Ref]bool, len(s))
	lastIndex := make(map[int]int) // proc -> last scheduled history index
	for pos, r := range s {
		if r.Proc < 0 || r.Proc >= len(exec.Histories) ||
			r.Index < 0 || r.Index >= len(exec.Histories[r.Proc]) {
			return fmt.Errorf("memory: schedule[%d]: reference %s out of range", pos, r)
		}
		if !allowed[r] {
			return fmt.Errorf("memory: schedule[%d]: operation %s does not belong to this instance", pos, r)
		}
		if seen[r] {
			return fmt.Errorf("memory: schedule[%d]: operation %s scheduled twice", pos, r)
		}
		seen[r] = true
		if last, ok := lastIndex[r.Proc]; ok && r.Index <= last {
			return fmt.Errorf("memory: schedule[%d]: %s violates program order (P%d[%d] already scheduled)",
				pos, r, r.Proc, last)
		}
		lastIndex[r.Proc] = r.Index
	}
	for r := range required {
		if !seen[r] {
			return fmt.Errorf("memory: schedule is missing operation %s (%s)", r, exec.Op(r))
		}
	}
	return nil
}

func refCheckCoherent(exec *Execution, a Addr, s Schedule) error {
	want := make(map[Ref]bool)
	for p, h := range exec.Histories {
		for i, o := range h {
			if o.IsMemory() && o.Addr == a {
				want[Ref{Proc: p, Index: i}] = true
			}
		}
	}
	if err := refCheckCoverage(exec, s, want, want); err != nil {
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

func refCheckSC(exec *Execution, s Schedule) error {
	allowed := make(map[Ref]bool)
	required := make(map[Ref]bool)
	for p, h := range exec.Histories {
		for i := range h {
			r := Ref{Proc: p, Index: i}
			allowed[r] = true
			if h[i].IsMemory() {
				required[r] = true
			}
		}
	}
	if err := refCheckCoverage(exec, s, allowed, required); err != nil {
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

// errClass names the check an error comes from; "" for nil.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	for _, c := range []struct{ sub, class string }{
		{"out of range", "range"},
		{"does not belong", "foreign"},
		{"scheduled twice", "duplicate"},
		{"violates program order", "order"},
		{"is missing operation", "missing"},
		{"preceding value", "value"},
		{"final value", "final"},
	} {
		if strings.Contains(msg, c.sub) {
			return c.class
		}
	}
	return "other: " + msg
}

// scExecution runs a random multi-address program under a random
// interleaving, so every read returns the value in memory: the
// interleaving is an SC certificate, and its restriction to one address
// a coherent one. Some reads are then perturbed and some declared final
// values are wrong, so value and final-value failures occur too.
func scExecution(rng *rand.Rand) (*Execution, Schedule) {
	nproc, naddr := 1+rng.Intn(4), 1+rng.Intn(3)
	e := &Execution{Histories: make([]History, nproc)}
	mem := make([]Value, naddr)
	for a := range mem {
		mem[a] = Value(rng.Intn(3))
		if rng.Intn(2) == 0 {
			e.SetInitial(Addr(a), mem[a])
		}
	}
	left := make([]int, nproc)
	total := 0
	for p := range left {
		left[p] = rng.Intn(7)
		total += left[p]
	}
	var sched Schedule
	for ; total > 0; total-- {
		p := rng.Intn(nproc)
		for left[p] == 0 {
			p = (p + 1) % nproc
		}
		left[p]--
		a := Addr(rng.Intn(naddr))
		var o Op
		switch rng.Intn(6) {
		case 0, 1:
			o = R(a, mem[a])
		case 2, 3:
			o = W(a, Value(rng.Intn(4)))
		case 4:
			o = RW(a, mem[a], Value(rng.Intn(4)))
		default:
			o = [...]Op{Acq(), Rel(), Bar()}[rng.Intn(3)]
		}
		if d, ok := o.Writes(); ok {
			mem[a] = d
		}
		if o.Kind == Read && rng.Intn(12) == 0 {
			o.Data++ // a read no interleaving explains
		}
		sched = append(sched, Ref{Proc: p, Index: len(e.Histories[p])})
		e.Histories[p] = append(e.Histories[p], o)
	}
	for a := range mem {
		switch rng.Intn(4) {
		case 0:
			e.SetFinal(Addr(a), mem[a])
		case 1:
			e.SetFinal(Addr(a), mem[a]+1)
		}
	}
	return e, sched
}

// mutants returns s plus mutated copies: a dropped entry, a duplicated
// entry, two entries of one process swapped, a foreign op (sync or
// another address) inserted, and out-of-range refs inserted.
func mutants(rng *rand.Rand, e *Execution, s Schedule) []Schedule {
	out := []Schedule{s}
	insert := func(r Ref) {
		at := rng.Intn(len(s) + 1)
		m := append(append(append(Schedule{}, s[:at]...), r), s[at:]...)
		out = append(out, m)
	}
	if len(s) > 0 {
		at := rng.Intn(len(s))
		out = append(out, append(append(Schedule{}, s[:at]...), s[at+1:]...))
		insert(s[rng.Intn(len(s))])
		i := rng.Intn(len(s))
		for j := range s {
			if j != i && s[j].Proc == s[i].Proc {
				m := append(Schedule{}, s...)
				m[i], m[j] = m[j], m[i]
				out = append(out, m)
				break
			}
		}
	}
	for p, h := range e.Histories {
		for i := range h {
			if !containsRef(s, Ref{Proc: p, Index: i}) {
				insert(Ref{Proc: p, Index: i})
				break
			}
		}
	}
	np := len(e.Histories)
	insert(Ref{Proc: np, Index: 0})
	insert(Ref{Proc: -1, Index: 0})
	p := rng.Intn(np)
	insert(Ref{Proc: p, Index: len(e.Histories[p])})
	insert(Ref{Proc: p, Index: -1})
	return out
}

func containsRef(s Schedule, r Ref) bool {
	for _, x := range s {
		if x == r {
			return true
		}
	}
	return false
}

func TestCheckersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	classes := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		e, sc := scExecution(rng)
		for _, m := range mutants(rng, e, sc) {
			got, want := CheckSC(e, m), refCheckSC(e, m)
			if errClass(got) != errClass(want) {
				t.Fatalf("trial %d: CheckSC(%v) = %v, reference %v", trial, m, got, want)
			}
			classes["sc "+errClass(got)]++
		}
		for _, a := range e.Addresses() {
			var proj Schedule
			for _, r := range sc {
				if o := e.Op(r); o.IsMemory() && o.Addr == a {
					proj = append(proj, r)
				}
			}
			for _, m := range mutants(rng, e, proj) {
				got, want := CheckCoherent(e, a, m), refCheckCoherent(e, a, m)
				if errClass(got) != errClass(want) {
					t.Fatalf("trial %d: CheckCoherent(a=%d, %v) = %v, reference %v", trial, a, m, got, want)
				}
				classes["coherent "+errClass(got)]++
			}
		}
	}
	// Every class must have been exercised on both checkers (CheckSC
	// admits every op, so it has no foreign class).
	for _, c := range []string{"", "range", "duplicate", "order", "missing", "value", "final"} {
		for _, checker := range []string{"sc ", "coherent "} {
			if classes[checker+c] == 0 {
				t.Errorf("no %q outcome from %s", c, checker)
			}
		}
	}
	if classes["coherent foreign"] == 0 {
		t.Error("no foreign-op outcome from CheckCoherent")
	}
}
