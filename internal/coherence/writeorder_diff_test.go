package coherence

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"memverify/internal/memory"
)

// The map-keyed write-order validation, projection inverse and read
// placement the dense versions replaced, kept as test-only references:
// TestWriteOrderMatchesReference runs both on valid write orders and
// their mutants over multi-address executions.

func refValidateWriteOrder(in *instance, order []memory.Ref) error {
	writers := 0
	for _, h := range in.hist {
		for _, o := range h {
			if _, ok := o.Writes(); ok {
				writers++
			}
		}
	}
	seen := make(map[memory.Ref]bool, len(order))
	lastIdx := make(map[int]int)
	for _, r := range order {
		if r.Proc < 0 || r.Proc >= len(in.hist) || r.Index < 0 || r.Index >= len(in.hist[r.Proc]) {
			return fmt.Errorf("coherence: write order reference %s out of range", r)
		}
		o := in.hist[r.Proc][r.Index]
		if _, ok := o.Writes(); !ok {
			return fmt.Errorf("coherence: write order entry %s (%s) does not write", r, o)
		}
		if seen[r] {
			return fmt.Errorf("coherence: write order lists %s twice", r)
		}
		seen[r] = true
		if last, ok := lastIdx[r.Proc]; ok && r.Index <= last {
			return fmt.Errorf("coherence: write order violates program order at %s", r)
		}
		lastIdx[r.Proc] = r.Index
	}
	if len(order) != writers {
		return fmt.Errorf("coherence: write order lists %d operations, instance has %d writing operations",
			len(order), writers)
	}
	return nil
}

func refToProjectionRefs(in *instance, refs []memory.Ref) ([]memory.Ref, bool) {
	fwd := make(map[memory.Ref]memory.Ref, in.nops)
	for p, h := range in.hist {
		for i := range h {
			pr := memory.Ref{Proc: p, Index: i}
			fwd[in.origRef(pr)] = pr
		}
	}
	out := make([]memory.Ref, len(refs))
	for i, r := range refs {
		pr, ok := fwd[r]
		if !ok {
			return nil, false
		}
		out[i] = pr
	}
	return out, true
}

func refPlaceReads(inst *instance, order []memory.Ref, init *memory.Value) ([]memory.Ref, bool) {
	nw := len(order)
	value := make([]memory.Value, nw+1)
	valueBound := make([]bool, nw+1)
	if init != nil {
		value[0], valueBound[0] = *init, true
	}
	regionOf := make(map[memory.Ref]int, nw)
	for b, r := range order {
		o := inst.hist[r.Proc][r.Index]
		if dr, ok := o.Reads(); ok {
			if !valueBound[b] || value[b] != dr {
				return nil, false
			}
		}
		dw, _ := o.Writes()
		value[b+1], valueBound[b+1] = dw, true
		regionOf[r] = b + 1
	}
	if inst.final != nil {
		if nw > 0 && value[nw] != *inst.final {
			return nil, false
		}
		if nw == 0 && valueBound[0] && value[0] != *inst.final {
			return nil, false
		}
	}
	reads := make([][]memory.Ref, nw+1)
	for h := range inst.hist {
		hist := inst.hist[h]
		nextWriteRegion := make([]int, len(hist)+1)
		nextWriteRegion[len(hist)] = nw + 1
		for i := len(hist) - 1; i >= 0; i-- {
			if _, ok := hist[i].Writes(); ok {
				nextWriteRegion[i] = regionOf[memory.Ref{Proc: h, Index: i}]
			} else {
				nextWriteRegion[i] = nextWriteRegion[i+1]
			}
		}
		curRegion := 0
		for i, o := range hist {
			ref := memory.Ref{Proc: h, Index: i}
			if _, ok := o.Writes(); ok {
				curRegion = regionOf[ref]
				continue
			}
			d := o.Data
			limit := nextWriteRegion[i+1]
			placed := false
			for b := curRegion; b < limit && b <= nw; b++ {
				if valueBound[b] && value[b] == d {
					reads[b] = append(reads[b], ref)
					curRegion = b
					placed = true
					break
				}
			}
			if !placed {
				return nil, false
			}
		}
	}
	sched := make([]memory.Ref, 0, inst.nops)
	sched = append(sched, reads[0]...)
	for b, r := range order {
		sched = append(sched, r)
		sched = append(sched, reads[b+1]...)
	}
	return sched, true
}

// writeOrderClass names the check a write-order error comes from.
func writeOrderClass(err error) string {
	if err == nil {
		return ""
	}
	for _, c := range []string{"out of range", "does not write", "twice", "program order", "writing operations"} {
		if strings.Contains(err.Error(), c) {
			return c
		}
	}
	return "other: " + err.Error()
}

// withNoise interleaves operations of address 1 and synchronization ops
// into exec's histories (all of address 0) and remaps order to match, so
// projecting address 0 exercises the slice back-map.
func withNoise(rng *rand.Rand, exec *memory.Execution, order []memory.Ref) []memory.Ref {
	newIdx := make([][]int, len(exec.Histories))
	for p, h := range exec.Histories {
		var out memory.History
		for _, o := range h {
			for rng.Intn(3) == 0 {
				out = append(out, [...]memory.Op{memory.W(1, 7), memory.R(1, 7), memory.Acq(), memory.Bar()}[rng.Intn(4)])
			}
			newIdx[p] = append(newIdx[p], len(out))
			out = append(out, o)
		}
		exec.Histories[p] = out
	}
	mapped := make([]memory.Ref, len(order))
	for i, r := range order {
		mapped[i] = memory.Ref{Proc: r.Proc, Index: newIdx[r.Proc][r.Index]}
	}
	return mapped
}

func TestWriteOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	classes := map[string]int{}
	for trial := 0; trial < 1500; trial++ {
		exec, order := randomCoherentTrace(rng, 1+rng.Intn(4), rng.Intn(6), 1+rng.Intn(3))
		if rng.Intn(2) == 0 {
			delete(exec.Initial, 0)
		}
		if rng.Intn(2) == 0 {
			order = withNoise(rng, exec, order)
		}
		inst := project(exec, 0)

		// Projection inverse, on the order plus refs of other ops.
		probes := append([]memory.Ref{{Proc: -1}, {Proc: len(exec.Histories)}, {Proc: 0, Index: -1}}, order...)
		for p, h := range exec.Histories {
			probes = append(probes, memory.Ref{Proc: p, Index: rng.Intn(len(h) + 1)})
		}
		for _, r := range probes {
			got, gerr := inst.toProjectionRefs([]memory.Ref{r}, 0)
			want, ok := refToProjectionRefs(inst, []memory.Ref{r})
			if (gerr == nil) != ok || (ok && got[0] != want[0]) {
				t.Fatalf("trial %d: toProjectionRefs(%v) = %v, %v; reference %v, %v", trial, r, got, gerr, want, ok)
			}
		}

		porder, err := inst.toProjectionRefs(order, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, m := range writeOrderMutants(rng, inst, porder) {
			got, want := inst.validateWriteOrder(m), refValidateWriteOrder(inst, m)
			if writeOrderClass(got) != writeOrderClass(want) {
				t.Fatalf("trial %d: validateWriteOrder(%v) = %v, reference %v", trial, m, got, want)
			}
			classes[writeOrderClass(got)]++
		}

		// Placement: the same schedule for every candidate pre-write
		// value, including none.
		pl := placer{inst: inst, off: memory.OpOffsets(inst.hist)}
		inits := []*memory.Value{nil}
		for v := memory.Value(0); v < 3; v++ {
			inits = append(inits, &v)
		}
		for _, init := range inits {
			got, gok := pl.place(porder, init)
			want, wok := refPlaceReads(inst, porder, init)
			if wok {
				want = inst.translate(want)
			}
			if gok != wok || !reflect.DeepEqual([]memory.Ref(got), want) {
				t.Fatalf("trial %d: place(init=%v) = %v, %v; reference %v, %v\nhistories=%v order=%v",
					trial, init, got, gok, want, wok, inst.hist, porder)
			}
		}
	}
	for _, c := range []string{"", "out of range", "does not write", "twice", "program order", "writing operations"} {
		if classes[c] == 0 {
			t.Errorf("no %q outcome exercised", c)
		}
	}
}

// writeOrderMutants returns order plus mutated copies: a dropped entry,
// a duplicated entry, two writers of one process swapped, a non-writing
// op and out-of-range refs inserted.
func writeOrderMutants(rng *rand.Rand, inst *instance, order []memory.Ref) [][]memory.Ref {
	out := [][]memory.Ref{order}
	insert := func(r memory.Ref) {
		at := rng.Intn(len(order) + 1)
		out = append(out, append(append(append([]memory.Ref{}, order[:at]...), r), order[at:]...))
	}
	if len(order) > 0 {
		at := rng.Intn(len(order))
		out = append(out, append(append([]memory.Ref{}, order[:at]...), order[at+1:]...))
		insert(order[rng.Intn(len(order))])
		i := rng.Intn(len(order))
		for j := range order {
			if j != i && order[j].Proc == order[i].Proc {
				m := append([]memory.Ref{}, order...)
				m[i], m[j] = m[j], m[i]
				out = append(out, m)
				break
			}
		}
	}
	for p, h := range inst.hist {
		for i, o := range h {
			if o.Kind == memory.Read {
				insert(memory.Ref{Proc: p, Index: i})
				break
			}
		}
	}
	p := rng.Intn(len(inst.hist))
	insert(memory.Ref{Proc: p, Index: len(inst.hist[p])})
	insert(memory.Ref{Proc: len(inst.hist), Index: 0})
	insert(memory.Ref{Proc: p, Index: -1})
	return out
}
