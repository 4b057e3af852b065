package coherence

import (
	"context"
	"fmt"
	"time"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// SolveWithWriteOrder decides VMC for address addr when the memory system
// has been augmented to supply the order in which write operations were
// executed (Section 5.2 of the paper). writeOrder must list every
// operation of exec at addr that writes (simple writes and
// read-modify-writes), exactly once, in the order the memory system
// executed them.
//
// The algorithm follows §5.2: the write order is the skeleton of the
// schedule, and each read is inserted after its program-order predecessor,
// scanning forward no further than the next write of its own history. A
// read is placed after the first write of its value in that window.
// Earliest placement is complete: with the region values fixed by the
// write order, reads of different histories are independent, and moving a
// read earlier within its window only enlarges the windows of its
// program-order successors. When no initial value is declared, the value
// of the pre-write region is a single unknown; the driver tries each
// candidate binding (at most one distinct value per history), keeping the
// whole procedure polynomial: O(k·n²) worst case, O(n²) with a declared
// initial value — versus NP-Completeness without the write order.
//
// An error is returned when writeOrder is not a valid write order for the
// instance (wrong operations, duplicates, or program order violated); an
// incoherent result (Coherent == false) is returned when the order is
// valid but no coherent schedule extends it.
func SolveWithWriteOrder(ctx context.Context, exec *memory.Execution, addr memory.Addr, writeOrder []memory.Ref, opts *Options) (r *Result, err error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	if e := solver.Interrupted(ctx); e != nil {
		return nil, withAddr(e, addr)
	}
	sp, ctx := beginSolve(ctx, "write-order", addr)
	defer func() { endSolve(ctx, sp, r, err) }()
	start := time.Now()
	inst := project(exec, addr)
	order, err := inst.toProjectionRefs(writeOrder, addr)
	if err != nil {
		return nil, err
	}
	r, err = writeOrderInstance(inst, order)
	if r != nil {
		r.Stats.Duration = time.Since(start)
	}
	return r, err
}

// toProjectionRefs translates original execution refs to projection
// refs, whichever back-map form the instance carries.
func (in *instance) toProjectionRefs(refs []memory.Ref, addr memory.Addr) ([]memory.Ref, error) {
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
			return nil, fmt.Errorf("coherence: write order entry %s is not an operation of address %d", r, addr)
		}
		out[i] = pr
	}
	return out, nil
}

// validateWriteOrder checks that order lists every writing op of the
// instance exactly once, respecting program order.
func (in *instance) validateWriteOrder(order []memory.Ref) error {
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

// writeOrderInstance runs the §5.2 algorithm over a projected instance.
// order holds projection refs of the writing operations.
func writeOrderInstance(inst *instance, order []memory.Ref) (r *Result, err error) {
	defer func() { stampOps(r, inst) }()
	if err := inst.validateWriteOrder(order); err != nil {
		return nil, err
	}
	incoherent := &Result{Coherent: false, Decided: true, Algorithm: "write-order"}

	// Determine the pre-write-region value. It may be forced by a
	// declared initial value or by a read-modify-write standing first in
	// the write order; otherwise it is unknown and we try each candidate
	// (the first-read value of each history whose window reaches the
	// pre-write region).
	var init *memory.Value
	if inst.init != nil {
		v := *inst.init
		init = &v
	}
	if init == nil && len(order) > 0 {
		if first := inst.hist[order[0].Proc][order[0].Index]; first.Kind == memory.ReadModifyWrite {
			v := first.Data
			init = &v
		}
	}
	if init != nil {
		sched, ok := placeReads(inst, order, init)
		if !ok {
			return incoherent, nil
		}
		return &Result{Coherent: true, Decided: true, Schedule: inst.translate(sched), Algorithm: "write-order"}, nil
	}
	// Unknown pre-write value: candidates are the values of reads that
	// may land in the pre-write region (the first reads of each history
	// that precede the history's first write).
	candidates := make(map[memory.Value]bool)
	for _, h := range inst.hist {
		for _, o := range h {
			if _, isWrite := o.Writes(); isWrite {
				break
			}
			candidates[o.Data] = true
		}
	}
	if len(candidates) == 0 {
		sched, ok := placeReads(inst, order, nil)
		if !ok {
			return incoherent, nil
		}
		return &Result{Coherent: true, Decided: true, Schedule: inst.translate(sched), Algorithm: "write-order"}, nil
	}
	for v := range candidates {
		v := v
		if sched, ok := placeReads(inst, order, &v); ok {
			return &Result{Coherent: true, Decided: true, Schedule: inst.translate(sched), Algorithm: "write-order"}, nil
		}
	}
	return incoherent, nil
}

// placeReads attempts to extend the write order into a full coherent
// schedule with the pre-write region bound to init (nil means the region
// matches no read). It returns the schedule in projection refs.
func placeReads(inst *instance, order []memory.Ref, init *memory.Value) ([]memory.Ref, bool) {
	nw := len(order)
	// value[b] is the memory value in force in region b: region 0
	// precedes all writes; region b (1-based) follows the b-th write.
	value := make([]memory.Value, nw+1)
	valueBound := make([]bool, nw+1)
	if init != nil {
		value[0], valueBound[0] = *init, true
	}
	regionOf := make(map[memory.Ref]int, nw)
	for b, r := range order {
		o := inst.hist[r.Proc][r.Index]
		// A read-modify-write embedded in the write order must read the
		// value in force before it.
		if dr, ok := o.Reads(); ok {
			if !valueBound[b] || value[b] != dr {
				return nil, false
			}
		}
		dw, _ := o.Writes()
		value[b+1], valueBound[b+1] = dw, true
		regionOf[r] = b + 1
	}

	// Final value: the last write must store it; with no writes, a bound
	// pre-write value must agree (mirroring memory.CheckCoherent).
	if inst.final != nil {
		if nw > 0 && value[nw] != *inst.final {
			return nil, false
		}
		if nw == 0 && valueBound[0] && value[0] != *inst.final {
			return nil, false
		}
	}

	// Insert reads. reads[b] accumulates the reads assigned to region b.
	// Appending preserves per-history program order within a region
	// because each history is traversed in program order.
	reads := make([][]memory.Ref, nw+1)
	for h := range inst.hist {
		hist := inst.hist[h]
		// nextWriteRegion[i]: region index of the first writing op of
		// this history at or after op i (nw+1 if none). A read at i must
		// be placed in a region strictly below nextWriteRegion[i+1].
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

	// Emit the schedule: region 0 reads, then each write followed by its
	// region's reads.
	sched := make([]memory.Ref, 0, inst.nops)
	sched = append(sched, reads[0]...)
	for b, r := range order {
		sched = append(sched, r)
		sched = append(sched, reads[b+1]...)
	}
	return sched, true
}

// CheckRMWWriteOrder decides VMC in O(n) for instances consisting solely
// of read-modify-write operations when the write order is supplied: the
// write order is then a total order of all operations, and coherence
// holds iff the read component of each operation returns the value stored
// by the write component of its predecessor (§5.2, final remark).
func CheckRMWWriteOrder(ctx context.Context, exec *memory.Execution, addr memory.Addr, writeOrder []memory.Ref) (res *Result, err error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	if e := solver.Interrupted(ctx); e != nil {
		return nil, withAddr(e, addr)
	}
	sp, ctx := beginSolve(ctx, "rmw-write-order", addr)
	defer func() { endSolve(ctx, sp, res, err) }()
	inst := project(exec, addr)
	if !inst.allRMW() {
		return nil, fmt.Errorf("coherence: address %d has non-RMW operations; use SolveWithWriteOrder", addr)
	}
	if len(writeOrder) != inst.nops {
		return nil, fmt.Errorf("coherence: write order lists %d operations, instance has %d",
			len(writeOrder), inst.nops)
	}
	order, err := inst.toProjectionRefs(writeOrder, addr)
	if err != nil {
		return nil, err
	}
	if err := inst.validateWriteOrder(order); err != nil {
		return nil, err
	}
	incoherent := &Result{Coherent: false, Decided: true, Algorithm: "rmw-write-order"}
	stampOps(incoherent, inst)

	var cur memory.Value
	bound := false
	if inst.init != nil {
		cur, bound = *inst.init, true
	}
	for _, r := range order {
		o := inst.hist[r.Proc][r.Index]
		if bound && o.Data != cur {
			return incoherent, nil
		}
		cur, bound = o.Store, true
	}
	if inst.final != nil && bound && cur != *inst.final {
		return incoherent, nil
	}
	res = &Result{
		Coherent:  true,
		Decided:   true,
		Schedule:  inst.translate(order),
		Algorithm: "rmw-write-order",
	}
	stampOps(res, inst)
	return res, nil
}
