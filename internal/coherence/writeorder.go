package coherence

import (
	"context"
	"fmt"
	"slices"
	"sort"
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
// refs. The identity projection maps refs to themselves; a slice-backed
// one is inverted by binary search, since backIdx[p] lists process p's
// original indices in ascending program order.
func (in *instance) toProjectionRefs(refs []memory.Ref, addr memory.Addr) ([]memory.Ref, error) {
	out := make([]memory.Ref, len(refs))
	for i, r := range refs {
		pr, ok := in.projRef(r)
		if !ok {
			return nil, fmt.Errorf("coherence: write order entry %s is not an operation of address %d", r, addr)
		}
		out[i] = pr
	}
	return out, nil
}

// projRef maps an original execution ref to its projection ref, if the
// op belongs to the instance.
func (in *instance) projRef(r memory.Ref) (memory.Ref, bool) {
	if r.Proc < 0 || r.Proc >= len(in.hist) || r.Index < 0 {
		return memory.Ref{}, false
	}
	if in.backIdx == nil {
		return r, r.Index < len(in.hist[r.Proc])
	}
	back := in.backIdx[r.Proc]
	i := sort.Search(len(back), func(i int) bool { return back[i].Index >= r.Index })
	if i == len(back) || back[i].Index != r.Index {
		return memory.Ref{}, false
	}
	return memory.Ref{Proc: r.Proc, Index: i}, true
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
	t := memory.NewOpTracker(in.hist)
	for _, r := range order {
		if !t.InRange(r) {
			return fmt.Errorf("coherence: write order reference %s out of range", r)
		}
		o := in.hist[r.Proc][r.Index]
		if _, ok := o.Writes(); !ok {
			return fmt.Errorf("coherence: write order entry %s (%s) does not write", r, o)
		}
		switch t.Mark(r) {
		case memory.MarkedTwice:
			return fmt.Errorf("coherence: write order lists %s twice", r)
		case memory.MarkedOutOfOrder:
			return fmt.Errorf("coherence: write order violates program order at %s", r)
		}
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
	pl := placer{inst: inst, off: memory.OpOffsets(inst.hist)}
	incoherent := &Result{Coherent: false, Decided: true, Algorithm: "write-order"}
	coherent := func(sched memory.Schedule) *Result {
		return &Result{Coherent: true, Decided: true, Schedule: sched, Algorithm: "write-order"}
	}

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
		sched, ok := pl.place(order, init)
		if !ok {
			return incoherent, nil
		}
		return coherent(sched), nil
	}
	// Unknown pre-write value: candidates are the values of reads that
	// may land in the pre-write region (the first reads of each history
	// that precede the history's first write), tried in ascending order.
	var candidates []memory.Value
	for _, h := range inst.hist {
		for _, o := range h {
			if _, isWrite := o.Writes(); isWrite {
				break
			}
			candidates = append(candidates, o.Data)
		}
	}
	if len(candidates) == 0 {
		sched, ok := pl.place(order, nil)
		if !ok {
			return incoherent, nil
		}
		return coherent(sched), nil
	}
	slices.Sort(candidates)
	for _, v := range slices.Compact(candidates) {
		v := v
		if sched, ok := pl.place(order, &v); ok {
			return coherent(sched), nil
		}
	}
	return incoherent, nil
}

// placer is the §5.2 read placement over one instance, with its dense
// per-op scratch reused across the candidate initial values.
type placer struct {
	inst *instance
	off  []int // memory.OpOffsets of the instance's histories
	// region[off[h]+i] is the region of op i of history h: for a writer
	// the region it opens (1-based write-order position), for a read
	// first the region of its history's next writer, then the region it
	// is placed in.
	region []int32
	// cursor[b] counts the reads placed in region b, then becomes the
	// schedule position of the next one.
	cursor []int32
}

// place attempts to extend the write order into a full coherent
// schedule with the pre-write region bound to init (nil means the region
// matches no read). It returns the schedule in original execution refs.
func (pl *placer) place(order []memory.Ref, init *memory.Value) (memory.Schedule, bool) {
	inst, off := pl.inst, pl.off
	nw := len(order)
	// value[b] is the memory value in force in region b: region 0
	// precedes all writes; region b (1-based) follows the b-th write.
	value := make([]memory.Value, nw+1)
	valueBound := make([]bool, nw+1)
	if init != nil {
		value[0], valueBound[0] = *init, true
	}
	if pl.region == nil {
		pl.region = make([]int32, off[len(inst.hist)])
		pl.cursor = make([]int32, nw+1)
	} else {
		clear(pl.cursor)
	}
	region, cursor := pl.region, pl.cursor
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
		region[off[r.Proc]+r.Index] = int32(b + 1)
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

	// Insert reads, each in the earliest region of its window holding
	// its value.
	for h, hist := range inst.hist {
		reg := region[off[h]:off[h+1]]
		// Backward pass: a read at i must be placed in a region strictly
		// below that of the first writer of its history after it (nw+1
		// if none).
		limit := int32(nw + 1)
		for i := len(hist) - 1; i >= 0; i-- {
			if _, ok := hist[i].Writes(); ok {
				limit = reg[i]
			} else {
				reg[i] = limit
			}
		}
		curRegion := int32(0)
		for i, o := range hist {
			if _, ok := o.Writes(); ok {
				curRegion = reg[i]
				continue
			}
			d := o.Data
			placed := false
			for b := curRegion; b < reg[i] && int(b) <= nw; b++ {
				if valueBound[b] && value[b] == d {
					reg[i], curRegion = b, b
					cursor[b]++
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
	// region's reads. Region b's reads start after the writes and reads
	// of every earlier region; histories are visited in order, so reads
	// of one region keep the per-history program order.
	sched := make(memory.Schedule, off[len(inst.hist)])
	pos := int32(0)
	for b := 0; b <= nw; b++ {
		n := cursor[b]
		cursor[b] = pos
		pos += n + 1 // the region's reads, then the write opening b+1
	}
	for b, r := range order {
		sched[cursor[b+1]-1] = inst.origRef(r)
	}
	for h, hist := range inst.hist {
		reg := region[off[h]:off[h+1]]
		for i, o := range hist {
			if _, ok := o.Writes(); ok {
				continue
			}
			sched[cursor[reg[i]]] = inst.origRef(memory.Ref{Proc: h, Index: i})
			cursor[reg[i]]++
		}
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
