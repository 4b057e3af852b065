package memory

// OpOffsets returns the per-process prefix offsets of hist: op i of
// process p has the dense id off[p]+i, and off[len(hist)] is the op
// count. Dense ids let per-op state live in slices and bitsets instead
// of Ref-keyed maps.
func OpOffsets(hist []History) []int {
	off := make([]int, len(hist)+1)
	for p, h := range hist {
		off[p+1] = off[p] + len(h)
	}
	return off
}

// OpTracker records a sequence of references to the operations of a set
// of histories, as a schedule or a write order lists them, and detects
// the two ways such a listing goes wrong: naming an op twice and breaking
// program order. The state is a bitset over the dense ids (OpOffsets)
// plus the last index listed per process: O(n+P) space for n operations
// over P processes, O(1) time per reference, and no maps.
type OpTracker struct {
	hist []History
	off  []int    // OpOffsets(hist)
	last []int    // per process: the last index listed, -1 for none
	seen []uint64 // bit off[p]+i: op i of process p was listed
}

// MarkResult is the outcome of OpTracker.Mark.
type MarkResult uint8

const (
	Marked           MarkResult = iota // r recorded
	MarkedTwice                        // r was already listed
	MarkedOutOfOrder                   // r does not follow the last op listed for its process
)

// NewOpTracker returns a tracker over hist with nothing listed.
func NewOpTracker(hist []History) OpTracker {
	off := OpOffsets(hist)
	last := make([]int, len(hist))
	for p := range last {
		last[p] = -1
	}
	return OpTracker{hist: hist, off: off, last: last, seen: make([]uint64, (off[len(hist)]+63)/64)}
}

// InRange reports whether r names an operation of the histories.
func (t *OpTracker) InRange(r Ref) bool {
	return r.Proc >= 0 && r.Proc < len(t.hist) && r.Index >= 0 && r.Index < len(t.hist[r.Proc])
}

// Mark lists r, which must be in range. A reference that is a repeat or
// out of program order is reported and not recorded.
func (t *OpTracker) Mark(r Ref) MarkResult {
	k := t.off[r.Proc] + r.Index
	if t.seen[k>>6]&(1<<(k&63)) != 0 {
		return MarkedTwice
	}
	if r.Index <= t.last[r.Proc] {
		return MarkedOutOfOrder
	}
	t.seen[k>>6] |= 1 << (k & 63)
	t.last[r.Proc] = r.Index
	return Marked
}

// Listed reports whether op i of process p has been listed.
func (t *OpTracker) Listed(p, i int) bool {
	k := t.off[p] + i
	return t.seen[k>>6]&(1<<(k&63)) != 0
}

// Last returns the index of the last op listed for process p, -1 for none.
func (t *OpTracker) Last(p int) int { return t.last[p] }
