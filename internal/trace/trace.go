// Package trace defines a line-oriented text format for executions, used
// by the command-line tools:
//
//	# comment
//	init x 0
//	final x 2
//	P0: W x 1
//	P0: R x 1
//	P1: RW x 1 2
//	P1: ACQ
//	P1: REL
//	P0: FENCE
//	order x P0[0] P1[0]
//
// Addresses are identifiers; the parser assigns them dense memory.Addr
// numbers in order of first appearance. An optional "order" line per
// address records the memory system's write order (the §5.2
// augmentation), listing references Pproc[index] into the parsed
// histories.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"memverify/internal/memory"
)

// Trace is a parsed execution plus the naming and augmentation metadata
// of the text format.
type Trace struct {
	Exec *memory.Execution
	// Names maps each address back to its identifier in the file.
	Names map[memory.Addr]string
	// WriteOrders holds the optional per-address write orders.
	WriteOrders map[memory.Addr][]memory.Ref
	// Arrival lists every operation in file order. When a trace is
	// produced by a system logging operations as they complete, file
	// order is arrival order, which the online monitor consumes.
	Arrival []memory.Ref
}

// Name returns the identifier of address a ("a<N>" if the trace was
// built programmatically without names).
func (t *Trace) Name(a memory.Addr) string {
	if n, ok := t.Names[a]; ok {
		return n
	}
	return fmt.Sprintf("a%d", a)
}

// New wraps an execution in a Trace with default address names.
func New(exec *memory.Execution) *Trace {
	return &Trace{Exec: exec, Names: map[memory.Addr]string{}}
}

// maxProcs caps the processor numbers a trace may name. Histories are
// allocated densely up to the highest processor seen, so an unchecked
// "P999999999:" line would make the parser allocate gigabytes for a
// few bytes of input.
const maxProcs = 1 << 16

// Read parses the text format. Malformed input of any shape — garbage
// bytes, truncated lines, out-of-range numbers — is reported as an
// error carrying the offending line number; Read never panics.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	t := &Trace{
		Exec:        &memory.Execution{},
		Names:       make(map[memory.Addr]string),
		WriteOrders: make(map[memory.Addr][]memory.Ref),
	}
	addrOf := make(map[string]memory.Addr)
	intern := func(name string) memory.Addr {
		if a, ok := addrOf[name]; ok {
			return a
		}
		a := memory.Addr(len(addrOf))
		addrOf[name] = a
		t.Names[a] = name
		return a
	}
	parseVal := func(tok string) (memory.Value, error) {
		n, err := strconv.ParseInt(tok, 10, 64)
		return memory.Value(n), err
	}
	ensureProc := func(p int) {
		for len(t.Exec.Histories) <= p {
			t.Exec.Histories = append(t.Exec.Histories, nil)
		}
	}

	var fieldBuf [maxFields]string
	lineNum := 0
	for sc.Scan() {
		lineNum++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := splitFields(line, &fieldBuf)
		switch {
		case fields[0] == "init" || fields[0] == "final":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: want %q <addr> <value>", lineNum, fields[0])
			}
			v, err := parseVal(fields[2])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad value %q", lineNum, fields[2])
			}
			a := intern(fields[1])
			if fields[0] == "init" {
				t.Exec.SetInitial(a, v)
			} else {
				t.Exec.SetFinal(a, v)
			}
		case fields[0] == "order":
			if len(fields) < 2 {
				return nil, fmt.Errorf("trace: line %d: want order <addr> <refs...>", lineNum)
			}
			a := intern(fields[1])
			for _, tok := range fields[2:] {
				ref, err := parseRef(tok)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: %v", lineNum, err)
				}
				t.WriteOrders[a] = append(t.WriteOrders[a], ref)
			}
		case strings.HasPrefix(fields[0], "P") && strings.HasSuffix(fields[0], ":"):
			procStr := strings.TrimSuffix(strings.TrimPrefix(fields[0], "P"), ":")
			p, err := strconv.Atoi(procStr)
			if err != nil || p < 0 {
				return nil, fmt.Errorf("trace: line %d: bad processor %q", lineNum, fields[0])
			}
			if p >= maxProcs {
				return nil, fmt.Errorf("trace: line %d: processor %q exceeds the %d-processor limit", lineNum, fields[0], maxProcs)
			}
			ensureProc(p)
			op, err := parseOp(fields[1:], intern, parseVal)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", lineNum, err)
			}
			t.Arrival = append(t.Arrival, memory.Ref{Proc: p, Index: len(t.Exec.Histories[p])})
			t.Exec.Histories[p] = append(t.Exec.Histories[p], op)
		default:
			return nil, fmt.Errorf("trace: line %d: unrecognized line %q", lineNum, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := t.Exec.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	// Validate write-order refs.
	for a, refs := range t.WriteOrders {
		for _, r := range refs {
			if r.Proc >= len(t.Exec.Histories) || r.Index >= len(t.Exec.Histories[r.Proc]) {
				return nil, fmt.Errorf("trace: order for %s references %s, which does not exist", t.Name(a), r)
			}
		}
	}
	return t, nil
}

// maxFields is the capacity of Read's reused field buffer: every line
// but a long "order" line fits.
const maxFields = 8

// splitFields splits line around runs of ASCII whitespace into buf
// without allocating; the result aliases buf. A line holding a non-ASCII
// byte, or more than maxFields fields, goes to strings.Fields instead,
// so Unicode whitespace (U+0085, U+00A0, U+2003, ...) separates fields
// exactly as strings.Fields defines it.
func splitFields(line string, buf *[maxFields]string) []string {
	n := 0
	for i := 0; i < len(line); {
		switch byteClass[line[i]] {
		case classSpace:
			i++
			continue
		case classNonASCII:
			return strings.Fields(line)
		}
		j := i + 1
		for j < len(line) && byteClass[line[j]] == classField {
			j++
		}
		if n == maxFields {
			return strings.Fields(line)
		}
		buf[n] = line[i:j]
		n++
		i = j
	}
	return buf[:n]
}

// Byte classes for splitFields.
const (
	classField = iota
	classSpace
	classNonASCII
)

// byteClass classifies every byte for splitFields: the ASCII bytes
// strings.Fields treats as space, bytes that start or continue a
// multi-byte UTF-8 sequence, and everything else.
var byteClass = func() (t [256]uint8) {
	for _, c := range []byte{' ', '\t', '\n', '\v', '\f', '\r'} {
		t[c] = classSpace
	}
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = classNonASCII
	}
	return t
}()

func parseOp(fields []string, intern func(string) memory.Addr, parseVal func(string) (memory.Value, error)) (memory.Op, error) {
	if len(fields) == 0 {
		return memory.Op{}, fmt.Errorf("missing operation")
	}
	switch fields[0] {
	case "R", "W":
		if len(fields) != 3 {
			return memory.Op{}, fmt.Errorf("want %s <addr> <value>", fields[0])
		}
		v, err := parseVal(fields[2])
		if err != nil {
			return memory.Op{}, fmt.Errorf("bad value %q", fields[2])
		}
		a := intern(fields[1])
		if fields[0] == "R" {
			return memory.R(a, v), nil
		}
		return memory.W(a, v), nil
	case "RW":
		if len(fields) != 4 {
			return memory.Op{}, fmt.Errorf("want RW <addr> <read> <written>")
		}
		rv, err := parseVal(fields[2])
		if err != nil {
			return memory.Op{}, fmt.Errorf("bad value %q", fields[2])
		}
		wv, err := parseVal(fields[3])
		if err != nil {
			return memory.Op{}, fmt.Errorf("bad value %q", fields[3])
		}
		return memory.RW(intern(fields[1]), rv, wv), nil
	case "ACQ":
		return memory.Acq(), nil
	case "REL":
		return memory.Rel(), nil
	case "FENCE":
		return memory.Bar(), nil
	default:
		return memory.Op{}, fmt.Errorf("unknown operation %q", fields[0])
	}
}

// parseRef parses "P3[7]".
func parseRef(tok string) (memory.Ref, error) {
	if !strings.HasPrefix(tok, "P") || !strings.HasSuffix(tok, "]") {
		return memory.Ref{}, fmt.Errorf("bad reference %q", tok)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(tok, "P"), "]")
	parts := strings.SplitN(body, "[", 2)
	if len(parts) != 2 {
		return memory.Ref{}, fmt.Errorf("bad reference %q", tok)
	}
	p, err1 := strconv.Atoi(parts[0])
	i, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || p < 0 || i < 0 {
		return memory.Ref{}, fmt.Errorf("bad reference %q", tok)
	}
	return memory.Ref{Proc: p, Index: i}, nil
}

// Write emits the trace in the text format. Output is deterministic:
// init/final/order lines sorted by address, operations grouped by
// processor in program order.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	name := t.Name

	var addrs []memory.Addr
	seen := map[memory.Addr]bool{}
	add := func(a memory.Addr) {
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	for a := range t.Exec.Initial {
		add(a)
	}
	for a := range t.Exec.Final {
		add(a)
	}
	for a := range t.WriteOrders {
		add(a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	for _, a := range addrs {
		if v, ok := t.Exec.Initial[a]; ok {
			fmt.Fprintf(bw, "init %s %d\n", name(a), v)
		}
	}
	for _, a := range addrs {
		if v, ok := t.Exec.Final[a]; ok {
			fmt.Fprintf(bw, "final %s %d\n", name(a), v)
		}
	}
	emit := func(p int, o memory.Op) {
		switch o.Kind {
		case memory.Read:
			fmt.Fprintf(bw, "P%d: R %s %d\n", p, name(o.Addr), o.Data)
		case memory.Write:
			fmt.Fprintf(bw, "P%d: W %s %d\n", p, name(o.Addr), o.Data)
		case memory.ReadModifyWrite:
			fmt.Fprintf(bw, "P%d: RW %s %d %d\n", p, name(o.Addr), o.Data, o.Store)
		case memory.Acquire:
			fmt.Fprintf(bw, "P%d: ACQ\n", p)
		case memory.Release:
			fmt.Fprintf(bw, "P%d: REL\n", p)
		case memory.Fence:
			fmt.Fprintf(bw, "P%d: FENCE\n", p)
		}
	}
	// With a complete arrival order, operation lines interleave in that
	// order (so parsing recovers it); otherwise ops group by processor.
	if len(t.Arrival) == t.Exec.NumOps() && len(t.Arrival) > 0 {
		for _, r := range t.Arrival {
			emit(r.Proc, t.Exec.Op(r))
		}
	} else {
		for p, h := range t.Exec.Histories {
			for _, o := range h {
				emit(p, o)
			}
		}
	}
	for _, a := range addrs {
		refs := t.WriteOrders[a]
		if len(refs) == 0 {
			continue
		}
		fmt.Fprintf(bw, "order %s", name(a))
		for _, r := range refs {
			fmt.Fprintf(bw, " P%d[%d]", r.Proc, r.Index)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
