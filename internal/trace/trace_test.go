package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/workload"
)

const sample = `# a small trace
init x 0
init y 0
final x 2
P0: W x 1
P0: R x 1
P1: RW x 1 2
P1: ACQ
P1: REL
P0: FENCE
order x P0[0] P1[0]
`

func TestReadSample(t *testing.T) {
	tr, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Exec.NumProcesses(); got != 2 {
		t.Fatalf("processes = %d, want 2", got)
	}
	if got := tr.Exec.Histories[0]; !reflect.DeepEqual(got, memory.History{
		memory.W(0, 1), memory.R(0, 1), memory.Bar(),
	}) {
		t.Errorf("P0 = %v", got)
	}
	if got := tr.Exec.Histories[1]; !reflect.DeepEqual(got, memory.History{
		memory.RW(0, 1, 2), memory.Acq(), memory.Rel(),
	}) {
		t.Errorf("P1 = %v", got)
	}
	if tr.Exec.Initial[0] != 0 || tr.Exec.Final[0] != 2 {
		t.Error("init/final wrong")
	}
	wantOrder := []memory.Ref{{Proc: 0, Index: 0}, {Proc: 1, Index: 0}}
	if !reflect.DeepEqual(tr.WriteOrders[0], wantOrder) {
		t.Errorf("order = %v, want %v", tr.WriteOrders[0], wantOrder)
	}
	if tr.Name(0) != "x" || tr.Name(1) != "y" {
		t.Errorf("names = %q, %q", tr.Name(0), tr.Name(1))
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"garbage line",
		"P0: Q x 1",
		"Px: R x 1",
		"P0: R x",
		"P0: R x abc",
		"P0: RW x 1",
		"init x",
		"init x abc",
		"final x",
		"order",
		"order x nope",
		"order x P0[9]",
		"P0:",
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d (%q): error expected", i, in)
		}
	}
}

// TestReadErrorsNameTheLine: parse errors must carry the 1-based line
// number of the offending line, so a user can fix a long trace file
// without bisecting it.
func TestReadErrorsNameTheLine(t *testing.T) {
	cases := []struct {
		input string
		want  string
	}{
		{"P0: W x 1\ngarbage line\n", "line 2"},
		{"# comment\n\nP0: R x\n", "line 3"},
		{"init x 0\nP0: W x 1\ninit y oops\n", "line 3"},
		{"P0: W x 1\norder x P0[0] nope\n", "line 2"},
		{"P99999999: W x 1\n", "line 1"},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("%q: error expected", c.input)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not name %q", c.input, err, c.want)
		}
	}
}

// TestReadCapsProcessorNumbers: a trace naming an absurd processor
// number is rejected up front instead of allocating a history slice
// with a billion entries.
func TestReadCapsProcessorNumbers(t *testing.T) {
	if _, err := Read(strings.NewReader("P999999999: W x 1\n")); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Errorf("huge processor number: err = %v, want limit rejection", err)
	}
	// The last in-range processor still parses.
	in := fmt.Sprintf("P%d: W x 1\n", maxProcs-1)
	if _, err := Read(strings.NewReader(in)); err != nil {
		t.Errorf("P%d rejected: %v", maxProcs-1, err)
	}
}

func TestReadSkipsGapsInProcessors(t *testing.T) {
	in := "P2: W x 1\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Exec.NumProcesses(); got != 3 {
		t.Fatalf("processes = %d, want 3 (P0,P1 empty)", got)
	}
	if len(tr.Exec.Histories[0]) != 0 || len(tr.Exec.Histories[1]) != 0 {
		t.Error("empty processors not empty")
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		exec, orders := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 3, OpsPerProc: 6, Addresses: 3, Values: 3, RMWFraction: 0.1, WriteFraction: 0.4,
		})
		tr := &Trace{Exec: exec, Names: map[memory.Addr]string{}, WriteOrders: orders}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		// Address numbering may be permuted by first-appearance order;
		// compare via names.
		if back.Exec.NumOps() != exec.NumOps() {
			t.Fatalf("instance %d: ops %d != %d", i, back.Exec.NumOps(), exec.NumOps())
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, back); err != nil {
			t.Fatal(err)
		}
		// Idempotence: writing a parsed trace reproduces it exactly.
		var buf3 bytes.Buffer
		back2, err := Read(bytes.NewReader(buf2.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(&buf3, back2); err != nil {
			t.Fatal(err)
		}
		if buf2.String() != buf3.String() {
			t.Fatalf("instance %d: write/read/write not idempotent\n%s\nvs\n%s", i, buf2.String(), buf3.String())
		}
	}
}

func TestWriteDefaultNames(t *testing.T) {
	exec := memory.NewExecution(memory.History{memory.W(5, 1)})
	tr := New(exec)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a5") {
		t.Errorf("default name missing: %s", buf.String())
	}
}

// TestSplitFieldsMatchesStringsFields pins the parser's allocation-free
// splitter to strings.Fields on ASCII whitespace, non-ASCII whitespace
// (which takes the fallback) and lines longer than the field buffer.
func TestSplitFieldsMatchesStringsFields(t *testing.T) {
	lines := []string{
		"P0: W x 1",
		"P0:\tW\tx\t1",
		"  init   x  0  ",
		"P1: RW y -3 4\r",
		"P0:\vR\fx\v7",
		"P0:\u00a0W x 1",
		"P0: W\u2003x 1",
		"P0: W x\u00851",
		"P0: W hétérogène 1",
		"order x P0[0] P0[1] P0[2] P0[3] P0[4] P0[5] P0[6] P0[7] P0[8]",
		"",
		" \t ",
	}
	var buf [maxFields]string
	for _, line := range lines {
		got, want := splitFields(line, &buf), strings.Fields(line)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("splitFields(%q) = %q, want %q", line, got, want)
		}
	}
}

// TestReadUnicodeWhitespace checks that a no-break space separates
// fields as it did before the ASCII fast path.
func TestReadUnicodeWhitespace(t *testing.T) {
	tr, err := Read(strings.NewReader("init x\u00a05\nP0:\u2003R x 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exec.Initial[0] != 5 || !reflect.DeepEqual(tr.Exec.Histories[0], memory.History{memory.R(0, 5)}) {
		t.Errorf("parsed %+v", tr.Exec)
	}
}
