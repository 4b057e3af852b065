package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead checks that the parser never panics and that every
// successfully parsed trace round-trips through Write/Read to a
// fixpoint.
func FuzzRead(f *testing.F) {
	f.Add(sample)
	f.Add("init x 0\nP0: W x 1\n")
	f.Add("P0: RW y -3 4\norder y P0[0]\n")
	f.Add("# only a comment\n")
	f.Add("P1: ACQ\nP1: FENCE\nP1: REL\n")
	// Malformed shapes the parser must reject without panicking:
	// truncated lines, garbage bytes, huge numbers, dangling refs.
	f.Add("init x\n")
	f.Add("P0: W x\n")
	f.Add("P0:\n")
	f.Add("\x00\xff garbage\n")
	f.Add("P999999999: W x 1\n")
	f.Add("P-1: W x 1\n")
	f.Add("init x 99999999999999999999999999\n")
	f.Add("order x P0[0] P1[7]\nP0: W x 1\n")
	f.Add("order x\n")
	f.Add("P0: Q x 1\n")
	f.Add("init x 0\ninit x 1\nfinal x 0\nfinal x 2\n")
	f.Add("P0: W x 1\nP0: W x 1\nP0: R x 1\nP0: R x 1\n")
	// Whitespace shapes: the ASCII splitter handles tabs, \r and \v
	// itself; U+00A0 and U+2003 separate fields only through the
	// strings.Fields fallback for non-ASCII lines.
	f.Add("init\tx\t0\nP0:\tW x\t1\n")
	f.Add("P0: W x 1\r\nP1: R x 1\r\n")
	f.Add("P0:\vW\vx\v1\n")
	f.Add("P0:\u00a0W\u00a0x\u00a01\n")
	f.Add("init x\u20030\nP0: R\u2003x 0\n")
	f.Add("order x P0[0] P0[1] P0[2] P0[3] P0[4] P0[5] P0[6] P0[7]\nP0: W x 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("write of parsed trace failed: %v", err)
		}
		tr2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written trace failed: %v\n%s", err, buf.String())
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, tr2); err != nil {
			t.Fatal(err)
		}
		if buf.String() != buf2.String() {
			t.Fatalf("write/read/write not a fixpoint:\n%s\nvs\n%s", buf.String(), buf2.String())
		}
	})
}
