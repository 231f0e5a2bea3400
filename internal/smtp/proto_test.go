package smtp

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// TestDotStuffRoundTripProperty: any message body written through the
// dot-stuffing writer and read back through the dot-stripping reader is
// byte-identical modulo line-ending canonicalization.
func TestDotStuffRoundTripProperty(t *testing.T) {
	f := func(lines [][]byte) bool {
		// Build a CRLF-canonical body from arbitrary line content (the
		// writer transmits whatever line endings it is given; SMTP bodies
		// are CRLF-delimited, so generate them that way).
		var body bytes.Buffer
		for _, line := range lines {
			clean := bytes.Map(func(r rune) rune {
				if r == '\r' || r == '\n' {
					return '.'
				}
				return r
			}, line)
			body.Write(clean)
			body.WriteString("\r\n")
		}
		var wire bytes.Buffer
		dw := newDotWriter(&wire)
		if _, err := dw.Write(body.Bytes()); err != nil {
			return false
		}
		if err := dw.Close(); err != nil {
			return false
		}
		// The wire form must end with the terminator; an empty body is
		// just the terminator line.
		if body.Len() == 0 {
			if wire.String() != ".\r\n" {
				return false
			}
		} else if !bytes.HasSuffix(wire.Bytes(), []byte("\r\n.\r\n")) {
			return false
		}
		dr := newDotReader(newReader(&wire), 1<<20)
		decoded, err := io.ReadAll(dr)
		if err != nil {
			return false
		}
		return bytes.Equal(decoded, body.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDotStuffLeadingDots(t *testing.T) {
	body := ".\r\n..\r\n.leading\r\nnormal\r\n"
	var wire bytes.Buffer
	dw := newDotWriter(&wire)
	if _, err := dw.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	// Every line that began with '.' must have been doubled on the wire.
	wireLines := strings.Split(wire.String(), "\r\n")
	if wireLines[0] != ".." || wireLines[1] != "..." || wireLines[2] != "..leading" {
		t.Errorf("wire lines = %q", wireLines[:3])
	}
	dr := newDotReader(newReader(&wire), 1<<20)
	decoded, err := io.ReadAll(dr)
	if err != nil {
		t.Fatal(err)
	}
	if string(decoded) != body {
		t.Errorf("decoded = %q, want %q", decoded, body)
	}
}

func TestDotWriterAddsFinalCRLF(t *testing.T) {
	var wire bytes.Buffer
	dw := newDotWriter(&wire)
	dw.Write([]byte("no trailing newline"))
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(wire.String(), "no trailing newline\r\n.\r\n") {
		t.Errorf("wire = %q", wire.String())
	}
}

func TestDotReaderSizeLimitRecovers(t *testing.T) {
	// Oversized bodies are consumed to the terminator and flagged.
	wire := strings.Repeat("x", 100) + "\r\n" + strings.Repeat("y", 100) + "\r\n.\r\nNEXT\r\n"
	rd := newReader(strings.NewReader(wire))
	dr := newDotReader(rd, 50)
	if _, err := io.ReadAll(dr); err != nil {
		t.Fatal(err)
	}
	if !dr.tooLong {
		t.Error("size overflow not flagged")
	}
	// The protocol stream continues cleanly after the terminator.
	line, err := rd.line()
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if line != "NEXT" {
		t.Errorf("stream after terminator = %q", line)
	}
}

func TestCommandParsing(t *testing.T) {
	cases := []struct{ in, verb, arg string }{
		{"EHLO example.com", "EHLO", "example.com"},
		{"ehlo example.com", "EHLO", "example.com"},
		{"QUIT", "QUIT", ""},
		{"MAIL FROM:<a@b.c> SIZE=100", "MAIL", "FROM:<a@b.c> SIZE=100"},
		{"", "", ""},
	}
	for _, c := range cases {
		verb, arg := command(c.in)
		if verb != c.verb || arg != c.arg {
			t.Errorf("command(%q) = (%q, %q), want (%q, %q)", c.in, verb, arg, c.verb, c.arg)
		}
	}
}

// countingReader counts the bytes its reader hands out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReaderLineTooLong rejects over-long lines after reading a bounded
// amount of them, and resyncs at the line that follows.
func TestReaderLineTooLong(t *testing.T) {
	for _, size := range []int{maxLineLen + 10, 1 << 20} {
		src := &countingReader{r: strings.NewReader(strings.Repeat("a", size) + "\r\nNOOP\r\n")}
		rd := newReader(src)
		if _, err := rd.line(); err != ErrLineTooLong {
			t.Errorf("%d-byte line: err = %v, want ErrLineTooLong", size, err)
		}
		if src.n > maxLineLen+4096 {
			t.Errorf("%d-byte line: rejecting it consumed %d bytes, want <= %d", size, src.n, maxLineLen+4096)
		}
		if line, err := rd.line(); line != "NOOP" || err != nil {
			t.Errorf("%d-byte line: next line = %q, %v; want NOOP", size, line, err)
		}
	}
}
