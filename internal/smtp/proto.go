// Package smtp implements the subset of the Simple Mail Transfer Protocol
// (RFC 5321) and the STARTTLS extension (RFC 3207) that the paper's
// measurement substrate requires: servers that greet with a banner,
// respond to EHLO/HELO with their identity and extensions, upgrade to TLS
// presenting a certificate chain, and accept mail; and a client capable
// both of scanning those servers Censys-style and of relaying messages.
package smtp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Protocol limits, chosen per RFC 5321 §4.5.3 with headroom.
const (
	maxLineLen = 2048
	// DefaultMaxMessageBytes bounds DATA payloads.
	DefaultMaxMessageBytes = 10 << 20
)

// ErrLineTooLong reports a protocol line exceeding the length limit.
var ErrLineTooLong = errors.New("smtp: line too long")

// reader wraps a bufio.Reader with CRLF-terminated line framing and a
// length limit.
type reader struct {
	r *bufio.Reader
	// skipping is set when an over-long line was rejected before its
	// end was read: the next line call drops the rest of it first, so
	// the session resyncs at the following line.
	skipping bool
}

func newReader(r io.Reader) *reader {
	return &reader{r: bufio.NewReaderSize(r, 4096)}
}

// line reads one CRLF- (or LF-) terminated line without its terminator.
// A line longer than maxLineLen fails with ErrLineTooLong as soon as the
// limit is crossed, after at most one more buffer of input, so a peer
// cannot make the reader buffer without bound.
func (rd *reader) line() (string, error) {
	var buf []byte
	for {
		frag, err := rd.r.ReadSlice('\n')
		if rd.skipping {
			if err == nil {
				rd.skipping = false
				continue
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			return "", err
		}
		buf = append(buf, frag...)
		if len(buf) > maxLineLen {
			rd.skipping = err == bufio.ErrBufferFull
			return "", ErrLineTooLong
		}
		if err == nil {
			return strings.TrimRight(string(buf), "\r\n"), nil
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
	}
}

// command splits a protocol line into an upper-cased verb and its
// argument remainder.
func command(line string) (verb, arg string) {
	verb = line
	if i := strings.IndexByte(line, ' '); i >= 0 {
		verb, arg = line[:i], strings.TrimSpace(line[i+1:])
	}
	return strings.ToUpper(verb), arg
}

// Reply is one SMTP reply: a three-digit code and one or more text lines.
type Reply struct {
	Code  int
	Lines []string
}

// String renders the reply in wire form including CRLFs.
func (r Reply) String() string {
	if len(r.Lines) == 0 {
		return fmt.Sprintf("%03d \r\n", r.Code)
	}
	var sb strings.Builder
	for i, line := range r.Lines {
		sep := "-"
		if i == len(r.Lines)-1 {
			sep = " "
		}
		fmt.Fprintf(&sb, "%03d%s%s\r\n", r.Code, sep, line)
	}
	return sb.String()
}

// writeReply sends a reply over w.
func writeReply(w io.Writer, code int, lines ...string) error {
	if len(lines) == 0 {
		lines = []string{""}
	}
	_, err := io.WriteString(w, Reply{Code: code, Lines: lines}.String())
	return err
}

// readReply parses a (possibly multi-line) SMTP reply.
func readReply(rd *reader) (Reply, error) {
	var rep Reply
	for {
		line, err := rd.line()
		if err != nil {
			return rep, err
		}
		if len(line) < 3 {
			return rep, fmt.Errorf("smtp: short reply line %q", line)
		}
		code, err := strconv.Atoi(line[:3])
		if err != nil {
			return rep, fmt.Errorf("smtp: bad reply code in %q", line)
		}
		if rep.Code != 0 && code != rep.Code {
			return rep, fmt.Errorf("smtp: inconsistent reply codes %d and %d", rep.Code, code)
		}
		rep.Code = code
		sep := byte(' ')
		text := ""
		if len(line) > 3 {
			sep = line[3]
			text = line[4:]
		}
		rep.Lines = append(rep.Lines, text)
		switch sep {
		case ' ':
			return rep, nil
		case '-':
			if len(rep.Lines) > 64 {
				return rep, errors.New("smtp: reply has too many lines")
			}
		default:
			return rep, fmt.Errorf("smtp: bad separator %q in %q", sep, line)
		}
	}
}

// parsePath extracts the mailbox from a MAIL FROM / RCPT TO argument of
// the form "FROM:<user@host>" / "TO:<user@host>", tolerating optional
// whitespace and ESMTP parameters after the path.
func parsePath(arg, prefix string) (string, error) {
	rest, ok := cutPrefixFold(arg, prefix+":")
	if !ok {
		return "", fmt.Errorf("smtp: expected %s:", prefix)
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "<") {
		return "", errors.New("smtp: path must be angle-quoted")
	}
	end := strings.IndexByte(rest, '>')
	if end < 0 {
		return "", errors.New("smtp: unterminated path")
	}
	return rest[1:end], nil
}

// cutPrefixFold is strings.CutPrefix with ASCII case folding.
func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) {
		return s, false
	}
	if strings.EqualFold(s[:len(prefix)], prefix) {
		return s[len(prefix):], true
	}
	return s, false
}

// dotWriter encodes a message body with dot-stuffing (RFC 5321 §4.5.2)
// and finishes with the terminating ".\r\n" on Close.
type dotWriter struct {
	w       *bufio.Writer
	lineLen int // bytes written on the current line
	err     error
}

func newDotWriter(w io.Writer) *dotWriter {
	return &dotWriter{w: bufio.NewWriter(w)}
}

// Write implements io.Writer, stuffing leading dots.
func (d *dotWriter) Write(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	written := 0
	for _, b := range p {
		if d.lineLen == 0 && b == '.' {
			if d.err = d.w.WriteByte('.'); d.err != nil {
				return written, d.err
			}
		}
		if d.err = d.w.WriteByte(b); d.err != nil {
			return written, d.err
		}
		written++
		if b == '\n' {
			d.lineLen = 0
		} else {
			d.lineLen++
		}
	}
	return written, nil
}

// Close terminates the message.
func (d *dotWriter) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.lineLen != 0 {
		if _, err := d.w.WriteString("\r\n"); err != nil {
			return err
		}
	}
	if _, err := d.w.WriteString(".\r\n"); err != nil {
		return err
	}
	return d.w.Flush()
}

// dotReader decodes a dot-stuffed message body, returning io.EOF at the
// terminating ".\r\n" line and enforcing a size limit.
type dotReader struct {
	rd      *reader
	limit   int64
	read    int64
	buf     []byte
	done    bool
	tooLong bool
}

func newDotReader(rd *reader, limit int64) *dotReader {
	return &dotReader{rd: rd, limit: limit}
}

// Read implements io.Reader over the decoded body.
func (d *dotReader) Read(p []byte) (int, error) {
	for len(d.buf) == 0 {
		if d.done {
			return 0, io.EOF
		}
		line, err := d.rd.line()
		if err != nil {
			return 0, err
		}
		if line == "." {
			d.done = true
			return 0, io.EOF
		}
		line = strings.TrimPrefix(line, ".")
		d.read += int64(len(line)) + 2
		if d.limit > 0 && d.read > d.limit {
			d.tooLong = true
			// Keep consuming until the terminator so the session can
			// recover, but surface the overflow.
			continue
		}
		d.buf = append(d.buf[:0], line...)
		d.buf = append(d.buf, '\r', '\n')
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}
