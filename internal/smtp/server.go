package smtp

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"time"

	"mxmap/internal/overload"
)

// Admission-control defaults.
const (
	// DefaultMaxConns bounds concurrent SMTP sessions per server.
	DefaultMaxConns = 512
	// DefaultMaxCommands bounds commands per session before the server
	// closes it with a 421.
	DefaultMaxCommands = 1000
)

// An Envelope is one received message: its envelope addresses and body.
type Envelope struct {
	From string
	To   []string
	Data []byte
}

// Config parameterizes a Server. The zero value is not valid; Hostname is
// required.
type Config struct {
	// Hostname is the identity the server announces in its banner and
	// EHLO response. The paper's methodology treats this as the
	// Banner/EHLO signal; it may be any text the operator configures —
	// including a non-FQDN string or a false claim — which Banner and
	// EHLOName below can arrange.
	Hostname string
	// Banner overrides the greeting text after "220 " (default
	// "<Hostname> ESMTP Service ready").
	Banner string
	// EHLOName overrides the identity in the EHLO response (default
	// Hostname). This models servers whose banner and EHLO disagree.
	EHLOName string
	// TLS enables STARTTLS with the given configuration when non-nil.
	TLS *tls.Config
	// OnMessage receives each completed envelope; nil accepts and
	// discards mail.
	OnMessage func(Envelope)
	// Auth enables SMTP-AUTH (PLAIN and LOGIN) when non-nil.
	Auth Authenticator
	// RequireTLSForAuth refuses AUTH before STARTTLS (RFC 4954 §4).
	RequireTLSForAuth bool
	// RequireAuthForMail turns the server into a submission agent
	// (RFC 6409): MAIL is refused until the client authenticates.
	RequireAuthForMail bool
	// MaxMessageBytes bounds DATA payloads (default
	// DefaultMaxMessageBytes).
	MaxMessageBytes int64
	// ReadTimeout bounds waiting for each client command (default 60s).
	ReadTimeout time.Duration
	// MaxConns caps concurrent sessions; accepts beyond the cap are
	// answered with a 421 and closed (default DefaultMaxConns; negative
	// means unlimited).
	MaxConns int
	// MaxCommands caps commands per session before the server closes it
	// with a 421, bounding what one client can pin (default
	// DefaultMaxCommands; negative means unlimited).
	MaxCommands int
	// Logger receives session-level debug records; nil disables logging.
	Logger *slog.Logger
}

// A Server accepts SMTP sessions on one or more listeners.
type Server struct {
	cfg   Config
	lc    *overload.Lifecycle
	stats serverCounters
}

// NewServer validates cfg and creates a server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Hostname == "" {
		return nil, errors.New("smtp: config requires a hostname")
	}
	if cfg.Banner == "" {
		cfg.Banner = cfg.Hostname + " ESMTP Service ready"
	}
	if cfg.EHLOName == "" {
		cfg.EHLOName = cfg.Hostname
	}
	if cfg.MaxMessageBytes == 0 {
		cfg.MaxMessageBytes = DefaultMaxMessageBytes
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 60 * time.Second
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.MaxCommands == 0 {
		cfg.MaxCommands = DefaultMaxCommands
	}
	s := &Server{cfg: cfg, lc: overload.NewLifecycle(cfg.MaxConns, cfg.ReadTimeout)}
	s.lc.Reject = func(conn net.Conn) {
		writeReply(conn, 421, cfg.EHLOName+" Too many connections, try again later")
	}
	return s, nil
}

// Stats returns a snapshot of the server's serving counters.
func (s *Server) Stats() ServerStats { return s.stats.snapshot(&s.lc.Counters) }

// Serve accepts connections on ln until the server is closed. It blocks;
// run it in a goroutine.
//
// Transient accept errors are retried with jittered backoff instead of
// killing the loop, and connections beyond MaxConns are shed with a 421
// so a connection storm cannot spawn unbounded session goroutines.
func (s *Server) Serve(ln net.Listener) error { return s.lc.Serve(ln, s.serveConn) }

// Shutdown gracefully drains the server: it stops accepting, lets each
// session finish the command it is executing (a session mid-DATA
// completes the transaction), tells idle sessions 421, and then closes.
// It returns nil when the drain completed, or ctx.Err() after falling
// back to a hard Close at the context deadline. Close retains hard-stop
// semantics.
func (s *Server) Shutdown(ctx context.Context) error { return s.lc.Shutdown(ctx) }

// Close stops all listeners and sessions immediately and waits for
// session goroutines to exit. Shutdown is the graceful alternative.
func (s *Server) Close() error { return s.lc.Close() }

// session holds per-connection state.
type session struct {
	srv     *Server
	tracked *overload.Conn
	conn    net.Conn
	rd      *reader

	helloSeen     bool
	tlsActive     bool
	authenticated bool
	username      string
	from          string
	to            []string
}

func (s *Server) serveConn(conn net.Conn) {
	sess := &session{srv: s, conn: conn, rd: newReader(conn)}
	c, ok := s.lc.Track(conn)
	if !ok {
		// Raced with shutdown between accept and registration.
		sess.goodbye()
		return
	}
	defer s.lc.Untrack(c)
	sess.tracked = c
	if err := sess.reply(220, s.cfg.Banner); err != nil {
		return
	}
	commands := 0
	for {
		if !s.lc.BeginRead(c) {
			sess.goodbye()
			return
		}
		line, err := sess.rd.line()
		tooLong := errors.Is(err, ErrLineTooLong)
		if err != nil && !tooLong {
			if s.lc.Stopping() {
				// Woken by Shutdown's immediate read deadline.
				sess.goodbye()
			}
			return
		}
		// An over-long line spends the budget like a command, or a
		// client could pin the session with them forever.
		commands++
		if s.cfg.MaxCommands > 0 && commands > s.cfg.MaxCommands {
			s.stats.budgetCloses.Add(1)
			sess.goodbye()
			return
		}
		if tooLong {
			sess.reply(500, "Line too long")
			continue
		}
		s.stats.commands.Add(1)
		verb, arg := command(line)
		s.lc.SetBusy(c, true)
		done, err := sess.dispatch(verb, arg)
		s.lc.SetBusy(c, false)
		if err != nil {
			s.logf("session error: %v", err)
			return
		}
		if done {
			return
		}
	}
}

// goodbye tells the client the server is closing the transmission
// channel (RFC 5321 §3.8) under a short write deadline so a stuck peer
// cannot pin the drain.
func (sess *session) goodbye() {
	sess.conn.SetWriteDeadline(time.Now().Add(time.Second))
	writeReply(sess.conn, 421, sess.srv.cfg.EHLOName+" Service closing transmission channel")
}

func (sess *session) reply(code int, lines ...string) error {
	return writeReply(sess.conn, code, lines...)
}

// dispatch executes one command; done=true ends the session.
func (sess *session) dispatch(verb, arg string) (done bool, err error) {
	switch verb {
	case "HELO":
		sess.resetTransaction()
		sess.helloSeen = true
		return false, sess.reply(250, sess.srv.cfg.EHLOName)
	case "EHLO":
		sess.resetTransaction()
		sess.helloSeen = true
		lines := []string{sess.srv.cfg.EHLOName}
		lines = append(lines, "PIPELINING", fmt.Sprintf("SIZE %d", sess.srv.cfg.MaxMessageBytes), "8BITMIME")
		if sess.srv.cfg.TLS != nil && !sess.tlsActive {
			lines = append(lines, "STARTTLS")
		}
		if sess.srv.cfg.Auth != nil && (!sess.srv.cfg.RequireTLSForAuth || sess.tlsActive) {
			lines = append(lines, "AUTH PLAIN LOGIN")
		}
		return false, sess.reply(250, lines...)
	case "STARTTLS":
		return false, sess.startTLS()
	case "AUTH":
		return false, sess.handleAuth(arg)
	case "MAIL":
		return false, sess.mail(arg)
	case "RCPT":
		return false, sess.rcpt(arg)
	case "DATA":
		return false, sess.data()
	case "RSET":
		sess.resetTransaction()
		return false, sess.reply(250, "OK")
	case "NOOP":
		return false, sess.reply(250, "OK")
	case "VRFY":
		return false, sess.reply(252, "Cannot VRFY user, but will accept message")
	case "QUIT":
		sess.reply(221, sess.srv.cfg.EHLOName+" closing connection")
		return true, nil
	case "":
		return false, sess.reply(500, "Empty command")
	default:
		return false, sess.reply(502, "Command not implemented")
	}
}

func (sess *session) startTLS() error {
	if sess.srv.cfg.TLS == nil {
		return sess.reply(502, "STARTTLS not offered")
	}
	if sess.tlsActive {
		return sess.reply(503, "TLS already active")
	}
	if err := sess.reply(220, "Ready to start TLS"); err != nil {
		return err
	}
	tlsConn := tls.Server(sess.conn, sess.srv.cfg.TLS)
	if err := tlsConn.SetDeadline(time.Now().Add(sess.srv.cfg.ReadTimeout)); err != nil {
		return err
	}
	if err := tlsConn.Handshake(); err != nil {
		// RFC 3207: if the handshake fails the connection state is
		// undefined; close it.
		return fmt.Errorf("smtp: TLS handshake: %w", err)
	}
	tlsConn.SetDeadline(time.Time{})
	sess.srv.lc.Swap(sess.tracked, tlsConn)
	sess.conn = tlsConn
	sess.rd = newReader(tlsConn)
	sess.tlsActive = true
	// RFC 3207 §4.2: the server must discard client state from before
	// the handshake.
	sess.helloSeen = false
	sess.authenticated = false
	sess.username = ""
	sess.resetTransaction()
	return nil
}

func (sess *session) mail(arg string) error {
	if !sess.helloSeen {
		return sess.reply(503, "Send HELO/EHLO first")
	}
	if sess.srv.cfg.RequireAuthForMail && !sess.authenticated {
		// RFC 4954 §6: submission servers reject unauthenticated MAIL.
		return sess.reply(530, "Authentication required")
	}
	if sess.from != "" {
		return sess.reply(503, "Nested MAIL command")
	}
	path, err := parsePath(arg, "FROM")
	if err != nil {
		return sess.reply(501, "Syntax: MAIL FROM:<address>")
	}
	sess.from = path
	return sess.reply(250, "OK")
}

func (sess *session) rcpt(arg string) error {
	if sess.from == "" {
		return sess.reply(503, "Need MAIL before RCPT")
	}
	path, err := parsePath(arg, "TO")
	if err != nil {
		return sess.reply(501, "Syntax: RCPT TO:<address>")
	}
	if path == "" {
		return sess.reply(501, "Empty recipient")
	}
	const maxRecipients = 100
	if len(sess.to) >= maxRecipients {
		return sess.reply(452, "Too many recipients")
	}
	sess.to = append(sess.to, path)
	return sess.reply(250, "OK")
}

func (sess *session) data() error {
	if sess.from == "" || len(sess.to) == 0 {
		return sess.reply(503, "Need MAIL and RCPT before DATA")
	}
	if err := sess.reply(354, "Start mail input; end with <CRLF>.<CRLF>"); err != nil {
		return err
	}
	dr := newDotReader(sess.rd, sess.srv.cfg.MaxMessageBytes)
	body, err := io.ReadAll(dr)
	if err != nil {
		return err
	}
	if dr.tooLong {
		sess.resetTransaction()
		return sess.reply(552, "Message exceeds maximum size")
	}
	if cb := sess.srv.cfg.OnMessage; cb != nil {
		cb(Envelope{From: sess.from, To: sess.to, Data: body})
	}
	sess.resetTransaction()
	return sess.reply(250, "OK: message accepted")
}

func (sess *session) resetTransaction() {
	sess.from = ""
	sess.to = nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Debug(strings.TrimSpace(fmt.Sprintf(format, args...)))
	}
}
