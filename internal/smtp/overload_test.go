package smtp

// Overload tests for the SMTP server: connection admission control,
// per-session command budgets, accept-loop resilience and graceful
// drain. The drain tests run in the race tier (go test -race -run Chaos).

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mxmap/internal/netsim"
)

// overloadServer starts a server on the fabric and returns it with the
// Serve error channel so tests can assert a clean exit.
func overloadServer(t *testing.T, n *netsim.Network, addr string, cfg Config) (*Server, chan error) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen(netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, errc
}

func dialSMTP(t *testing.T, n *netsim.Network, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

func readLine(t *testing.T, rd *bufio.Reader) string {
	t.Helper()
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply: %v (got %q)", err, line)
	}
	return strings.TrimRight(line, "\r\n")
}

func TestServerAdmissionCap(t *testing.T) {
	n := netsim.New()
	srv, _ := overloadServer(t, n, "10.8.0.1:25", Config{Hostname: "mx.cap.test", MaxConns: 2})
	// Two sessions take both slots (the banner proves each is live).
	_, rd1 := dialSMTP(t, n, "10.8.0.1:25")
	readLine(t, rd1)
	c2, rd2 := dialSMTP(t, n, "10.8.0.1:25")
	readLine(t, rd2)
	// The third is turned away at the door with a 421, not a hang.
	_, rd3 := dialSMTP(t, n, "10.8.0.1:25")
	if got := readLine(t, rd3); !strings.HasPrefix(got, "421") {
		t.Fatalf("over-cap greeting = %q, want 421", got)
	}
	if _, err := rd3.ReadString('\n'); err == nil {
		t.Fatal("rejected connection stayed open")
	}
	st := srv.Stats()
	if st.Accepted != 2 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want Accepted=2 Rejected=1", st)
	}
	// Ending a session frees its slot for the next client.
	c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, rd := dialSMTP(t, n, "10.8.0.1:25")
		if line, err := rd.ReadString('\n'); err == nil && strings.HasPrefix(line, "220") {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("admission slot never freed after session close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerCommandBudget(t *testing.T) {
	// Over-long lines spend the budget too, though they are not
	// dispatched commands: otherwise each one would re-arm the read
	// deadline and pin the session forever.
	for i, tc := range []struct {
		line, reply  string
		wantCommands uint64
	}{
		{"NOOP\r\n", "250", 2},
		{strings.Repeat("x", maxLineLen+10) + "\r\n", "500", 0},
	} {
		n := netsim.New()
		addr := fmt.Sprintf("10.8.0.%d:25", 20+i)
		srv, _ := overloadServer(t, n, addr, Config{Hostname: "mx.budget.test", MaxCommands: 2})
		conn, rd := dialSMTP(t, n, addr)
		if got := readLine(t, rd); !strings.HasPrefix(got, "220") {
			t.Fatalf("banner = %q", got)
		}
		for i := 0; i < 2; i++ {
			if _, err := conn.Write([]byte(tc.line)); err != nil {
				t.Fatal(err)
			}
			if got := readLine(t, rd); !strings.HasPrefix(got, tc.reply) {
				t.Fatalf("line %d reply = %q, want %s", i, got, tc.reply)
			}
		}
		// The third line blows the budget: 421 and the connection closes.
		if _, err := conn.Write([]byte(tc.line)); err != nil {
			t.Fatal(err)
		}
		if got := readLine(t, rd); !strings.HasPrefix(got, "421") {
			t.Fatalf("over-budget reply = %q, want 421", got)
		}
		if _, err := rd.ReadString('\n'); err == nil {
			t.Fatal("connection survived budget exhaustion")
		}
		st := srv.Stats()
		if st.BudgetCloses != 1 || st.Commands != tc.wantCommands {
			t.Errorf("stats = %+v, want BudgetCloses=1 Commands=%d", st, tc.wantCommands)
		}
	}
}

// flakyListener fails the first `failures` accepts with a transient
// errno before delegating, reproducing a listener hiccup under load.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.failures > 0 {
		l.failures--
		l.mu.Unlock()
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.ECONNABORTED}
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestServerAcceptRetry is the regression test for the accept-loop
// fragility: one transient Accept error used to kill Serve outright.
func TestServerAcceptRetry(t *testing.T) {
	n := netsim.New()
	srv, err := NewServer(Config{Hostname: "mx.retry.test"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen(netip.MustParseAddrPort("10.8.0.3:25"))
	if err != nil {
		t.Fatal(err)
	}
	const failures = 3
	fln := &flakyListener{Listener: ln, failures: failures}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(fln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	_, rd := dialSMTP(t, n, "10.8.0.3:25")
	if got := readLine(t, rd); !strings.HasPrefix(got, "220") {
		t.Fatalf("banner after accept errors = %q, want 220", got)
	}
	if got := srv.Stats().AcceptRetries; got != failures {
		t.Errorf("AcceptRetries = %d, want %d", got, failures)
	}
}

// TestChaosSMTPDrainIdleSessions gracefully shuts down with an idle
// session parked in read: it must be woken, told 421, and released
// before the drain deadline.
func TestChaosSMTPDrainIdleSessions(t *testing.T) {
	n := netsim.New()
	srv, errc := overloadServer(t, n, "10.8.0.4:25", Config{Hostname: "mx.drain.test"})
	_, rd := dialSMTP(t, n, "10.8.0.4:25")
	if got := readLine(t, rd); !strings.HasPrefix(got, "220") {
		t.Fatalf("banner = %q", got)
	}
	// The session is now idle, blocked waiting for our next command.
	goodbye := make(chan string, 1)
	go func() {
		line, _ := rd.ReadString('\n')
		goodbye <- strings.TrimRight(line, "\r\n")
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case got := <-goodbye:
		if !strings.HasPrefix(got, "421") {
			t.Errorf("drain farewell = %q, want 421", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle session never received the drain farewell")
	}
	st := srv.Stats()
	if st.Drains != 1 || st.DrainTimeouts != 0 {
		t.Errorf("Drains=%d DrainTimeouts=%d, want 1/0", st.Drains, st.DrainTimeouts)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve exited %v after drain, want nil", err)
	}
	errc <- nil // keep the cleanup's receive satisfied
}

// TestChaosSMTPDrainCompletesBusySession starts a drain while a session
// is mid-DATA: the in-flight transaction must complete (the client gets
// its 250) before the session is told 421.
func TestChaosSMTPDrainCompletesBusySession(t *testing.T) {
	n := netsim.New()
	entered := make(chan struct{})
	release := make(chan struct{})
	var envelope Envelope
	srv, _ := overloadServer(t, n, "10.8.0.5:25", Config{
		Hostname: "mx.busy.test",
		OnMessage: func(e Envelope) {
			envelope = e
			close(entered)
			<-release
		},
	})
	conn, rd := dialSMTP(t, n, "10.8.0.5:25")

	// Replies and the final read error share one channel so the error
	// can never overtake a reply still queued ahead of it.
	type reply struct {
		line string
		err  error
	}
	replies := make(chan reply, 8)
	go func() {
		for {
			line, err := rd.ReadString('\n')
			replies <- reply{strings.TrimRight(line, "\r\n"), err}
			if err != nil {
				return
			}
		}
	}()
	expect := func(prefix string) {
		t.Helper()
		select {
		case got := <-replies:
			if got.err != nil {
				t.Fatalf("connection died waiting for %s: %v", prefix, got.err)
			}
			if !strings.HasPrefix(got.line, prefix) {
				t.Fatalf("reply = %q, want %s", got.line, prefix)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply, want %s", prefix)
		}
	}

	expect("220")
	conn.Write([]byte("HELO client.test\r\n"))
	expect("250")
	conn.Write([]byte("MAIL FROM:<a@client.test>\r\n"))
	expect("250")
	conn.Write([]byte("RCPT TO:<b@mx.busy.test>\r\n"))
	expect("250")
	conn.Write([]byte("DATA\r\n"))
	expect("354")
	conn.Write([]byte("Subject: drain\r\n\r\nbody\r\n.\r\n"))
	<-entered // the session is now busy inside its DATA command

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	// Give Shutdown time to begin while the session is still busy, then
	// let the transaction finish.
	time.Sleep(20 * time.Millisecond)
	close(release)

	expect("250") // the in-flight message is accepted, not cut off
	expect("421") // then the drain says goodbye
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if envelope.From != "a@client.test" || len(envelope.To) != 1 {
		t.Errorf("envelope = %+v, want the completed transaction", envelope)
	}
	st := srv.Stats()
	if st.Drains != 1 {
		t.Errorf("Drains = %d, want 1", st.Drains)
	}
}
