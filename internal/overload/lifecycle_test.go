package overload

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pipeListener hands out the server ends of net.Pipe pairs, so the
// lifecycle runs against real deadline-capable conns with no sockets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{} }

// dial connects a client to the listener once Serve accepts it.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	l.conns <- server
	return client
}

// errListener fails every Accept with err, counting the calls.
type errListener struct {
	err   error
	calls int
}

func (l *errListener) Accept() (net.Conn, error) { l.calls++; return nil, l.err }
func (l *errListener) Close() error              { return nil }
func (l *errListener) Addr() net.Addr            { return &net.TCPAddr{} }

// serveBG runs Serve in the background and returns its result channel.
func serveBG(l *Lifecycle, ln net.Listener, handle func(net.Conn)) chan error {
	errc := make(chan error, 1)
	go func() { errc <- l.Serve(ln, handle) }()
	return errc
}

// TestLifecycleAcceptRetryLimit pins the accept loop's death: it absorbs
// MaxConsecutiveErrs transient errors with backoff and dies on the next,
// and dies at once on a non-transient one.
func TestLifecycleAcceptRetryLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps the real backoff curve")
	}
	l := NewLifecycle(0, 0)
	ln := &errListener{err: timeoutErr{}}
	if err := l.Serve(ln, nil); !errors.Is(err, timeoutErr{}) {
		t.Fatalf("Serve = %v, want the timeout that exhausted the retries", err)
	}
	if ln.calls != MaxConsecutiveErrs+1 {
		t.Errorf("Accept called %d times, want %d", ln.calls, MaxConsecutiveErrs+1)
	}
	if got := l.Counters.AcceptRetries.Load(); got != MaxConsecutiveErrs {
		t.Errorf("AcceptRetries = %d, want %d", got, MaxConsecutiveErrs)
	}

	boom := errors.New("boom")
	l = NewLifecycle(0, 0)
	ln = &errListener{err: boom}
	if err := l.Serve(ln, nil); !errors.Is(err, boom) {
		t.Fatalf("Serve = %v, want %v", err, boom)
	}
	if ln.calls != 1 || l.Counters.AcceptRetries.Load() != 0 {
		t.Errorf("non-transient error: %d accepts, %d retries, want 1 and 0",
			ln.calls, l.Counters.AcceptRetries.Load())
	}
}

// TestLifecycleServeAfterShutdown checks that a stopped lifecycle
// refuses new serve loops with net.ErrClosed, and that a second
// Shutdown and a Close are no-ops.
func TestLifecycleServeAfterShutdown(t *testing.T) {
	l := NewLifecycle(0, 0)
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := l.Serve(newPipeListener(), nil); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve after Shutdown = %v, want net.ErrClosed", err)
	}
	if err := l.ServePacket(nil, nil); !errors.Is(err, net.ErrClosed) {
		t.Errorf("ServePacket after Shutdown = %v, want net.ErrClosed", err)
	}
	if err := l.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown = %v", err)
	}
	l.Close()
	if got := l.Counters.Drains.Load(); got != 1 {
		t.Errorf("Drains = %d, want 1", got)
	}
}

// TestLifecycleRejectAtCap fills a one-connection cap and checks the
// next connection gets the Reject answer and is closed, while the
// admitted one keeps its slot.
func TestLifecycleRejectAtCap(t *testing.T) {
	l := NewLifecycle(1, 0)
	l.Reject = func(c net.Conn) { io.WriteString(c, "busy\n") }
	ln := newPipeListener()
	hold := make(chan struct{})
	errc := serveBG(l, ln, func(net.Conn) { <-hold })

	ln.dial(t)
	shed := ln.dial(t)
	got, err := io.ReadAll(shed)
	if err != nil || string(got) != "busy\n" {
		t.Fatalf("shed conn read %q, %v; want the Reject answer then EOF", got, err)
	}
	if a, r := l.Counters.Accepted.Load(), l.Counters.Rejected.Load(); a != 1 || r != 1 {
		t.Errorf("accepted %d rejected %d, want 1 and 1", a, r)
	}
	close(hold)
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve = %v", err)
	}
}

// TestLifecycleShutdownWakesIdle drains with one idle and one busy
// connection: the idle one is woken and ends at once, the busy one
// finishes its request and answers it, and only then does the drain
// complete.
func TestLifecycleShutdownWakesIdle(t *testing.T) {
	l := NewLifecycle(0, time.Minute)
	ln := newPipeListener()
	busy, release := make(chan struct{}), make(chan struct{})
	idleDone := make(chan struct{})
	// The handler echoes each one-byte request: "p" answers at once and
	// marks the connection as the idle one, "q" holds the request busy
	// until release.
	errc := serveBG(l, ln, func(nc net.Conn) {
		c, ok := l.Track(nc)
		if !ok {
			return
		}
		defer l.Untrack(c)
		idle := false
		defer func() {
			if idle {
				close(idleDone)
			}
		}()
		buf := make([]byte, 1)
		for l.BeginRead(c) {
			if _, err := nc.Read(buf); err != nil {
				return
			}
			l.SetBusy(c, true)
			switch buf[0] {
			case 'p':
				idle = true
			case 'q':
				close(busy)
				<-release
			}
			nc.Write(buf)
			l.SetBusy(c, false)
		}
	})

	// Once its ping is answered the idle connection is tracked and
	// heads back into a read it never gets input for.
	idle := ln.dial(t)
	echo := make([]byte, 1)
	if _, err := idle.Write([]byte("p")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(idle, echo); err != nil {
		t.Fatal(err)
	}
	worker := ln.dial(t)
	if _, err := worker.Write([]byte("q")); err != nil {
		t.Fatal(err)
	}
	<-busy

	shut := make(chan error, 1)
	go func() { shut <- l.Shutdown(context.Background()) }()
	select {
	case <-idleDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not wake the idle connection")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v while a request was in flight", err)
	default:
	}
	close(release)
	if _, err := io.ReadFull(worker, echo); err != nil || echo[0] != 'q' {
		t.Fatalf("in-flight answer = %q, %v", echo, err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve = %v", err)
	}
	if d, dt := l.Counters.Drains.Load(), l.Counters.DrainTimeouts.Load(); d != 1 || dt != 0 {
		t.Errorf("drains %d timeouts %d, want 1 and 0", d, dt)
	}
}

// TestLifecycleDrainTimeout holds a busy connection past the drain
// deadline: Shutdown must fall back to Close, count one drain timeout,
// and hard-close the connection.
func TestLifecycleDrainTimeout(t *testing.T) {
	l := NewLifecycle(0, time.Minute)
	ln := newPipeListener()
	busy := make(chan struct{})
	readErr := make(chan error, 1)
	errc := serveBG(l, ln, func(nc net.Conn) {
		c, ok := l.Track(nc)
		if !ok {
			return
		}
		defer l.Untrack(c)
		l.SetBusy(c, true)
		close(busy)
		// A stuck request: only a hard close ends this read.
		_, err := nc.Read(make([]byte, 1))
		readErr <- err
	})
	client := ln.dial(t)
	<-busy

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if err := <-readErr; !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("stuck read ended with %v, want the hard close", err)
	}
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("client read after hard close = %v, want EOF", err)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve = %v", err)
	}
	if d, dt := l.Counters.Drains.Load(), l.Counters.DrainTimeouts.Load(); d != 0 || dt != 1 {
		t.Errorf("drains %d timeouts %d, want 0 and 1", d, dt)
	}
}
