package overload

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxConsecutiveErrs is how many back-to-back accept or read errors a
// serve loop absorbs with backoff before treating its socket as dead.
const MaxConsecutiveErrs = 16

// ConnCounters are a Lifecycle's live counters. Each server's stats
// snapshot reads them into its own public stats struct.
type ConnCounters struct {
	// Accepted counts connections admitted below the cap; Rejected
	// counts connections shed at it.
	Accepted, Rejected atomic.Uint64
	// AcceptRetries counts transient Accept errors survived by backoff.
	AcceptRetries atomic.Uint64
	// Drains counts graceful Shutdowns that completed within their
	// deadline; DrainTimeouts counts those that fell back to Close.
	Drains, DrainTimeouts atomic.Uint64
}

// A Conn is one connection registered with a Lifecycle by Track.
type Conn struct {
	nc net.Conn
	// busy is guarded by Lifecycle.mu: Shutdown wakes only idle
	// connections, so one mid-request finishes its answer.
	busy bool
}

// A Lifecycle owns the connection machinery a server shares with every
// other: the accept loop with transient-error retry, the admission cap,
// the registry of live listeners, packet conns and connections, and the
// graceful drain. The server keeps only its protocol loop, which runs
// per admitted connection and brackets each read with BeginRead and
// each request with SetBusy.
type Lifecycle struct {
	// Counters are the lifecycle's live counters.
	Counters ConnCounters
	// Reject, when set, answers a connection shed at the admission cap
	// before it is closed; it runs under a one-second write deadline.
	// Nil closes shed connections silently.
	Reject func(net.Conn)
	// OnDrain, when set, runs once as the first Shutdown begins, after
	// new connections are refused and before listeners close.
	OnDrain func()

	readTimeout time.Duration
	sem         chan struct{} // admission slots; nil means unlimited

	mu       sync.Mutex
	lns      []net.Listener
	pcs      []net.PacketConn
	conns    map[*Conn]struct{}
	draining bool
	closed   bool
	wg       sync.WaitGroup
}

// NewLifecycle returns a lifecycle that admits at most maxConns
// connections at once (maxConns <= 0: unlimited) and gives each read
// armed by BeginRead readTimeout to complete (readTimeout <= 0: no
// deadline).
func NewLifecycle(maxConns int, readTimeout time.Duration) *Lifecycle {
	l := &Lifecycle{readTimeout: readTimeout, conns: make(map[*Conn]struct{})}
	if maxConns > 0 {
		l.sem = make(chan struct{}, maxConns)
	}
	return l
}

// register records a listener or packet conn and joins the drain wait
// group; it refuses once the lifecycle is stopping.
func (l *Lifecycle) register(ln net.Listener, pc net.PacketConn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.draining {
		return false
	}
	if ln != nil {
		l.lns = append(l.lns, ln)
	}
	if pc != nil {
		l.pcs = append(l.pcs, pc)
	}
	l.wg.Add(1)
	return true
}

// Serve accepts connections on ln until the lifecycle stops, running
// handle on its own goroutine for each admitted one and closing the
// connection when handle returns. Connections beyond the cap are
// answered by Reject and closed, and transient accept errors are retried
// with jittered backoff. It returns nil once stopped, net.ErrClosed when
// the lifecycle was already stopping, and otherwise the error that
// killed the loop.
func (l *Lifecycle) Serve(ln net.Listener, handle func(net.Conn)) error {
	if !l.register(ln, nil) {
		return net.ErrClosed
	}
	defer l.wg.Done()
	consec := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			consec++
			if done, err := l.LoopErr(err, consec); done {
				return err
			}
			l.Counters.AcceptRetries.Add(1)
			continue
		}
		consec = 0
		if !l.admit() {
			l.Counters.Rejected.Add(1)
			if l.Reject != nil {
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				l.Reject(conn)
			}
			conn.Close()
			continue
		}
		l.Counters.Accepted.Add(1)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer l.release()
			defer conn.Close()
			handle(conn)
		}()
	}
}

// ServePacket registers pc and runs serve(pc), which reads pc until it
// fails or the lifecycle stops. Shutdown wakes serve's readers with an
// immediate read deadline and closes pc once the drain completes; Close
// closes it at once. It returns net.ErrClosed when the lifecycle was
// already stopping, and otherwise what serve returns.
func (l *Lifecycle) ServePacket(pc net.PacketConn, serve func(net.PacketConn) error) error {
	if !l.register(nil, pc) {
		return net.ErrClosed
	}
	defer l.wg.Done()
	return serve(pc)
}

// LoopErr decides the consec-th back-to-back error err of a serve loop
// (consec >= 1). It returns true with the error to end the loop with:
// nil when the lifecycle is stopping, since err is then the wake-up, and
// err itself when it is not transient or the run exceeds
// MaxConsecutiveErrs. Otherwise it sleeps the backoff and returns
// false.
func (l *Lifecycle) LoopErr(err error, consec int) (bool, error) {
	if l.Stopping() {
		return true, nil
	}
	if !TransientNetErr(err) || consec > MaxConsecutiveErrs {
		return true, err
	}
	Backoff(consec)
	return false, nil
}

// admit takes an admission slot, or reports the cap is hit.
func (l *Lifecycle) admit() bool {
	if l.sem == nil {
		return true
	}
	select {
	case l.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (l *Lifecycle) release() {
	if l.sem != nil {
		<-l.sem
	}
}

// Stopping reports whether the lifecycle is draining or closed.
func (l *Lifecycle) Stopping() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed || l.draining
}

// Track registers a serving connection so Shutdown can wake it and
// Close can close it. It refuses once the lifecycle is stopping: the
// connection raced the drain between accept and registration.
func (l *Lifecycle) Track(nc net.Conn) (*Conn, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.draining {
		return nil, false
	}
	c := &Conn{nc: nc}
	l.conns[c] = struct{}{}
	return c, true
}

// Untrack unregisters a connection Track registered.
func (l *Lifecycle) Untrack(c *Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// SetBusy marks a connection as executing a request (true) or waiting
// for the next one (false). Shutdown wakes only connections not busy.
func (l *Lifecycle) SetBusy(c *Conn, busy bool) {
	l.mu.Lock()
	c.busy = busy
	l.mu.Unlock()
}

// Swap replaces the net.Conn behind c, as a STARTTLS upgrade does, so
// Shutdown and Close always act on the live connection.
func (l *Lifecycle) Swap(c *Conn, nc net.Conn) {
	l.mu.Lock()
	c.nc = nc
	l.mu.Unlock()
}

// BeginRead arms the read deadline for the next request, refusing once a
// drain has begun. Holding the lifecycle lock orders it against
// Shutdown's wake-up: either the connection sees the drain and stops, or
// Shutdown sees it registered and slams its deadline after this one, so
// a connection cannot park itself in a fresh read after the drain began.
func (l *Lifecycle) BeginRead(c *Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.draining {
		return false
	}
	var deadline time.Time
	if l.readTimeout > 0 {
		deadline = time.Now().Add(l.readTimeout)
	}
	return c.nc.SetReadDeadline(deadline) == nil
}

// Shutdown drains gracefully: it refuses new connections, wakes packet
// readers and idle connections with an immediate read deadline, closes
// the listeners, and waits for every serve loop and connection to
// finish, then closes the packet conns. It returns nil when the drain
// completed, or ctx.Err() after falling back to Close at the context
// deadline.
func (l *Lifecycle) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	first := !l.draining
	l.draining = true
	lns := append([]net.Listener(nil), l.lns...)
	now := time.Now()
	for _, pc := range l.pcs {
		pc.SetReadDeadline(now)
	}
	for c := range l.conns {
		if !c.busy {
			c.nc.SetReadDeadline(now)
		}
	}
	l.mu.Unlock()
	if first && l.OnDrain != nil {
		l.OnDrain()
	}
	for _, ln := range lns {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if first {
			l.Counters.Drains.Add(1)
		}
		l.mu.Lock()
		l.closed = true
		pcs := l.pcs
		l.mu.Unlock()
		for _, pc := range pcs {
			pc.Close()
		}
		return nil
	case <-ctx.Done():
		if first {
			l.Counters.DrainTimeouts.Add(1)
		}
		l.Close()
		return ctx.Err()
	}
}

// Close stops every listener, packet conn and connection at once and
// waits for their goroutines to exit. Shutdown is the graceful
// alternative.
func (l *Lifecycle) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	lns, pcs := l.lns, l.pcs
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c.nc)
	}
	l.mu.Unlock()
	for _, pc := range pcs {
		pc.Close()
	}
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
	return nil
}
