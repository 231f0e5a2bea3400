package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"mxmap/internal/overload"
)

// Admission-control defaults.
const (
	// DefaultMaxConns bounds concurrent connections per server.
	DefaultMaxConns = 256
	// DefaultMaxInflight bounds requests executing at once; arrivals
	// beyond it queue up to DefaultQueueDepth for DefaultQueueWait
	// before being shed with a 429.
	DefaultMaxInflight = 64
	// DefaultQueueDepth bounds requests waiting for an inflight slot.
	DefaultQueueDepth = 128
	// DefaultQueueWait bounds how long a queued request waits.
	DefaultQueueWait = 100 * time.Millisecond
	// DefaultRequestTimeout bounds one request's execution.
	DefaultRequestTimeout = 5 * time.Second
	// DefaultReadTimeout is the slowloris deadline for reading a
	// request off an idle connection.
	DefaultReadTimeout = 30 * time.Second
	// DefaultWriteTimeout bounds writing one response.
	DefaultWriteTimeout = 10 * time.Second
	// DefaultMaxRequests is the per-connection request budget.
	DefaultMaxRequests = 10000
	// DefaultRetryAfterSecs is advertised on 429 responses.
	DefaultRetryAfterSecs = 1
)

// Handler answers one admitted request. The Server owns the sockets,
// admission control, deadlines, and drain bookkeeping; the handler owns
// routing. The HA balancer plugs in here to reuse the whole overload
// kit in front of a replica fleet.
type Handler func(ctx context.Context, req *Request) Response

// Config parameterizes a Server. One of Service or Handler is required;
// every other zero value takes the default above, and negative values
// disable the corresponding limit.
type Config struct {
	// Service answers the queries through the built-in routes. Ignored
	// when Handler is set (a Handler may still consult a Service of its
	// own).
	Service *Service
	// Handler, when set, replaces the built-in Service routing: every
	// admitted request is dispatched to it instead.
	Handler Handler
	// MaxConns caps concurrent connections; beyond it new connections
	// are answered 429 and closed before any request is read. Negative
	// disables the cap.
	MaxConns int
	// MaxInflight caps requests executing concurrently.
	MaxInflight int
	// QueueDepth caps requests waiting for an inflight slot; negative
	// sheds immediately when MaxInflight is reached.
	QueueDepth int
	// QueueWait bounds a queued request's wait before it is shed.
	QueueWait time.Duration
	// RequestTimeout bounds one request's execution; past it the
	// client gets a 503 while the abandoned handler finishes in the
	// background. Negative runs handlers inline with no deadline.
	RequestTimeout time.Duration
	// ReadTimeout is the slowloris deadline: a connection that does
	// not deliver a full request within it is closed.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write.
	WriteTimeout time.Duration
	// MaxRequests is the per-connection request budget; the final
	// response carries Connection: close.
	MaxRequests int
	// RetryAfterSecs is the Retry-After value advertised when
	// shedding (default DefaultRetryAfterSecs).
	RetryAfterSecs int
	// AllowSwap enables the POST /v1/swap endpoint. Off by default:
	// swapping loads files server-side and belongs behind an
	// operator-only listener.
	AllowSwap bool
	// Gate, when set, runs at the top of every handler with the
	// request path. Tests and benchmarks use it to hold requests at a
	// deterministic point; nil in production.
	Gate func(path string)
	// Clock, when set, turns on per-endpoint latency histograms: it is
	// read exactly twice per request (begin and end) and the measured
	// duration lands in the endpoint's log-scale buckets, exposed via
	// LatencySnapshot and /v1/stats. Nil disables observation, keeping
	// whole-struct counter assertions free of wall-clock buckets. A
	// stepped test clock makes every bucket count byte-reproducible.
	Clock func() time.Time
	// Logger receives connection-level debug records; nil disables.
	Logger *slog.Logger
}

// A Server accepts query connections on one or more listeners.
type Server struct {
	cfg      Config
	lc       *overload.Lifecycle
	inflight chan struct{} // request execution slots
	stats    serverCounters
	lat      [NumEndpoints]LatencyHist

	mu       sync.Mutex
	queueLen int
}

// NewServer validates cfg and creates a server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Service == nil && cfg.Handler == nil {
		return nil, errors.New("serve: config requires a Service or a Handler")
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueWait == 0 {
		cfg.QueueWait = DefaultQueueWait
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.MaxRequests == 0 {
		cfg.MaxRequests = DefaultMaxRequests
	}
	if cfg.RetryAfterSecs == 0 {
		cfg.RetryAfterSecs = DefaultRetryAfterSecs
	}
	s := &Server{cfg: cfg, lc: overload.NewLifecycle(cfg.MaxConns, cfg.ReadTimeout)}
	s.lc.Reject = func(conn net.Conn) {
		var buf bytes.Buffer
		r := ErrorResponse(429, "server connection limit reached")
		r.RetryAfter, r.Close = true, true
		appendResponse(&buf, r, cfg.RetryAfterSecs)
		conn.Write(buf.Bytes())
	}
	if cfg.Service != nil {
		s.lc.OnDrain = cfg.Service.BeginDrain
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	return s, nil
}

// Stats returns a snapshot of the server's serving counters.
func (s *Server) Stats() ServerStats { return s.stats.snapshot(&s.lc.Counters) }

// Serve accepts connections on ln until the server is closed. It
// blocks; run it in a goroutine. Transient accept errors are retried
// with jittered backoff, and connections beyond MaxConns are shed with
// a 429 so a connection storm cannot spawn unbounded goroutines.
func (s *Server) Serve(ln net.Listener) error { return s.lc.Serve(ln, s.serveConn) }

func (s *Server) serveConn(nc net.Conn) {
	c, ok := s.lc.Track(nc)
	if !ok {
		// Raced with shutdown between accept and registration.
		return
	}
	defer s.lc.Untrack(c)
	br := bufio.NewReaderSize(nc, 4096)
	served := 0
	for {
		if !s.lc.BeginRead(c) {
			return
		}
		req, err := readRequest(br)
		if err != nil {
			switch {
			case err == io.EOF:
				// Clean close between requests.
			case s.lc.Stopping():
				// Woken by Shutdown's immediate read deadline.
			case isTimeout(err):
				s.stats.readTimeouts.Add(1)
			default:
				// Malformed request: account it and its 400 so the
				// books still balance to zero lost.
				s.stats.requests.Add(1)
				s.stats.badRequests.Add(1)
				s.writeResponse(nc, ErrorResponse(400, "malformed request"))
				s.stats.responses.Add(1)
			}
			return
		}
		s.stats.requests.Add(1)
		s.lc.SetBusy(c, true)
		var begin time.Time
		if s.cfg.Clock != nil {
			begin = s.cfg.Clock()
		}
		resp := s.process(req)
		if s.cfg.Clock != nil {
			s.lat[EndpointIndex(req.Path)].Observe(s.cfg.Clock().Sub(begin))
		}
		served++
		closing := req.Close || s.lc.Stopping()
		if !closing && s.cfg.MaxRequests > 0 && served >= s.cfg.MaxRequests {
			s.stats.budgetCloses.Add(1)
			closing = true
		}
		resp.Close = resp.Close || closing
		werr := s.writeResponse(nc, resp)
		s.stats.responses.Add(1)
		s.lc.SetBusy(c, false)
		if werr != nil || resp.Close {
			return
		}
	}
}

// process applies request-level admission control and executes the
// handler under the request deadline.
func (s *Server) process(req *Request) Response {
	if !s.acquireSlot() {
		s.stats.shed.Add(1)
		r := ErrorResponse(429, "overloaded, retry later")
		r.RetryAfter = true
		return r
	}
	if s.cfg.RequestTimeout < 0 {
		defer s.releaseSlot()
		return s.handle(context.Background(), req)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()
	done := make(chan Response, 1)
	go func() {
		defer s.releaseSlot()
		done <- s.handle(ctx, req)
	}()
	select {
	case resp := <-done:
		return resp
	case <-ctx.Done():
		// The abandoned handler keeps its inflight slot until it
		// finishes; the client gets its answer now.
		s.stats.timeouts.Add(1)
		return ErrorResponse(503, "request deadline exceeded")
	}
}

// acquireSlot takes an inflight slot, queueing within the configured
// depth and wait. False means shed.
func (s *Server) acquireSlot() bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
	}
	if s.cfg.QueueDepth < 0 {
		return false
	}
	s.mu.Lock()
	// Queue depth is tracked under mu so the shed decision is exact.
	if s.queueLen >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return false
	}
	s.queueLen++
	s.mu.Unlock()
	s.stats.queued.Add(1)
	defer func() {
		s.mu.Lock()
		s.queueLen--
		s.mu.Unlock()
	}()
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

func (s *Server) releaseSlot() {
	if s.inflight != nil {
		<-s.inflight
	}
}

func (s *Server) writeResponse(nc net.Conn, r Response) error {
	var buf bytes.Buffer
	appendResponse(&buf, r, s.cfg.RetryAfterSecs)
	if s.cfg.WriteTimeout > 0 {
		nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	_, err := nc.Write(buf.Bytes())
	return err
}

// Shutdown gracefully drains the server: it stops accepting, lets every
// request that has been read finish and be answered, wakes idle
// connections, and then closes. It returns nil when the drain
// completed, or ctx.Err() after falling back to a hard Close at the
// context deadline. The paired Service moves to draining so probes
// steer traffic away first.
func (s *Server) Shutdown(ctx context.Context) error { return s.lc.Shutdown(ctx) }

// Close stops all listeners and connections immediately and waits for
// their goroutines to exit. Shutdown is the graceful alternative.
func (s *Server) Close() error { return s.lc.Close() }

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
