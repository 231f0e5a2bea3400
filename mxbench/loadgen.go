package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// dialer makes every TCP connection the benchmark opens — the
// balancer's upstream dials and the load generator's — with
// SO_REUSEADDR. The balancer dials afresh for every forward and closes
// first, so a serving run leaves tens of thousands of client-side
// TIME_WAIT sockets on 127.0.0.1. Without the option each of them keeps
// a listener from binding its port for a minute, which breaks programs
// that pick a free port and then bind it, this repository's tests among
// them. The option changes nothing on the request path.
var dialer = &net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	}); err != nil {
		return err
	}
	return serr
}}

// client is one keep-alive HTTP/1.1 connection to a serve.Server. It
// redials when the server closes the connection (the per-connection
// request budget) and drops the connection on any transport error.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request and returns the status and body.
func (c *client) do(method, target string) (int, []byte, error) {
	if c.conn == nil {
		conn, err := dialer.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 16<<10)
	}
	c.buf = append(c.buf[:0], method...)
	c.buf = append(c.buf, ' ')
	c.buf = append(c.buf, target...)
	c.buf = append(c.buf, " HTTP/1.1\r\nHost: mxbench\r\n\r\n"...)
	if _, err := c.conn.Write(c.buf); err != nil {
		c.close()
		return 0, nil, err
	}
	status, body, closing, err := readResponse(c.br)
	if err != nil || closing {
		c.close()
	}
	return status, body, err
}

func readResponse(br *bufio.Reader) (status int, body []byte, closing bool, err error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, nil, false, err
	}
	f := strings.Fields(line)
	if len(f) < 2 {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(f[1]); err != nil {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return 0, nil, false, err
		}
		h = strings.TrimRight(h, "\r\n")
		if h == "" {
			break
		}
		k, v, _ := strings.Cut(h, ":")
		v = strings.TrimSpace(v)
		switch strings.ToLower(k) {
		case "content-length":
			if length, err = strconv.Atoi(v); err != nil {
				return 0, nil, false, fmt.Errorf("bad content-length %q", v)
			}
		case "connection":
			closing = strings.EqualFold(v, "close")
		}
	}
	if length < 0 {
		return 0, nil, false, errors.New("response without content-length")
	}
	body = make([]byte, length)
	_, err = io.ReadFull(br, body)
	return status, body, closing, err
}

// Traffic mix for the query workloads. No production traffic log
// exists, so the mix is an assumption: mostly per-domain lookups, a
// slice of them for names the snapshot does not hold, and a few
// aggregate reads.
const (
	mixDomain        = 0.94
	mixShare         = 0.03 // the rest is /v1/concentration
	mixUnknownDomain = 0.05 // share of lookups for unknown names
)

// mix draws seeded request targets over a name population.
type mix struct {
	rng   *rand.Rand
	names []string
}

func newMix(seed uint64, stream uint64, names []string) *mix {
	return &mix{rng: rand.New(rand.NewPCG(seed, stream)), names: names}
}

func (m *mix) next() string {
	u := m.rng.Float64()
	switch {
	case u < mixDomain:
		if m.rng.Float64() < mixUnknownDomain {
			return "/v1/domain?name=" + url.QueryEscape(fmt.Sprintf("unknown-%d.invalid", m.rng.IntN(1<<30)))
		}
		return "/v1/domain?name=" + url.QueryEscape(m.names[m.rng.IntN(len(m.names))])
	case u < mixDomain+mixShare:
		return "/v1/share?top=10"
	default:
		return "/v1/concentration"
	}
}

// planned is one open-loop request: its target and when it is due,
// relative to the start of the phase.
type planned struct {
	target string
	due    time.Duration
}

// schedule draws a seeded Poisson arrival process at rate req/s for d.
func schedule(m *mix, rate float64, d time.Duration) []planned {
	var out []planned
	var t float64
	for {
		t += m.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, planned{m.next(), due})
	}
}

// loadStats is one phase's client-side tally.
type loadStats struct {
	latMS  []float64 // per request, from when it was due
	dueS   []float64 // open loop: when each request was due, in seconds
	lateMS []float64 // generator lateness per request
	ok     int
	failed int
	// firstErr describes the first failure, for the report.
	firstErr string
}

func (s *loadStats) merge(o *loadStats) {
	s.latMS = append(s.latMS, o.latMS...)
	s.dueS = append(s.dueS, o.dueS...)
	s.lateMS = append(s.lateMS, o.lateMS...)
	s.ok += o.ok
	s.failed += o.failed
	if s.firstErr == "" {
		s.firstErr = o.firstErr
	}
}

// windowed is the median, over one-second windows of due times, of each
// window's q-quantile latency: a tail that one stalled second cannot
// move by itself.
func (s *loadStats) windowed(q float64) float64 {
	byWin := make(map[int][]float64)
	for i, d := range s.dueS {
		byWin[int(d)] = append(byWin[int(d)], s.latMS[i])
	}
	var qs []float64
	for _, xs := range byWin {
		qs = append(qs, quantile(xs, q))
	}
	return median(qs)
}

func (s *loadStats) note(status int, err error) {
	switch {
	case err != nil:
		s.failed++
		if s.firstErr == "" {
			s.firstErr = err.Error()
		}
	case status != 200:
		s.failed++
		if s.firstErr == "" {
			s.firstErr = fmt.Sprintf("HTTP %d", status)
		}
	default:
		s.ok++
	}
}

// openLoop sends plan over conns keep-alive connections: a free
// connection takes the next planned request, waits until it is due,
// sends it and records its latency from the due time. A request that
// falls due while every connection is busy waits, and that wait counts.
// Lateness is how long after max(due, connection free) the request
// actually went out: the generator's own delay. stop ends the phase
// early; requests not yet sent are dropped.
func openLoop(addr string, conns int, plan []planned, stop <-chan struct{}) *loadStats {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total loadStats
		wg    sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(addr)
			defer cl.close()
			var st loadStats
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					break
				}
				picked := time.Now()
				due := t0.Add(plan[i].due)
				if !waitUntil(due, stop) {
					break
				}
				sent := time.Now()
				status, _, err := cl.do("GET", plan[i].target)
				done := time.Now()
				st.note(status, err)
				st.latMS = append(st.latMS, float64(done.Sub(due))/float64(time.Millisecond))
				st.dueS = append(st.dueS, plan[i].due.Seconds())
				ready := due
				if picked.After(due) {
					ready = picked
				}
				st.lateMS = append(st.lateMS, float64(sent.Sub(ready))/float64(time.Millisecond))
			}
			mu.Lock()
			total.merge(&st)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return &total
}

// waitUntil sleeps until t and reports false if stop closed first.
func waitUntil(t time.Time, stop <-chan struct{}) bool {
	if wait := time.Until(t); wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-stop:
			return false
		case <-timer.C:
			return true
		}
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// closedLoop keeps conns connections busy back to back for d and
// returns completions per second.
func closedLoop(addr string, conns int, mixes []*mix, d time.Duration) (*loadStats, float64) {
	var (
		mu    sync.Mutex
		total loadStats
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(m *mix) {
			defer wg.Done()
			cl := newClient(addr)
			defer cl.close()
			var st loadStats
			for time.Now().Before(deadline) {
				t := time.Now()
				status, _, err := cl.do("GET", m.next())
				st.note(status, err)
				st.latMS = append(st.latMS, float64(time.Since(t))/float64(time.Millisecond))
			}
			mu.Lock()
			total.merge(&st)
			mu.Unlock()
		}(mixes[c])
	}
	wg.Wait()
	return &total, float64(total.ok+total.failed) / time.Since(start).Seconds()
}
