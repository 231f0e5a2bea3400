package dns

// Flood chaos tests for the overload-protection layer. These run in the
// race tier (go test -race -run Chaos) and assert *exact* counters: the
// RRL clock is frozen so refill never muddies the token arithmetic, and
// the fabric's SpoofUDP is blocking so every injected datagram is
// provably read by the server.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxmap/internal/netsim"
)

// floodWire packs the spoofed query a flood repeats.
func floodWire(t *testing.T, name string) []byte {
	t.Helper()
	wire, err := NewQuery(0x4242, name, TypeMX).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// startOverloadServer runs a UDP+TCP DNS server on the fabric at addr
// and registers cleanup that also verifies both serve loops exited nil.
func startOverloadServer(t *testing.T, n *netsim.Network, addr string, cfg ServerConfig) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ap := netip.MustParseAddrPort(addr)
	pc, err := n.ListenPacket(ap)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen(ap)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	go func() { errc <- srv.ServeUDP(pc) }()
	go func() { errc <- srv.ServeTCP(ln) }()
	t.Cleanup(func() {
		srv.Close()
		for i := 0; i < 2; i++ {
			// A serve loop scheduled only after a test's Shutdown
			// refuses to start with net.ErrClosed; that is no failure.
			if err := <-errc; err != nil && !errors.Is(err, net.ErrClosed) {
				t.Errorf("serve loop: %v", err)
			}
		}
	})
	return srv
}

// TestChaosFloodRRLExactCounters drives a 3000-query spoofed-source
// flood from one /24 into an RRL-protected server and checks the token
// arithmetic to the last packet: burst answers, then a strict
// drop/slip/drop/slip cadence.
func TestChaosFloodRRLExactCounters(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.1:53"
	const flood = 3000
	const burst = 20
	now, _ := frozenClock()
	srv := startOverloadServer(t, n, server, ServerConfig{
		Catalog:    chaosCatalog(t, 1),
		UDPWorkers: 1,
		RRL:        &RRLConfig{ResponsesPerSecond: 1000, Burst: burst, Slip: 2, Now: now},
	})

	wire := floodWire(t, "d00.chaos.example.")
	delivered := n.FloodUDP(netip.MustParsePrefix("198.51.100.0/24"),
		netip.MustParseAddrPort(server), wire, flood)
	if delivered != flood {
		t.Fatalf("flood delivered %d/%d datagrams", delivered, flood)
	}
	// SpoofUDP is blocking, so all 3000 are in (or through) the server's
	// queue; wait for the worker to drain them.
	waitStats(t, func(st ServerStats) bool { return st.UDPQueries == flood }, srv)

	// Frozen clock: the bucket starts at burst tokens and never refills.
	// 20 answered; of the 2980 limited, every 2nd slips (1490) and the
	// rest drop (1490).
	const limited = flood - burst
	want := ServerStats{
		UDPQueries:   flood,
		UDPResponses: burst + limited/2, // full answers + slipped TC replies
		RRLSlips:     limited / 2,
		RRLDrops:     limited - limited/2,
	}
	waitStats(t, func(st ServerStats) bool { return st == want }, srv)
	if lost := srv.Stats().Lost(); lost != 0 {
		t.Errorf("Lost() = %d, want 0", lost)
	}
}

// TestChaosFloodVictimIsolation proves the point of prefix-keyed RRL
// with slip: a spoofed flood from one /24 saturates its own bucket, and
// a well-behaved client on another prefix still gets 100% of its
// queries answered — directly from its own burst while it lasts, then
// via slipped TC=1 replies that the client retries over TCP, the path a
// spoofer cannot follow.
func TestChaosFloodVictimIsolation(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.2:53"
	const flood = 3000
	const burst = 20
	const victimQueries = 40
	now, _ := frozenClock()
	// Slip=1: every rate-limited answer becomes a TC reply, so the victim
	// never waits out a dropped datagram — failure is impossible, not
	// merely unlikely, and the test is timing-independent.
	srv := startOverloadServer(t, n, server, ServerConfig{
		Catalog:    chaosCatalog(t, victimQueries),
		UDPWorkers: 1,
		RRL:        &RRLConfig{ResponsesPerSecond: 1000, Burst: burst, Slip: 1, Now: now},
	})

	wire := floodWire(t, "d00.chaos.example.")
	if delivered := n.FloodUDP(netip.MustParsePrefix("198.51.100.0/24"),
		netip.MustParseAddrPort(server), wire, flood); delivered != flood {
		t.Fatalf("flood delivered %d/%d datagrams", delivered, flood)
	}
	waitStats(t, func(st ServerStats) bool { return st.UDPQueries == flood }, srv)

	// The victim dials from the fabric's client address (100.64.0.1), a
	// different /24 than the flood — its bucket is untouched.
	client := &Client{Server: server, Timeout: 5 * time.Second, Retries: 0,
		DialContext: lossyFabricDial(n)}
	answered := 0
	for i := 0; i < victimQueries; i++ {
		name := fmt.Sprintf("d%02d.chaos.example.", i)
		resp, err := client.Exchange(context.Background(), name, TypeMX)
		if err != nil {
			t.Fatalf("victim query %d (%s): %v", i, name, err)
		}
		if len(resp.Answers) == 1 {
			answered++
		}
	}
	if answered != victimQueries {
		t.Fatalf("victim answered %d/%d queries, want all", answered, victimQueries)
	}

	// Exact accounting: the flood burned its burst then slipped all 2980;
	// the victim got burst UDP answers, then 20 slips each retried over
	// TCP. RetryCount stays 0 — TC fallback is not a retry.
	want := ServerStats{
		UDPQueries:   flood + victimQueries,
		UDPResponses: flood + victimQueries, // slip=1: everything is answered or slipped
		RRLSlips:     (flood - burst) + (victimQueries - burst),
		TCPAccepted:  victimQueries - burst,
		TCPQueries:   victimQueries - burst,
		TCPResponses: victimQueries - burst,
	}
	waitStats(t, func(st ServerStats) bool { return st == want }, srv)
	if got := client.RetryCount(); got != 0 {
		t.Errorf("victim retries = %d, want 0 (slips must answer first attempts)", got)
	}
}

// TestChaosDrainUnderLoadZeroLoss shuts a server down gracefully while
// concurrent clients are mid-query and checks that the books balance:
// every query the server read was answered — Lost() == 0 — and both
// serve loops exited clean.
func TestChaosDrainUnderLoadZeroLoss(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.3:53"
	const workers = 4
	srv := startOverloadServer(t, n, server, ServerConfig{
		Catalog:    chaosCatalog(t, 8),
		UDPWorkers: 2,
	})

	var stop atomic.Bool
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &Client{Server: server, Timeout: 300 * time.Millisecond,
				Retries: 0, DialContext: lossyFabricDial(n)}
			for i := 0; !stop.Load(); i++ {
				name := fmt.Sprintf("d%02d.chaos.example.", (w+i)%8)
				if _, err := client.Exchange(context.Background(), name, TypeMX); err == nil {
					answered.Add(1)
				}
				// Queries racing the drain may time out unanswered; those
				// were never read by the server and are the client's loss,
				// not the server's.
			}
		}(w)
	}
	// Let real load build before pulling the plug.
	waitStats(t, func(st ServerStats) bool { return st.UDPQueries >= 20 }, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	st := srv.Stats()
	if st.Lost() != 0 {
		t.Errorf("Lost() = %d after drain, want 0 (stats: %+v)", st.Lost(), st)
	}
	if st.Drains != 1 || st.DrainTimeouts != 0 {
		t.Errorf("Drains=%d DrainTimeouts=%d, want 1/0", st.Drains, st.DrainTimeouts)
	}
	if answered.Load() == 0 {
		t.Error("no queries completed before the drain; test exercised nothing")
	}
	// Draining twice is idempotent and still nil.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestChaosDrainCompletesInFlightTCP freezes a TCP response mid-write
// (the pipe fabric's writes are synchronous) and calls Shutdown: the
// drain must wait for that in-flight answer to reach the client rather
// than cutting the connection.
func TestChaosDrainCompletesInFlightTCP(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.4:53"
	srv := startOverloadServer(t, n, server, ServerConfig{Catalog: chaosCatalog(t, 1)})

	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort(server))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameQuery(t, "d00.chaos.example.")); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has read the query; its answer is now
	// in-flight (blocked in Write until we read it).
	waitStats(t, func(st ServerStats) bool { return st.TCPQueries == 1 }, srv)

	got := make(chan *Message, 1)
	readErr := make(chan error, 1)
	go func() {
		var lenBuf [2]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			readErr <- err
			return
		}
		buf := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
		if _, err := io.ReadFull(conn, buf); err != nil {
			readErr <- err
			return
		}
		m, err := Unpack(buf)
		if err != nil {
			readErr <- err
			return
		}
		got <- m
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case m := <-got:
		if len(m.Answers) != 1 {
			t.Errorf("in-flight answer has %d records, want 1", len(m.Answers))
		}
	case err := <-readErr:
		t.Fatalf("in-flight response lost to drain: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight response never arrived")
	}
	st := srv.Stats()
	if st.TCPResponses != 1 || st.Lost() != 0 {
		t.Errorf("stats = %+v, want TCPResponses=1 Lost=0", st)
	}
}
