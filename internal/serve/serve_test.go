package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mxmap/internal/asn"
	"mxmap/internal/benchdata"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/netsim"
)

// serveWorldOld is the serving fixture: two managed providers plus one
// self-hosted domain.
func serveWorldOld() *dataset.Snapshot {
	s := dataset.NewSnapshot("2021-01", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "one.example", Rank: 1,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-a.net"}}})
	s.AddDomain(dataset.DomainRecord{Domain: "two.example", Rank: 2,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-a.net"}}})
	s.AddDomain(dataset.DomainRecord{Domain: "three.example", Rank: 3,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-b.net"}}})
	s.AddDomain(dataset.DomainRecord{Domain: "four.example", Rank: 4,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.four.example"}}})
	return s
}

// serveWorldNew is one churn step later: two.example migrated to
// prov-b, three.example disappeared, five.example arrived on prov-b.
func serveWorldNew() *dataset.Snapshot {
	s := dataset.NewSnapshot("2021-02", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "one.example", Rank: 1,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-a.net"}}})
	s.AddDomain(dataset.DomainRecord{Domain: "two.example", Rank: 2,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-b.net"}}})
	s.AddDomain(dataset.DomainRecord{Domain: "four.example", Rank: 4,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.four.example"}}})
	s.AddDomain(dataset.DomainRecord{Domain: "five.example", Rank: 5,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-b.net"}}})
	return s
}

// writeServeWorlds materializes both fixture snapshots as files.
func writeServeWorlds(t *testing.T) (oldPath, newPath string) {
	t.Helper()
	dir := t.TempDir()
	oldPath = filepath.Join(dir, "old.jsonl")
	newPath = filepath.Join(dir, "new.jsonl")
	for path, snap := range map[string]*dataset.Snapshot{oldPath: serveWorldOld(), newPath: serveWorldNew()} {
		snap.SortDomains()
		if err := dataset.WriteFile(path, snap); err != nil {
			t.Fatal(err)
		}
	}
	return oldPath, newPath
}

// servingService builds a Service already serving the old world.
func servingService(t *testing.T, path string) *Service {
	t.Helper()
	svc := NewService(core.ApproachMXOnly, ServiceConfig{})
	if _, err := svc.Load(path); err != nil {
		t.Fatal(err)
	}
	return svc
}

// startTestServer runs a server on the fabric at addr and registers
// cleanup that verifies the serve loop exited nil.
func startTestServer(t *testing.T, n *netsim.Network, addr string, cfg Config) *Server {
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
		// A serve loop scheduled only after a test's Shutdown refuses
		// to start with net.ErrClosed; that is no failure.
		if err := <-errc; err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("serve loop: %v", err)
		}
	})
	return srv
}

// tClient is a minimal keep-alive HTTP/1.1 test client over the fabric.
type tClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialClient(t *testing.T, n *netsim.Network, addr string) *tClient {
	t.Helper()
	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &tClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *tClient) send(method, target string) {
	c.t.Helper()
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	req := method + " " + target + " HTTP/1.1\r\nHost: test\r\n\r\n"
	if _, err := c.conn.Write([]byte(req)); err != nil {
		c.t.Fatalf("write %s %s: %v", method, target, err)
	}
}

func (c *tClient) readResponse() (status int, hdr map[string]string, body []byte) {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.br.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read status line: %v", err)
	}
	parts := strings.SplitN(strings.TrimRight(line, "\r\n"), " ", 3)
	if len(parts) < 2 {
		c.t.Fatalf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(parts[1])
	if err != nil {
		c.t.Fatalf("malformed status %q", line)
	}
	hdr = make(map[string]string)
	for {
		h, err := c.br.ReadString('\n')
		if err != nil {
			c.t.Fatalf("read header: %v", err)
		}
		h = strings.TrimRight(h, "\r\n")
		if h == "" {
			break
		}
		if key, value, ok := strings.Cut(h, ":"); ok {
			hdr[strings.ToLower(key)] = strings.TrimSpace(value)
		}
	}
	n, err := strconv.Atoi(hdr["content-length"])
	if err != nil {
		c.t.Fatalf("missing content-length: %v", hdr)
	}
	body = make([]byte, n)
	if _, err := io.ReadFull(c.br, body); err != nil {
		c.t.Fatalf("read body: %v", err)
	}
	return status, hdr, body
}

// get performs one request and decodes the JSON answer into out.
func (c *tClient) get(method, target string, wantStatus int, out any) map[string]string {
	c.t.Helper()
	c.send(method, target)
	status, hdr, body := c.readResponse()
	if status != wantStatus {
		c.t.Fatalf("%s %s = %d (%s), want %d", method, target, status, body, wantStatus)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, target, body, err)
		}
	}
	return hdr
}

// awaitServerStats polls until the server's counters equal want.
func awaitServerStats(t *testing.T, srv *Server, want ServerStats) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.Stats() == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged:\ngot  %+v\nwant %+v", srv.Stats(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeEndpoints(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)
	svc := servingService(t, oldPath)
	n := netsim.New()
	const addr = "203.0.113.10:80"
	srv := startTestServer(t, n, addr, Config{Service: svc})
	c := dialClient(t, n, addr)

	var ready ReadyResponse
	c.get("GET", "/readyz", 200, &ready)
	if !ready.Ready || ready.State != "serving" {
		t.Errorf("readyz = %+v, want ready/serving", ready)
	}
	var health HealthResponse
	c.get("GET", "/healthz", 200, &health)
	if health.State != "serving" || health.Stale || health.Epoch != 1 {
		t.Errorf("healthz = %+v, want serving epoch 1", health)
	}

	var look LookupResponse
	c.get("GET", "/v1/domain?name=one.example", 200, &look)
	want := LookupResponse{
		Domain: "one.example", Found: true, Primary: "prov-a.net",
		Credits: map[string]float64{"prov-a.net": 1}, Rank: 1,
		Snapshot: SnapshotMeta{Date: "2021-01", Corpus: "test", Epoch: 1, Domains: 4},
	}
	if !reflect.DeepEqual(look, want) {
		t.Errorf("lookup = %+v, want %+v", look, want)
	}
	look = LookupResponse{}
	c.get("GET", "/v1/domain?name=missing.example", 200, &look)
	if look.Found || look.Primary != "" {
		t.Errorf("missing domain = %+v, want not found", look)
	}

	var share ShareResponse
	c.get("GET", "/v1/share?top=1", 200, &share)
	if len(share.Top) != 1 || share.Top[0].Company != "prov-a.net" || share.Top[0].Percent != 50 {
		t.Errorf("share top 1 = %+v, want prov-a.net at 50%%", share.Top)
	}
	c.get("GET", "/v1/share", 200, &share)
	if len(share.Top) != 2 {
		t.Errorf("share = %+v, want 2 companies (self-hosted excluded)", share.Top)
	}

	var conc ConcentrationResponse
	c.get("GET", "/v1/concentration", 200, &conc)
	// prov-a 2 of 3 managed credits, prov-b 1 of 3.
	if math.Abs(conc.CR1-200.0/3) > 1e-9 || conc.Snapshot.Epoch != 1 {
		t.Errorf("concentration = %+v, want CR1 %.4f", conc, 200.0/3)
	}

	var churn ChurnResponse
	c.get("GET", "/v1/churn", 200, &churn)
	if churn.Swaps != 0 || churn.Last != nil {
		t.Errorf("churn before any swap = %+v, want empty", churn)
	}

	c.get("GET", "/v1/swap?path=/nope", 403, nil)
	c.get("GET", "/missing", 404, nil)
	c.get("POST", "/v1/domain", 405, nil)
	// A parameterless lookup is a 400, which closes the connection.
	hdr := c.get("GET", "/v1/domain", 400, nil)
	if hdr["connection"] != "close" {
		t.Errorf("400 headers = %v, want Connection: close", hdr)
	}
	c2 := dialClient(t, n, addr)
	c2.get("GET", "/v1/share?top=0", 400, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	awaitServerStats(t, srv, ServerStats{
		Accepted: 2, Requests: 13, Responses: 13,
		Lookups: 2, LookupMisses: 1,
		Drains: 1,
	})
	if svc.State() != StateDraining {
		t.Errorf("service state after drain = %v, want draining", svc.State())
	}
}

func TestServeHotSwapAndStaleMode(t *testing.T) {
	oldPath, newPath := writeServeWorlds(t)
	svc := servingService(t, oldPath)
	n := netsim.New()
	const addr = "203.0.113.11:80"
	srv := startTestServer(t, n, addr, Config{Service: svc, AllowSwap: true})
	c := dialClient(t, n, addr)

	// A swap whose load fails leaves the old epoch serving, stale.
	c.get("POST", "/v1/swap?path="+filepath.Join(t.TempDir(), "gone.jsonl"), 500, nil)
	var look LookupResponse
	c.get("GET", "/v1/domain?name=one.example", 200, &look)
	if !look.Stale || !look.Found || look.Snapshot.Epoch != 1 {
		t.Errorf("lookup after failed swap = %+v, want stale epoch-1 answer", look)
	}
	var health HealthResponse
	c.get("GET", "/healthz", 200, &health)
	if !health.Stale || health.State != "serving" {
		t.Errorf("healthz after failed swap = %+v, want stale serving", health)
	}
	var ready ReadyResponse
	c.get("GET", "/readyz", 200, &ready)
	if !ready.Ready || !ready.Stale {
		t.Errorf("readyz after failed swap = %+v, want ready but stale", ready)
	}

	// A successful swap flips the epoch, clears stale, and reports the
	// churn exactly.
	var rep ChurnReport
	c.get("POST", "/v1/swap?path="+newPath, 200, &rep)
	if rep.FromEpoch != 1 || rep.ToEpoch != 2 || rep.FromDate != "2021-01" || rep.ToDate != "2021-02" {
		t.Errorf("report identity = %+v, want epoch 1->2, 2021-01 -> 2021-02", rep)
	}
	if rep.FromDomains != 4 || rep.ToDomains != 4 || rep.Added != 1 || rep.Removed != 1 || rep.Moved != 1 {
		t.Errorf("report = %+v, want 4 -> 4 domains, 1 added, 1 removed, 1 moved", rep)
	}
	wantFlows := []ProviderFlow{
		{From: NoProviderLabel, To: "prov-b.net", Count: 1},
		{From: "prov-a.net", To: "prov-b.net", Count: 1},
		{From: "prov-b.net", To: NoProviderLabel, Count: 1},
	}
	if !reflect.DeepEqual(rep.Flows, wantFlows) {
		t.Errorf("flows = %+v, want %+v", rep.Flows, wantFlows)
	}

	look = LookupResponse{}
	c.get("GET", "/v1/domain?name=two.example", 200, &look)
	if look.Primary != "prov-b.net" || look.Stale || look.Snapshot.Epoch != 2 || look.Snapshot.Date != "2021-02" {
		t.Errorf("lookup after swap = %+v, want prov-b.net at epoch 2", look)
	}
	look = LookupResponse{}
	c.get("GET", "/v1/domain?name=three.example", 200, &look)
	if look.Found {
		t.Errorf("removed domain still found: %+v", look)
	}

	var churn ChurnResponse
	c.get("GET", "/v1/churn", 200, &churn)
	if churn.Swaps != 1 || churn.Last == nil || churn.Last.ToEpoch != 2 {
		t.Errorf("churn = %+v, want one swap to epoch 2", churn)
	}
	var stats StatsResponse
	c.get("GET", "/v1/stats", 200, &stats)
	ss := stats.Service
	if ss.State != "serving" || ss.Stale || ss.Epoch != 2 || ss.Domains != 4 ||
		ss.Swaps != 1 || ss.SwapFails != 1 {
		t.Errorf("service stats = %+v", ss)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	awaitServerStats(t, srv, ServerStats{
		Accepted: 1, Requests: 9, Responses: 9,
		Lookups: 3, LookupMisses: 1, StaleServes: 1,
		Drains: 1,
	})
}

func TestServeProbesBeforeLoad(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)
	svc := NewService(core.ApproachMXOnly, ServiceConfig{})
	n := netsim.New()
	const addr = "203.0.113.12:80"
	startTestServer(t, n, addr, Config{Service: svc})
	c := dialClient(t, n, addr)

	var ready ReadyResponse
	c.get("GET", "/readyz", 503, &ready)
	if ready.Ready || ready.State != "loading" {
		t.Errorf("readyz before load = %+v, want loading", ready)
	}
	var health HealthResponse
	c.get("GET", "/healthz", 200, &health)
	if health.State != "loading" || health.Epoch != 0 {
		t.Errorf("healthz before load = %+v, want loading epoch 0", health)
	}
	c.get("GET", "/v1/domain?name=one.example", 503, nil)
	c.get("GET", "/v1/share", 503, nil)
	c.get("GET", "/v1/concentration", 503, nil)

	// A failed initial load keeps the service loading and retryable.
	if _, err := svc.Load(filepath.Join(t.TempDir(), "gone.jsonl")); err == nil {
		t.Fatal("load of a missing snapshot succeeded")
	}
	c.get("GET", "/readyz", 503, &ready)
	if ready.Ready {
		t.Errorf("ready after failed load: %+v", ready)
	}
	meta, err := svc.Load(oldPath)
	if err != nil {
		t.Fatalf("retried load: %v", err)
	}
	if meta.Epoch != 1 || meta.Domains != 4 {
		t.Errorf("meta = %+v, want epoch 1 with 4 domains", meta)
	}
	c.get("GET", "/readyz", 200, &ready)
	if !ready.Ready {
		t.Errorf("readyz after load = %+v, want ready", ready)
	}
}

func TestServeAdmissionControl(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)

	t.Run("conn cap", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.13:80"
		srv := startTestServer(t, n, addr, Config{Service: svc, MaxConns: 1})
		c1 := dialClient(t, n, addr)
		c1.get("GET", "/healthz", 200, nil)
		// The second connection is shed at the door.
		c2 := dialClient(t, n, addr)
		status, hdr, _ := c2.readResponse()
		if status != 429 || hdr["retry-after"] != "1" || hdr["connection"] != "close" {
			t.Errorf("over-cap conn got %d %v, want 429 + Retry-After", status, hdr)
		}
		if st := srv.Stats(); st.Rejected != 1 || st.Accepted != 1 {
			t.Errorf("stats = %+v, want Accepted 1 Rejected 1", st)
		}
	})

	t.Run("inflight shed", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.14:80"
		entered := make(chan struct{}, 1)
		release := make(chan struct{})
		srv := startTestServer(t, n, addr, Config{
			Service: svc, MaxInflight: 1, QueueDepth: -1, RequestTimeout: -1,
			Gate: func(path string) {
				if path == "/v1/domain" {
					entered <- struct{}{}
					<-release
				}
			},
		})
		c1 := dialClient(t, n, addr)
		c1.send("GET", "/v1/domain?name=one.example")
		<-entered // c1 now owns the only inflight slot
		c2 := dialClient(t, n, addr)
		c2.get("GET", "/v1/domain?name=one.example", 429, nil)
		close(release)
		if status, _, _ := c1.readResponse(); status != 200 {
			t.Errorf("gated request finished %d, want 200", status)
		}
		awaitServerStats(t, srv, ServerStats{
			Accepted: 2, Requests: 2, Responses: 2, Shed: 1, Lookups: 1,
		})
	})

	t.Run("queue then serve", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.15:80"
		entered := make(chan struct{}, 2)
		release := make(chan struct{}, 2)
		srv := startTestServer(t, n, addr, Config{
			Service: svc, MaxInflight: 1, QueueDepth: 1, QueueWait: 5 * time.Second,
			RequestTimeout: -1,
			Gate: func(path string) {
				if path == "/v1/domain" {
					entered <- struct{}{}
					<-release
				}
			},
		})
		c1 := dialClient(t, n, addr)
		c1.send("GET", "/v1/domain?name=one.example")
		<-entered
		c2 := dialClient(t, n, addr)
		c2.send("GET", "/v1/domain?name=two.example")
		// c2 is queued behind c1's slot.
		deadline := time.Now().Add(5 * time.Second)
		for srv.Stats().Queued != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("second request never queued: %+v", srv.Stats())
			}
			time.Sleep(time.Millisecond)
		}
		release <- struct{}{}
		release <- struct{}{}
		if status, _, _ := c1.readResponse(); status != 200 {
			t.Errorf("first request finished %d", status)
		}
		<-entered // c2 took over the slot
		if status, _, _ := c2.readResponse(); status != 200 {
			t.Errorf("queued request finished %d", status)
		}
		awaitServerStats(t, srv, ServerStats{
			Accepted: 2, Requests: 2, Responses: 2, Queued: 1, Lookups: 2,
		})
	})

	t.Run("queue timeout", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.16:80"
		entered := make(chan struct{}, 1)
		release := make(chan struct{})
		srv := startTestServer(t, n, addr, Config{
			Service: svc, MaxInflight: 1, QueueDepth: 1, QueueWait: 30 * time.Millisecond,
			RequestTimeout: -1,
			Gate: func(path string) {
				if path == "/v1/domain" {
					entered <- struct{}{}
					<-release
				}
			},
		})
		c1 := dialClient(t, n, addr)
		c1.send("GET", "/v1/domain?name=one.example")
		<-entered
		c2 := dialClient(t, n, addr)
		c2.get("GET", "/v1/domain?name=two.example", 429, nil)
		close(release)
		if status, _, _ := c1.readResponse(); status != 200 {
			t.Errorf("gated request finished %d", status)
		}
		awaitServerStats(t, srv, ServerStats{
			Accepted: 2, Requests: 2, Responses: 2, Queued: 1, Shed: 1, Lookups: 1,
		})
	})

	t.Run("request deadline", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.17:80"
		release := make(chan struct{})
		srv := startTestServer(t, n, addr, Config{
			Service: svc, RequestTimeout: 30 * time.Millisecond,
			Gate: func(path string) {
				if path == "/v1/domain" {
					<-release
				}
			},
		})
		c := dialClient(t, n, addr)
		c.get("GET", "/v1/domain?name=one.example", 503, nil)
		close(release) // let the abandoned handler finish
		awaitServerStats(t, srv, ServerStats{
			Accepted: 1, Requests: 1, Responses: 1, Timeouts: 1, Lookups: 1,
		})
	})
}

func TestServeConnHygiene(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)

	t.Run("slowloris", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.18:80"
		srv := startTestServer(t, n, addr, Config{Service: svc, ReadTimeout: 30 * time.Millisecond})
		c := dialClient(t, n, addr)
		// Half a request line, then silence: the read deadline reaps it.
		if _, err := c.conn.Write([]byte("GET /v1/dom")); err != nil {
			t.Fatal(err)
		}
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.br.ReadByte(); err == nil {
			t.Fatal("slowloris connection was answered")
		}
		awaitServerStats(t, srv, ServerStats{Accepted: 1, ReadTimeouts: 1})
	})

	t.Run("malformed", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.19:80"
		srv := startTestServer(t, n, addr, Config{Service: svc})
		c := dialClient(t, n, addr)
		if _, err := c.conn.Write([]byte("NOT A REQUEST\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		status, hdr, _ := c.readResponse()
		if status != 400 || hdr["connection"] != "close" {
			t.Errorf("malformed request got %d %v, want 400 close", status, hdr)
		}
		awaitServerStats(t, srv, ServerStats{
			Accepted: 1, Requests: 1, Responses: 1, BadRequests: 1,
		})
	})

	t.Run("request budget", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.20:80"
		srv := startTestServer(t, n, addr, Config{Service: svc, MaxRequests: 2})
		c := dialClient(t, n, addr)
		hdr := c.get("GET", "/healthz", 200, nil)
		if hdr["connection"] == "close" {
			t.Error("first request already closing")
		}
		hdr = c.get("GET", "/healthz", 200, nil)
		if hdr["connection"] != "close" {
			t.Error("budget-exhausting response not marked close")
		}
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.br.ReadByte(); err != io.EOF {
			t.Errorf("connection still open after budget: %v", err)
		}
		awaitServerStats(t, srv, ServerStats{
			Accepted: 1, Requests: 2, Responses: 2, BudgetCloses: 1,
		})
	})
}

// TestServeSwapEquivalence proves the serving store built by a swap
// answers identically to one built by a fresh load of the same
// snapshot.
func TestServeSwapEquivalence(t *testing.T) {
	oldPath, newPath := writeServeWorlds(t)
	swapped := servingService(t, oldPath)
	if _, err := swapped.Swap(context.Background(), newPath); err != nil {
		t.Fatal(err)
	}
	fresh := servingService(t, newPath)

	se, ss := swapped.acquire()
	defer swapped.release(se)
	fe, fs := fresh.acquire()
	defer fresh.release(fe)
	if len(ss.domains) != len(fs.domains) {
		t.Fatalf("store sizes differ: %d vs %d", len(ss.domains), len(fs.domains))
	}
	for name, att := range fs.domains {
		got, ok := ss.domains[name]
		if !ok || !reflect.DeepEqual(got, att) {
			t.Errorf("domain %s: swapped %+v, fresh %+v", name, got, att)
		}
	}
	if !reflect.DeepEqual(ss.shares, fs.shares) {
		t.Errorf("shares differ: %+v vs %+v", ss.shares, fs.shares)
	}
	if ss.conc != fs.conc {
		t.Errorf("concentration differs: %+v vs %+v", ss.conc, fs.conc)
	}
}

// TestServeSwapChurnFromStores swaps the adversarial fixture to its
// next snapshot with the prior snapshot file already deleted: the swap
// reads only the new file, and the churn report comes from the two
// stores' attributions. The forged relay's three surviving domains
// move from google.com to mailrelay.biz with byte-identical records, so
// a churn report driven by a record diff would miss them. The abuse
// cluster's three survivors keep their provider and flip from
// untrusted to trusted.
func TestServeSwapChurnFromStores(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.jsonl")
	newPath := filepath.Join(dir, "next.jsonl")
	for path, snap := range map[string]*dataset.Snapshot{oldPath: benchdata.Adversarial(), newPath: benchdata.AdversarialNext()} {
		if err := dataset.WriteFile(path, snap); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewService(core.ApproachPriority, ServiceConfig{Infer: core.Config{
		Profiles:               []core.ProviderProfile{{ID: "google.com", ASNs: []asn.ASN{15169}}},
		AbuseClusterMinDomains: 4,
	}})
	if _, err := svc.Load(oldPath); err != nil {
		t.Fatal(err)
	}
	const cluster = "cheap-pillz-dealz-000.xyz"
	if att := lookupAtt(t, svc, cluster); !att.Untrusted || att.Primary() != "bulk-blast.xyz" {
		t.Fatalf("fixture: %s before swap = %+v, want untrusted bulk-blast.xyz", cluster, att)
	}
	if err := os.Remove(oldPath); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Swap(context.Background(), newPath)
	if err != nil {
		t.Fatalf("swap with the prior file gone: %v", err)
	}
	rep.SwapLatencyNS = 0
	want := ChurnReport{
		FromDate: "2021-06", ToDate: "2021-07", FromEpoch: 1, ToEpoch: 2,
		FromDomains: 16, ToDomains: 11,
		// newcomer.com; three cluster and three relay domains; lapsed.net
		// and the three surviving relay domains.
		Added: 1, Removed: 6, Moved: 4,
		Flows: []ProviderFlow{
			{From: NoProviderLabel, To: "google.com", Count: 1},
			{From: core.CreditParked, To: "google.com", Count: 1},
			{From: "bulk-blast.xyz", To: NoProviderLabel, Count: 3},
			{From: "google.com", To: NoProviderLabel, Count: 3},
			{From: "google.com", To: "mailrelay.biz", Count: 3},
		},
	}
	if !reflect.DeepEqual(*rep, want) {
		t.Errorf("churn report:\n got %+v\nwant %+v", *rep, want)
	}
	for _, d := range []string{"acme.com", "globex.com", "initech.com"} {
		if got := lookupAtt(t, svc, d).Primary(); got != "mailrelay.biz" {
			t.Errorf("%s after swap = %q, want mailrelay.biz", d, got)
		}
	}
	if att := lookupAtt(t, svc, cluster); att.Untrusted || att.Primary() != "bulk-blast.xyz" {
		t.Errorf("%s after swap = %+v, want trusted bulk-blast.xyz", cluster, att)
	}
	if svc.Stale() {
		t.Error("service stale after a successful swap")
	}
}

// lookupAtt reads one domain's attribution from the serving epoch.
func lookupAtt(t *testing.T, svc *Service, domain string) *core.DomainAttribution {
	t.Helper()
	e, st := svc.acquire()
	defer svc.release(e)
	att, ok := st.domains[domain]
	if !ok {
		t.Fatalf("%s not served", domain)
	}
	return &att
}
