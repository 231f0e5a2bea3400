package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/netsim"
	"mxmap/internal/serve"
)

// runQueryBench drives the online query service through six
// deterministic phases — endpoint lookups, admission shedding, queue
// shedding, zero-downtime hot swap, degraded stale serving, graceful
// drain — and writes the exact counters to BENCH_query.json in outDir.
// Clients run sequentially over the lossless fabric and the service
// clock is a stepped frozen clock (swap latency advances by a fixed
// step per operation), so every field in the file — shed counts, churn
// diff, reuse accounting, swap latency — is byte-for-byte reproducible
// across runs; any deviation is an error, not noise.
func runQueryBench(outDir string) error {
	fmt.Println("query service stress phases (exact counters)")
	dir, err := os.MkdirTemp("", "benchquery")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	oldPath, newPath, err := writeQueryWorlds(dir)
	if err != nil {
		return err
	}

	var results []queryPhase
	for _, phase := range []struct {
		name string
		run  func(oldPath, newPath string) (queryPhase, error)
	}{
		{"lookup_endpoints", queryBenchLookups},
		{"admission_shed", queryBenchAdmission},
		{"queue_shed", queryBenchQueue},
		{"hot_swap", queryBenchHotSwap},
		{"stale_swap", queryBenchStaleSwap},
		{"graceful_drain", queryBenchDrain},
	} {
		p, err := phase.run(oldPath, newPath)
		if err != nil {
			return fmt.Errorf("%s: %w", phase.name, err)
		}
		p.Phase = phase.name
		results = append(results, p)
		fmt.Printf("%-18s %s\n", p.Phase, p.Detail)
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	path := filepath.Join(outDir, "BENCH_query.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// queryPhase is one phase's entry in BENCH_query.json: the server's
// full counter snapshot plus, for swap phases, the service's swap
// accounting and the churn report the swap produced.
type queryPhase struct {
	Phase   string              `json:"phase"`
	Detail  string              `json:"detail"`
	Server  serve.ServerStats   `json:"server"`
	Lost    uint64              `json:"lost"`
	Service *serve.ServiceStats `json:"service,omitempty"`
	Churn   *serve.ChurnReport  `json:"churn,omitempty"`
}

// queryBenchStep is the stepped clock's advance per read; the service
// reads the clock exactly twice per load/swap, so every reported swap
// latency is exactly this value.
const queryBenchStep = 500 * time.Microsecond

// steppedQueryClock starts at the repo's frozen-bench epoch and
// advances one step per read.
func steppedQueryClock() func() time.Time {
	at := time.Unix(1700000000, 0)
	return func() time.Time {
		at = at.Add(queryBenchStep)
		return at
	}
}

// writeQueryWorlds materializes the two-provider fixture pair: the
// second snapshot is one churn step later (two.example migrates to
// prov-b, three.example disappears, five.example arrives).
func writeQueryWorlds(dir string) (oldPath, newPath string, err error) {
	old := dataset.NewSnapshot("2021-01", "bench")
	old.AddDomain(dataset.DomainRecord{Domain: "one.example", Rank: 1,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-a.net"}}})
	old.AddDomain(dataset.DomainRecord{Domain: "two.example", Rank: 2,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-a.net"}}})
	old.AddDomain(dataset.DomainRecord{Domain: "three.example", Rank: 3,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-b.net"}}})
	old.AddDomain(dataset.DomainRecord{Domain: "four.example", Rank: 4,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.four.example"}}})

	next := dataset.NewSnapshot("2021-02", "bench")
	next.AddDomain(dataset.DomainRecord{Domain: "one.example", Rank: 1,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-a.net"}}})
	next.AddDomain(dataset.DomainRecord{Domain: "two.example", Rank: 2,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-b.net"}}})
	next.AddDomain(dataset.DomainRecord{Domain: "four.example", Rank: 4,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.four.example"}}})
	next.AddDomain(dataset.DomainRecord{Domain: "five.example", Rank: 5,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.prov-b.net"}}})

	oldPath = filepath.Join(dir, "old.jsonl")
	newPath = filepath.Join(dir, "new.jsonl")
	for path, snap := range map[string]*dataset.Snapshot{oldPath: old, newPath: next} {
		snap.SortDomains()
		if err := dataset.WriteFile(path, snap); err != nil {
			return "", "", err
		}
	}
	return oldPath, newPath, nil
}

// startQueryPhase brings up a serving service and server on the fabric.
func startQueryPhase(n *netsim.Network, addr, snapshot string, cfg serve.Config) (*serve.Service, *serve.Server, func() error, error) {
	svc := serve.NewService(core.ApproachMXOnly, serve.ServiceConfig{Now: steppedQueryClock()})
	if _, err := svc.Load(snapshot); err != nil {
		return nil, nil, nil, err
	}
	cfg.Service = svc
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := n.Listen(netip.MustParseAddrPort(addr))
	if err != nil {
		return nil, nil, nil, err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return svc, srv, func() error {
		srv.Close()
		if err := <-errc; err != nil {
			return fmt.Errorf("serve loop: %w", err)
		}
		return nil
	}, nil
}

// queryClient is a minimal keep-alive HTTP/1.1 client over the fabric.
type queryClient struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialQuery(n *netsim.Network, addr string) (*queryClient, error) {
	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort(addr))
	if err != nil {
		return nil, err
	}
	return &queryClient{conn: conn, br: bufio.NewReader(conn)}, nil
}

func (c *queryClient) send(method, target string) error {
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_, err := c.conn.Write([]byte(method + " " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n"))
	return err
}

func (c *queryClient) read() (int, []byte, error) {
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.br.ReadString('\n')
	if err != nil {
		return 0, nil, err
	}
	parts := strings.SplitN(strings.TrimRight(line, "\r\n"), " ", 3)
	if len(parts) < 2 {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		h, err := c.br.ReadString('\n')
		if err != nil {
			return 0, nil, err
		}
		h = strings.TrimRight(h, "\r\n")
		if h == "" {
			break
		}
		if key, value, ok := strings.Cut(h, ":"); ok && strings.EqualFold(key, "Content-Length") {
			if length, err = strconv.Atoi(strings.TrimSpace(value)); err != nil {
				return 0, nil, err
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without content length")
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

// get performs one request, requiring wantStatus, decoding into out
// when non-nil.
func (c *queryClient) get(method, target string, wantStatus int, out any) error {
	if err := c.send(method, target); err != nil {
		return err
	}
	status, body, err := c.read()
	if err != nil {
		return err
	}
	if status != wantStatus {
		return fmt.Errorf("%s %s: status %d (%s), want %d", method, target, status, body, wantStatus)
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

// awaitQueryStats polls until the server's counters equal want exactly.
func awaitQueryStats(srv *serve.Server, want serve.ServerStats) (serve.ServerStats, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st == want {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("counters stuck at %+v, want %+v", st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// queryBenchLookups walks every read endpoint on one keep-alive
// connection and checks the exact per-endpoint accounting.
func queryBenchLookups(oldPath, _ string) (queryPhase, error) {
	n := netsim.New()
	_, srv, closeSrv, err := startQueryPhase(n, "203.0.113.40:80", oldPath, serve.Config{})
	if err != nil {
		return queryPhase{}, err
	}
	defer closeSrv()
	c, err := dialQuery(n, "203.0.113.40:80")
	if err != nil {
		return queryPhase{}, err
	}
	defer c.conn.Close()

	var look serve.LookupResponse
	for _, req := range []struct {
		target  string
		status  int
		primary string
	}{
		{"/healthz", 200, ""},
		{"/readyz", 200, ""},
		{"/v1/domain?name=one.example", 200, "prov-a.net"},
		{"/v1/domain?name=two.example", 200, "prov-a.net"},
		{"/v1/domain?name=four.example", 200, ""}, // self-hosted
		{"/v1/domain?name=no-such.example", 200, ""},
		{"/v1/share?top=2", 200, ""},
		{"/v1/concentration", 200, ""},
		{"/v1/stats", 200, ""},
	} {
		look = serve.LookupResponse{}
		if err := c.get("GET", req.target, req.status, &look); err != nil {
			return queryPhase{}, err
		}
		if req.primary != "" && look.Primary != req.primary {
			return queryPhase{}, fmt.Errorf("%s: primary %q, want %q", req.target, look.Primary, req.primary)
		}
	}
	st, err := awaitQueryStats(srv, serve.ServerStats{
		Accepted: 1, Requests: 9, Responses: 9, Lookups: 4, LookupMisses: 1,
	})
	if err != nil {
		return queryPhase{}, err
	}
	return queryPhase{
		Detail: fmt.Sprintf("9 requests over one connection: %d lookups, %d miss, 0 lost", st.Lookups, st.LookupMisses),
		Server: st, Lost: st.Lost(),
	}, nil
}

// queryBenchAdmission holds the only inflight slot at the gate and
// checks that the next request is shed with 429 while the held one
// still completes.
func queryBenchAdmission(oldPath, _ string) (queryPhase, error) {
	n := netsim.New()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	_, srv, closeSrv, err := startQueryPhase(n, "203.0.113.41:80", oldPath, serve.Config{
		MaxInflight: 1, QueueDepth: -1, RequestTimeout: -1,
		Gate: func(path string) {
			if path == "/v1/domain" {
				entered <- struct{}{}
				<-release
			}
		},
	})
	if err != nil {
		return queryPhase{}, err
	}
	defer closeSrv()

	c1, err := dialQuery(n, "203.0.113.41:80")
	if err != nil {
		return queryPhase{}, err
	}
	defer c1.conn.Close()
	if err := c1.send("GET", "/v1/domain?name=one.example"); err != nil {
		return queryPhase{}, err
	}
	<-entered // c1 owns the only slot
	c2, err := dialQuery(n, "203.0.113.41:80")
	if err != nil {
		return queryPhase{}, err
	}
	defer c2.conn.Close()
	if err := c2.get("GET", "/v1/domain?name=one.example", 429, nil); err != nil {
		return queryPhase{}, err
	}
	close(release)
	if status, _, err := c1.read(); err != nil || status != 200 {
		return queryPhase{}, fmt.Errorf("gated request finished %d, %v", status, err)
	}
	st, err := awaitQueryStats(srv, serve.ServerStats{
		Accepted: 2, Requests: 2, Responses: 2, Shed: 1, Lookups: 1,
	})
	if err != nil {
		return queryPhase{}, err
	}
	return queryPhase{
		Detail: fmt.Sprintf("inflight cap 1 held: %d shed with 429, held request answered", st.Shed),
		Server: st, Lost: st.Lost(),
	}, nil
}

// queryBenchQueue fills the slot and the queue, letting the queued
// request time out: exactly one queued, one shed, held one served.
func queryBenchQueue(oldPath, _ string) (queryPhase, error) {
	n := netsim.New()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	_, srv, closeSrv, err := startQueryPhase(n, "203.0.113.42:80", oldPath, serve.Config{
		MaxInflight: 1, QueueDepth: 1, QueueWait: 30 * time.Millisecond,
		RequestTimeout: -1,
		Gate: func(path string) {
			if path == "/v1/domain" {
				entered <- struct{}{}
				<-release
			}
		},
	})
	if err != nil {
		return queryPhase{}, err
	}
	defer closeSrv()

	c1, err := dialQuery(n, "203.0.113.42:80")
	if err != nil {
		return queryPhase{}, err
	}
	defer c1.conn.Close()
	if err := c1.send("GET", "/v1/domain?name=one.example"); err != nil {
		return queryPhase{}, err
	}
	<-entered
	c2, err := dialQuery(n, "203.0.113.42:80")
	if err != nil {
		return queryPhase{}, err
	}
	defer c2.conn.Close()
	// c2 queues behind the held slot, then its wait expires.
	if err := c2.get("GET", "/v1/domain?name=two.example", 429, nil); err != nil {
		return queryPhase{}, err
	}
	close(release)
	if status, _, err := c1.read(); err != nil || status != 200 {
		return queryPhase{}, fmt.Errorf("held request finished %d, %v", status, err)
	}
	st, err := awaitQueryStats(srv, serve.ServerStats{
		Accepted: 2, Requests: 2, Responses: 2, Queued: 1, Shed: 1, Lookups: 1,
	})
	if err != nil {
		return queryPhase{}, err
	}
	return queryPhase{
		Detail: fmt.Sprintf("queue depth 1: %d queued, %d shed at wait expiry", st.Queued, st.Shed),
		Server: st, Lost: st.Lost(),
	}, nil
}

// queryBenchHotSwap swaps the snapshot through the POST endpoint and
// pins the whole churn report: domain counts, additions, removals and
// moves, provider flows, and the stepped-clock swap latency, all exact.
func queryBenchHotSwap(oldPath, newPath string) (queryPhase, error) {
	n := netsim.New()
	svc, srv, closeSrv, err := startQueryPhase(n, "203.0.113.43:80", oldPath, serve.Config{AllowSwap: true})
	if err != nil {
		return queryPhase{}, err
	}
	defer closeSrv()
	c, err := dialQuery(n, "203.0.113.43:80")
	if err != nil {
		return queryPhase{}, err
	}
	defer c.conn.Close()

	var look serve.LookupResponse
	if err := c.get("GET", "/v1/domain?name=two.example", 200, &look); err != nil {
		return queryPhase{}, err
	}
	if look.Primary != "prov-a.net" || look.Snapshot.Epoch != 1 {
		return queryPhase{}, fmt.Errorf("pre-swap lookup = %+v, want prov-a.net at epoch 1", look)
	}
	var rep serve.ChurnReport
	if err := c.get("POST", "/v1/swap?path="+newPath, 200, &rep); err != nil {
		return queryPhase{}, err
	}
	want := serve.ChurnReport{
		FromDate: "2021-01", ToDate: "2021-02", FromEpoch: 1, ToEpoch: 2,
		FromDomains: 4, ToDomains: 4, Added: 1, Removed: 1, Moved: 1,
		Flows: []serve.ProviderFlow{
			{From: serve.NoProviderLabel, To: "prov-b.net", Count: 1},
			{From: "prov-a.net", To: "prov-b.net", Count: 1},
			{From: "prov-b.net", To: serve.NoProviderLabel, Count: 1},
		},
		SwapLatencyNS: queryBenchStep.Nanoseconds(),
	}
	if fmt.Sprintf("%+v", rep) != fmt.Sprintf("%+v", want) {
		return queryPhase{}, fmt.Errorf("churn report = %+v, want %+v", rep, want)
	}
	look = serve.LookupResponse{}
	if err := c.get("GET", "/v1/domain?name=two.example", 200, &look); err != nil {
		return queryPhase{}, err
	}
	if look.Primary != "prov-b.net" || look.Snapshot.Epoch != 2 || look.Stale {
		return queryPhase{}, fmt.Errorf("post-swap lookup = %+v, want prov-b.net at epoch 2", look)
	}
	st, err := awaitQueryStats(srv, serve.ServerStats{
		Accepted: 1, Requests: 3, Responses: 3, Lookups: 2,
	})
	if err != nil {
		return queryPhase{}, err
	}
	ss := svc.Stats()
	return queryPhase{
		Detail: fmt.Sprintf("epoch 1->2: %d added, %d removed, %d moved of %d domains, swap %v",
			rep.Added, rep.Removed, rep.Moved, ss.Domains, time.Duration(rep.SwapLatencyNS)),
		Server: st, Lost: st.Lost(), Service: &ss, Churn: &rep,
	}, nil
}

// queryBenchStaleSwap fails a swap mid-flight and checks degraded stale
// serving: the old epoch answers marked stale until a good swap clears
// the degradation.
func queryBenchStaleSwap(oldPath, newPath string) (queryPhase, error) {
	n := netsim.New()
	svc, srv, closeSrv, err := startQueryPhase(n, "203.0.113.44:80", oldPath, serve.Config{AllowSwap: true})
	if err != nil {
		return queryPhase{}, err
	}
	defer closeSrv()
	c, err := dialQuery(n, "203.0.113.44:80")
	if err != nil {
		return queryPhase{}, err
	}
	defer c.conn.Close()

	if err := c.get("POST", "/v1/swap?path="+oldPath+".does-not-exist", 500, nil); err != nil {
		return queryPhase{}, err
	}
	var look serve.LookupResponse
	if err := c.get("GET", "/v1/domain?name=one.example", 200, &look); err != nil {
		return queryPhase{}, err
	}
	if !look.Stale || look.Snapshot.Epoch != 1 {
		return queryPhase{}, fmt.Errorf("degraded lookup = %+v, want stale answer from epoch 1", look)
	}
	var health serve.HealthResponse
	if err := c.get("GET", "/healthz", 200, &health); err != nil {
		return queryPhase{}, err
	}
	if !health.Stale {
		return queryPhase{}, fmt.Errorf("healthz = %+v, want stale", health)
	}
	var rep serve.ChurnReport
	if err := c.get("POST", "/v1/swap?path="+newPath, 200, &rep); err != nil {
		return queryPhase{}, err
	}
	look = serve.LookupResponse{}
	if err := c.get("GET", "/v1/domain?name=one.example", 200, &look); err != nil {
		return queryPhase{}, err
	}
	if look.Stale || look.Snapshot.Epoch != 2 {
		return queryPhase{}, fmt.Errorf("recovered lookup = %+v, want fresh answer from epoch 2", look)
	}
	st, err := awaitQueryStats(srv, serve.ServerStats{
		Accepted: 1, Requests: 5, Responses: 5, Lookups: 2, StaleServes: 1,
	})
	if err != nil {
		return queryPhase{}, err
	}
	ss := svc.Stats()
	if ss.SwapFails != 1 || ss.Swaps != 1 {
		return queryPhase{}, fmt.Errorf("service stats = %+v, want 1 fail then 1 swap", ss)
	}
	return queryPhase{
		Detail: fmt.Sprintf("failed swap served %d stale answers from old epoch, recovery swap cleared", st.StaleServes),
		Server: st, Lost: st.Lost(), Service: &ss, Churn: &rep,
	}, nil
}

// queryBenchDrain serves a burst of lookups then shuts down gracefully:
// every request read must have been answered.
func queryBenchDrain(oldPath, _ string) (queryPhase, error) {
	const lookups = 16
	n := netsim.New()
	svc, srv, closeSrv, err := startQueryPhase(n, "203.0.113.45:80", oldPath, serve.Config{})
	if err != nil {
		return queryPhase{}, err
	}
	defer closeSrv()
	c, err := dialQuery(n, "203.0.113.45:80")
	if err != nil {
		return queryPhase{}, err
	}
	defer c.conn.Close()

	names := []string{"one.example", "two.example", "three.example", "no-such.example"}
	for i := 0; i < lookups; i++ {
		if err := c.get("GET", "/v1/domain?name="+names[i%len(names)], 200, nil); err != nil {
			return queryPhase{}, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return queryPhase{}, fmt.Errorf("Shutdown: %w", err)
	}
	st, err := awaitQueryStats(srv, serve.ServerStats{
		Accepted: 1, Requests: lookups, Responses: lookups,
		Lookups: lookups, LookupMisses: lookups / 4, Drains: 1,
	})
	if err != nil {
		return queryPhase{}, err
	}
	ss := svc.Stats()
	if ss.State != serve.StateDraining.String() {
		return queryPhase{}, fmt.Errorf("service state %q after drain, want draining", ss.State)
	}
	return queryPhase{
		Detail: fmt.Sprintf("drained clean after %d lookups, %d lost", lookups, st.Lost()),
		Server: st, Lost: st.Lost(), Service: &ss,
	}, nil
}
