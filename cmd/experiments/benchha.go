package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/ha"
	"mxmap/internal/netsim"
	"mxmap/internal/serve"
)

// runHABench drives the high-availability tier through five
// deterministic phases — fleet forwarding, the frozen-clock
// eject/re-probe/recover schedule, tail-latency hedging, the graceful
// degradation ladder, and a rolling zero-loss snapshot rollout plus its
// abort path — and writes the exact counters to BENCH_ha.json in
// outDir. Fleets run in-process over the lossless fabric, schedules on
// a frozen clock with recorded zero jitter, and replica service clocks
// are stepped, so every field — balancer ledger, jitter bounds, swap
// latencies — is byte-for-byte reproducible across runs; any deviation
// is an error, not noise.
func runHABench(outDir string) error {
	fmt.Println("high-availability tier phases (exact counters)")
	dir, err := os.MkdirTemp("", "benchha")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	oldPath, newPath, err := writeQueryWorlds(dir)
	if err != nil {
		return err
	}

	var results []haPhase
	for _, phase := range []struct {
		name string
		run  func(oldPath, newPath string) (haPhase, error)
	}{
		{"fleet_forwarding", haBenchForwarding},
		{"eject_reprobe_recover", haBenchReprobeSchedule},
		{"hedge_tail_latency", haBenchHedge},
		{"degradation_ladder", haBenchLadder},
		{"rolling_rollout", haBenchRollout},
	} {
		p, err := phase.run(oldPath, newPath)
		if err != nil {
			return fmt.Errorf("%s: %w", phase.name, err)
		}
		p.Phase = phase.name
		results = append(results, p)
		fmt.Printf("%-22s %s\n", p.Phase, p.Detail)
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	path := filepath.Join(outDir, "BENCH_ha.json")
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

// haPhase is one phase's entry in BENCH_ha.json: the balancer's whole
// exact counter ledger plus whatever the phase exercised — front server
// counters, the recorded re-probe jitter bounds, or a rollout report.
type haPhase struct {
	Phase    string             `json:"phase"`
	Detail   string             `json:"detail"`
	Balancer ha.BalancerStats   `json:"balancer"`
	Front    *serve.ServerStats `json:"front,omitempty"`
	// JitterBounds records every bound the re-probe schedule handed the
	// jitter source, pinning the exponential curve exactly.
	JitterBounds []int64 `json:"jitter_bounds,omitempty"`
	// Rollouts carries the reports from the rolling-rollout phase (the
	// clean roll and the aborted one).
	Rollouts []*ha.RolloutReport `json:"rollouts,omitempty"`
}

// haBenchAddr numbers the fleet's fabric addresses; the front is last.
func haBenchAddr(i int) string { return "10.1.0." + strconv.Itoa(i+1) + ":80" }

const haFrontAddr = "203.0.113.50:80"

// haFleet is one in-process balanced fleet for a bench phase.
type haFleet struct {
	n     *netsim.Network
	svcs  []*serve.Service
	srvs  []*serve.Server
	b     *ha.Balancer
	front *serve.Server
	stops []func() error
}

// close tears the fleet down in reverse start order. Idempotent: the
// deferred safety-net close after an explicit one is a no-op.
func (f *haFleet) close() error {
	stops := f.stops
	f.stops = nil
	var firstErr error
	for i := len(stops) - 1; i >= 0; i-- {
		if err := stops[i](); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// startHAServer runs one serve.Server on the fleet's fabric.
func (f *haFleet) startHAServer(addr string, cfg serve.Config) (*serve.Server, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := f.n.Listen(netip.MustParseAddrPort(addr))
	if err != nil {
		return nil, err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	f.stops = append(f.stops, func() error {
		srv.Close()
		if err := <-errc; err != nil {
			return fmt.Errorf("serve loop %s: %w", addr, err)
		}
		return nil
	})
	return srv, nil
}

// newHAFleet starts size swap-enabled replicas serving path, a balancer
// over them from cfg (Replicas is filled in), and the front server, and
// admits the fleet with one probe round. Each replica's service reads a
// stepped clock so swap latencies are exact.
func newHAFleet(size int, path string, cfg ha.Config, repCfg serve.Config) (*haFleet, error) {
	f := &haFleet{n: netsim.New()}
	for i := 0; i < size; i++ {
		svc := serve.NewService(core.ApproachMXOnly, serve.ServiceConfig{Now: steppedQueryClock()})
		if path != "" {
			if _, err := svc.Load(path); err != nil {
				return nil, err
			}
		}
		rc := repCfg
		rc.Service = svc
		rc.AllowSwap = true
		srv, err := f.startHAServer(haBenchAddr(i), rc)
		if err != nil {
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		f.srvs = append(f.srvs, srv)
		addr := haBenchAddr(i)
		ap := netip.MustParseAddrPort(addr)
		cfg.Replicas = append(cfg.Replicas, ha.ReplicaConfig{
			Name: "r" + strconv.Itoa(i),
			Addr: addr,
			Dial: func(ctx context.Context) (net.Conn, error) { return f.n.Dial(ctx, ap) },
		})
	}
	b, err := ha.New(cfg)
	if err != nil {
		return nil, err
	}
	f.b = b
	front, err := f.startHAServer(haFrontAddr, serve.Config{Handler: b.Handle})
	if err != nil {
		return nil, err
	}
	f.front = front
	b.AttachFront(front)
	b.Pool().ProbeOnce(context.Background())
	return f, nil
}

// awaitHAStats polls until the balancer's ledger equals want exactly.
func awaitHAStats(b *ha.Balancer, want ha.BalancerStats) (ha.BalancerStats, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := b.Stats()
		if st == want {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("balancer ledger stuck at %+v, want %+v", st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitFrontStats polls until the front server's counters equal want.
func awaitFrontStats(srv *serve.Server, want serve.ServerStats) (serve.ServerStats, error) {
	return awaitQueryStats(srv, want)
}

// haBenchForwarding round-robins lookups across a three-replica fleet
// and balances the whole ledger: one attempt per request, one lookup
// per replica, control-plane answers never touching the fleet.
func haBenchForwarding(oldPath, _ string) (haPhase, error) {
	f, err := newHAFleet(3, oldPath, ha.Config{HedgeDelay: -1}, serve.Config{})
	if err != nil {
		return haPhase{}, err
	}
	defer f.close()
	c, err := dialQuery(f.n, haFrontAddr)
	if err != nil {
		return haPhase{}, err
	}
	defer c.conn.Close()

	var health ha.FleetHealth
	if err := c.get("GET", "/healthz", 200, &health); err != nil {
		return haPhase{}, err
	}
	if health.State != "serving" || health.ReadyReplicas != 3 {
		return haPhase{}, fmt.Errorf("healthz = %+v, want 3 serving", health)
	}
	if err := c.get("GET", "/readyz", 200, nil); err != nil {
		return haPhase{}, err
	}
	for i := 0; i < 3; i++ {
		var look serve.LookupResponse
		if err := c.get("GET", "/v1/domain?name=one.example", 200, &look); err != nil {
			return haPhase{}, err
		}
		if !look.Found || look.Primary != "prov-a.net" {
			return haPhase{}, fmt.Errorf("lookup %d = %+v", i, look)
		}
	}
	for i, srv := range f.srvs {
		if l := srv.Stats().Lookups; l != 1 {
			return haPhase{}, fmt.Errorf("replica %d served %d lookups, want 1 (round-robin)", i, l)
		}
	}
	st, err := awaitHAStats(f.b, ha.BalancerStats{Requests: 3, Attempts: 3, Probes: 3})
	if err != nil {
		return haPhase{}, err
	}
	front, err := awaitFrontStats(f.front, serve.ServerStats{
		Accepted: 1, Requests: 5, Responses: 5,
	})
	if err != nil {
		return haPhase{}, err
	}
	if err := f.close(); err != nil {
		return haPhase{}, err
	}
	return haPhase{
		Detail:   "3 lookups round-robined 1/1/1 across the fleet, control plane answered locally",
		Balancer: st, Front: &front,
	}, nil
}

// haBenchReprobeSchedule runs the eject / re-probe / recover state
// machine on a frozen clock with recorded zero jitter: every interval
// boundary, counter, and jitter bound lands exactly where the
// overload.Delay curve says.
func haBenchReprobeSchedule(oldPath, _ string) (haPhase, error) {
	f := &haFleet{n: netsim.New()}
	svc := serve.NewService(core.ApproachMXOnly, serve.ServiceConfig{})
	if _, err := svc.Load(oldPath); err != nil {
		return haPhase{}, err
	}
	if _, err := f.startHAServer(haBenchAddr(0), serve.Config{Service: svc}); err != nil {
		return haPhase{}, err
	}
	defer f.close()

	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	var bounds []int64
	jitter := func(b int64) int64 { bounds = append(bounds, b); return 0 }

	// The replica is dead until the switch flips, after which its dialer
	// reaches the real backend.
	up := false
	ap := netip.MustParseAddrPort(haBenchAddr(0))
	dial := func(ctx context.Context) (net.Conn, error) {
		mu.Lock()
		alive := up
		mu.Unlock()
		if !alive {
			return nil, errors.New("connection refused")
		}
		return f.n.Dial(ctx, ap)
	}
	pool, err := ha.NewPool(ha.Config{
		Replicas:       []ha.ReplicaConfig{{Name: "flaky", Dial: dial}},
		ProbeInterval:  time.Second,
		ReprobeBase:    250 * time.Millisecond,
		ReprobeMax:     2 * time.Second,
		EjectThreshold: 3,
		Now:            clock,
		Jitter:         jitter,
	})
	if err != nil {
		return haPhase{}, err
	}
	ctx := context.Background()
	step := func(d time.Duration, wantProbed int, label string) error {
		advance(d)
		if got := pool.ProbeOnce(ctx); got != wantProbed {
			return fmt.Errorf("%s: probed %d replicas, want %d", label, got, wantProbed)
		}
		return nil
	}

	// Three failed rounds on the regular cadence trip the breaker; the
	// re-probe schedule then doubles 125ms, 250ms, 500ms, 1s, capped at
	// ReprobeMax/2 = 1s; recovery resets the streak and the curve.
	for _, s := range []struct {
		d    time.Duration
		want int
		name string
	}{
		{0, 1, "first probe"},
		{0, 0, "same instant not due"},
		{time.Second, 1, "second probe"},
		{time.Second, 1, "third probe ejects"},
		{100 * time.Millisecond, 0, "before first re-probe"},
		{25 * time.Millisecond, 1, "first re-probe at 125ms"},
		{250 * time.Millisecond, 1, "second re-probe at 250ms"},
		{500 * time.Millisecond, 1, "third re-probe at 500ms"},
		{time.Second, 1, "fourth re-probe at 1s"},
		{999 * time.Millisecond, 0, "capped interval holds"},
		{time.Millisecond, 1, "fifth re-probe at the cap"},
	} {
		if err := step(s.d, s.want, s.name); err != nil {
			return haPhase{}, err
		}
	}
	mu.Lock()
	up = true
	mu.Unlock()
	if err := step(time.Second, 1, "recovery re-probe"); err != nil {
		return haPhase{}, err
	}
	if info := pool.Replicas()[0]; info.State != "healthy" || !info.Ready {
		return haPhase{}, fmt.Errorf("recovered replica = %+v, want healthy and ready", info)
	}

	ms := int64(time.Millisecond)
	wantBounds := []int64{125*ms + 1, 250*ms + 1, 500*ms + 1, 1000*ms + 1, 1000*ms + 1, 1000*ms + 1}
	if len(bounds) != len(wantBounds) {
		return haPhase{}, fmt.Errorf("jitter bounds = %v, want %v", bounds, wantBounds)
	}
	for i := range bounds {
		if bounds[i] != wantBounds[i] {
			return haPhase{}, fmt.Errorf("jitter bound %d = %d, want %d", i, bounds[i], wantBounds[i])
		}
	}
	if err := f.close(); err != nil {
		return haPhase{}, err
	}
	return haPhase{
		Detail:       "ejected after 3 fails, re-probed on the 125ms-doubling curve capped at 1s, recovered",
		Balancer:     pool.Stats(),
		JitterBounds: bounds,
	}, nil
}

// haBenchHedge wedges one replica on data queries and proves the
// tail-latency hedge wins the answer from the other: one request, two
// attempts, one hedge, one hedge win, zero lost anywhere.
func haBenchHedge(oldPath, _ string) (haPhase, error) {
	f := &haFleet{n: netsim.New()}
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		svc := serve.NewService(core.ApproachMXOnly, serve.ServiceConfig{})
		if _, err := svc.Load(oldPath); err != nil {
			return haPhase{}, err
		}
		cfg := serve.Config{Service: svc}
		if i == 0 {
			cfg.Gate = func(path string) {
				if path == "/v1/domain" {
					<-release
				}
			}
		}
		srv, err := f.startHAServer(haBenchAddr(i), cfg)
		if err != nil {
			return haPhase{}, err
		}
		f.srvs = append(f.srvs, srv)
	}
	defer f.close()

	var reps []ha.ReplicaConfig
	for i := 0; i < 2; i++ {
		ap := netip.MustParseAddrPort(haBenchAddr(i))
		reps = append(reps, ha.ReplicaConfig{
			Name: "r" + strconv.Itoa(i),
			Dial: func(ctx context.Context) (net.Conn, error) { return f.n.Dial(ctx, ap) },
		})
	}
	b, err := ha.New(ha.Config{Replicas: reps, HedgeDelay: 5 * time.Millisecond})
	if err != nil {
		return haPhase{}, err
	}
	front, err := f.startHAServer(haFrontAddr, serve.Config{Handler: b.Handle})
	if err != nil {
		return haPhase{}, err
	}
	b.AttachFront(front)
	b.Pool().ProbeOnce(context.Background())

	c, err := dialQuery(f.n, haFrontAddr)
	if err != nil {
		return haPhase{}, err
	}
	defer c.conn.Close()
	var look serve.LookupResponse
	if err := c.get("GET", "/v1/domain?name=one.example", 200, &look); err != nil {
		return haPhase{}, err
	}
	if !look.Found || look.Primary != "prov-a.net" {
		return haPhase{}, fmt.Errorf("hedged lookup = %+v", look)
	}
	st, err := awaitHAStats(b, ha.BalancerStats{
		Requests: 1, Attempts: 2, Hedges: 1, HedgeWins: 1, Probes: 2,
	})
	if err != nil {
		return haPhase{}, err
	}
	if hw := f.srvs[1].Stats().Lookups; hw != 1 {
		return haPhase{}, fmt.Errorf("hedge target served %d lookups, want 1", hw)
	}
	// Unwedge the abandoned attempt so every server's books settle.
	close(release)
	for _, srv := range append(f.srvs, front) {
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().Lost() != 0 {
			if time.Now().After(deadline) {
				return haPhase{}, fmt.Errorf("requests stayed in flight: %+v", srv.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := f.close(); err != nil {
		return haPhase{}, err
	}
	return haPhase{
		Detail:   "wedged replica out-waited: hedge launched at 5ms and won from the other replica",
		Balancer: st,
	}, nil
}

// haBenchLadder walks the degradation ladder: all replicas stale still
// serves (markers intact, StaleForwards exact), all replicas down sheds
// 503 + Retry-After with exact accounting.
func haBenchLadder(oldPath, _ string) (haPhase, error) {
	f, err := newHAFleet(2, oldPath, ha.Config{
		HedgeDelay: -1, EjectThreshold: 1, ProbeInterval: time.Millisecond,
	}, serve.Config{})
	if err != nil {
		return haPhase{}, err
	}
	defer f.close()

	// Rung 1: a failed replica-side swap leaves every replica stale.
	for i := range f.srvs {
		rc, err := dialQuery(f.n, haBenchAddr(i))
		if err != nil {
			return haPhase{}, err
		}
		if err := rc.get("POST", "/v1/swap?path=/nonexistent.jsonl", 500, nil); err != nil {
			rc.conn.Close()
			return haPhase{}, err
		}
		rc.conn.Close()
	}
	time.Sleep(5 * time.Millisecond) // past the probe interval: fleet is due
	f.b.Pool().ProbeOnce(context.Background())

	c, err := dialQuery(f.n, haFrontAddr)
	if err != nil {
		return haPhase{}, err
	}
	defer c.conn.Close()
	var health ha.FleetHealth
	if err := c.get("GET", "/healthz", 200, &health); err != nil {
		return haPhase{}, err
	}
	if health.State != "degraded" || health.StaleReplicas != 2 {
		return haPhase{}, fmt.Errorf("healthz = %+v, want degraded with 2 stale", health)
	}
	var look serve.LookupResponse
	if err := c.get("GET", "/v1/domain?name=one.example", 200, &look); err != nil {
		return haPhase{}, err
	}
	if !look.Found || !look.Stale {
		return haPhase{}, fmt.Errorf("degraded lookup = %+v, want stale marker", look)
	}

	// Rung 2: the whole fleet dies; the first request burns through both
	// replicas and relays the failure, the next sheds without a wire
	// touch.
	for _, srv := range f.srvs {
		srv.Close()
	}
	if err := c.get("GET", "/v1/domain?name=one.example", 502, nil); err != nil {
		return haPhase{}, err
	}
	if err := c.send("GET", "/v1/domain?name=one.example"); err != nil {
		return haPhase{}, err
	}
	status, _, err := c.read()
	if err != nil {
		return haPhase{}, err
	}
	if status != 503 {
		return haPhase{}, fmt.Errorf("shed status = %d, want 503", status)
	}
	if err := c.get("GET", "/healthz", 200, &health); err != nil {
		return haPhase{}, err
	}
	if health.State != "down" || health.EjectedReplicas != 2 {
		return haPhase{}, fmt.Errorf("healthz = %+v, want down with 2 ejected", health)
	}
	st, err := awaitHAStats(f.b, ha.BalancerStats{
		Requests: 3, Attempts: 3, Retries: 1, UpstreamErrs: 2,
		StaleForwards: 3, DownSheds: 1, ProxyFails: 1,
		Probes: 4, Ejections: 2,
	})
	if err != nil {
		return haPhase{}, err
	}
	return haPhase{
		Detail:   "all-stale still served with markers; all-down shed 503+Retry-After, 2 ejected",
		Balancer: st,
	}, nil
}

// haBenchRollout rolls the fleet from the old snapshot to the new one
// replica by replica (each verified on the new epoch before the next
// advances), then aborts a second rollout against a missing snapshot
// and proves the fleet kept the new epoch.
func haBenchRollout(oldPath, newPath string) (haPhase, error) {
	f, err := newHAFleet(3, oldPath, ha.Config{HedgeDelay: -1, AllowRollout: true}, serve.Config{})
	if err != nil {
		return haPhase{}, err
	}
	defer f.close()
	c, err := dialQuery(f.n, haFrontAddr)
	if err != nil {
		return haPhase{}, err
	}
	defer c.conn.Close()

	var look serve.LookupResponse
	if err := c.get("GET", "/v1/domain?name=two.example", 200, &look); err != nil {
		return haPhase{}, err
	}
	if look.Primary != "prov-a.net" || look.Snapshot.Epoch != 1 {
		return haPhase{}, fmt.Errorf("pre-roll lookup = %+v, want prov-a.net at epoch 1", look)
	}

	rep, err := f.b.Rollout(context.Background(), newPath, oldPath)
	if err != nil {
		return haPhase{}, err
	}
	if !rep.Completed || len(rep.Replicas) != 3 {
		return haPhase{}, fmt.Errorf("rollout = %+v, want clean 3-replica completion", rep)
	}
	for i, rr := range rep.Replicas {
		if rr.FromEpoch != 1 || rr.ToEpoch != 2 || rr.Reused != 0 || rr.Reinferred != 4 ||
			rr.SwapLatencyNS != queryBenchStep.Nanoseconds() {
			return haPhase{}, fmt.Errorf("replica %d rollout = %+v, want epoch 1->2 inferring 4 at one clock step", i, rr)
		}
	}
	look = serve.LookupResponse{}
	if err := c.get("GET", "/v1/domain?name=two.example", 200, &look); err != nil {
		return haPhase{}, err
	}
	if look.Primary != "prov-b.net" || look.Snapshot.Epoch != 2 || look.Stale {
		return haPhase{}, fmt.Errorf("post-roll lookup = %+v, want prov-b.net at epoch 2", look)
	}

	// The abort path: a rollout against a missing file halts at the
	// first replica (Rollout surfaces the abort as an error alongside
	// the report); the fleet keeps answering from the epoch it has.
	abort, aerr := f.b.Rollout(context.Background(), newPath+".does-not-exist", newPath)
	if aerr == nil {
		return haPhase{}, fmt.Errorf("bad-path rollout completed: %+v", abort)
	}
	if abort == nil || abort.Completed || abort.Aborted == "" {
		return haPhase{}, fmt.Errorf("bad-path rollout report = %+v, want abort recorded", abort)
	}
	look = serve.LookupResponse{}
	if err := c.get("GET", "/v1/domain?name=two.example", 200, &look); err != nil {
		return haPhase{}, err
	}
	if look.Primary != "prov-b.net" || look.Snapshot.Epoch != 2 {
		return haPhase{}, fmt.Errorf("post-abort lookup = %+v, want the rolled epoch intact", look)
	}
	// The abort record embeds the run's temp dir; normalize it so the
	// baseline file stays byte-identical across runs.
	abort.Aborted = strings.ReplaceAll(abort.Aborted, filepath.Dir(newPath), "$DIR")

	st := f.b.Stats()
	if st.Rollouts != 2 || st.RolloutSwaps != 3 || st.RolloutAborts != 1 {
		return haPhase{}, fmt.Errorf("balancer ledger = %+v, want 2 rollouts, 3 swaps, 1 abort", st)
	}
	front, err := awaitFrontStats(f.front, serve.ServerStats{
		Accepted: 1, Requests: 3, Responses: 3,
	})
	if err != nil {
		return haPhase{}, err
	}
	if err := f.close(); err != nil {
		return haPhase{}, err
	}
	return haPhase{
		Detail: fmt.Sprintf("rolled 3 replicas epoch 1->2 (each inferring 4 domains, swap %v); bad-path rollout aborted clean",
			queryBenchStep),
		Balancer: st, Front: &front,
		Rollouts: []*ha.RolloutReport{rep, abort},
	}, nil
}
