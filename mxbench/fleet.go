package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/ha"
	"mxmap/internal/serve"
	"mxmap/internal/world"
)

const (
	fleetReplicas = 2
	// opTimeout is the front and replica request deadline: a rollout
	// request spans every replica's swap, which at the benchmark's sizes
	// runs past serve.DefaultRequestTimeout. It is what an operator
	// passes as -request-timeout to mxserve and mxlb for rollouts.
	opTimeout    = 2 * time.Minute
	drainTimeout = 30 * time.Second
)

// fleet is the serving tier as cmd/mxserve and cmd/mxlb wire it: two
// serve.Server replicas, each over its own serve.Service, behind an
// ha.Balancer whose front is another serve.Server, all on loopback TCP.
type fleet struct {
	replicas  []*replica
	bal       *ha.Balancer
	front     *serve.Server
	frontAddr string
	frontErr  chan error

	runCancel context.CancelFunc
	runDone   chan struct{}

	// Probes installed for traced runs. handle records Balancer.Handle
	// latencies (and spans into tr) while tracing is set; swapStart
	// holds each replica's latest /v1/swap arrival in Unix nanoseconds.
	tr        *tracer
	tracing   atomic.Bool
	handle    durations
	swapStart [fleetReplicas]atomic.Int64
}

type replica struct {
	svc  *serve.Service
	srv  *serve.Server
	addr string
	errc chan error
}

type fleetOptions struct {
	allowSwap bool
	// probes installs the traced-run hooks: a wrapper around
	// Balancer.Handle, replica latency histograms and a replica Gate
	// that timestamps swap arrivals.
	probes bool
}

// startFleet brings up replicas and balancer with nothing loaded; the
// front answers as soon as it returns.
func startFleet(opts fleetOptions, tr *tracer) (*fleet, error) {
	f := &fleet{frontErr: make(chan error, 1), tr: tr}
	var reps []ha.ReplicaConfig
	for i := 0; i < fleetReplicas; i++ {
		svc := serve.NewService(core.ApproachPriority, serve.ServiceConfig{
			Infer:     inferConfig(),
			Directory: companies.Curated(),
		})
		cfg := serve.Config{Service: svc, AllowSwap: opts.allowSwap, RequestTimeout: opTimeout}
		if opts.probes {
			i := i
			cfg.Clock = time.Now
			cfg.Gate = func(p string) {
				if p == "/v1/swap" {
					f.swapStart[i].Store(time.Now().UnixNano())
				}
			}
		}
		srv, err := serve.NewServer(cfg)
		if err != nil {
			f.shutdown()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.shutdown()
			return nil, err
		}
		r := &replica{svc: svc, srv: srv, addr: ln.Addr().String(), errc: make(chan error, 1)}
		go func() { r.errc <- srv.Serve(ln) }()
		f.replicas = append(f.replicas, r)
		addr := r.addr
		reps = append(reps, ha.ReplicaConfig{
			Name: fmt.Sprintf("r%d", i),
			Addr: addr,
			Dial: func(ctx context.Context) (net.Conn, error) {
				return dialer.DialContext(ctx, "tcp", addr)
			},
		})
	}
	b, err := ha.New(ha.Config{Replicas: reps, AllowRollout: opts.allowSwap})
	if err != nil {
		f.shutdown()
		return nil, err
	}
	f.bal = b
	handler := b.Handle
	if opts.probes {
		handler = func(ctx context.Context, req *serve.Request) serve.Response {
			if !f.tracing.Load() {
				return b.Handle(ctx, req)
			}
			start := time.Now()
			resp := b.Handle(ctx, req)
			end := time.Now()
			f.handle.add(end.Sub(start))
			f.tr.add("ha.handle", -1, start, end)
			return resp
		}
	}
	front, err := serve.NewServer(serve.Config{
		Handler:        handler,
		RequestTimeout: opTimeout,
		Clock:          time.Now, // feeds the hedge threshold, as in mxlb
	})
	if err != nil {
		f.shutdown()
		return nil, err
	}
	b.AttachFront(front)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.shutdown()
		return nil, err
	}
	f.front, f.frontAddr = front, ln.Addr().String()
	go func() { f.frontErr <- front.Serve(ln) }()
	return f, nil
}

// load cold-loads path into every replica at once (each mxserve loads
// on its own), then runs the first probe round and starts the
// balancer's periodic probing, as mxlb does.
func (f *fleet) load(path string) error {
	errs := make([]error, len(f.replicas))
	var wg sync.WaitGroup
	for i, r := range f.replicas {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			_, errs[i] = r.svc.Load(path)
		}(i, r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.runCancel, f.runDone = cancel, make(chan struct{})
	if ready := f.bal.Pool().ProbeOnce(ctx); ready != len(f.replicas) {
		return fmt.Errorf("%d of %d replicas ready after load", ready, len(f.replicas))
	}
	go func() {
		defer close(f.runDone)
		f.bal.Run(ctx)
	}()
	return nil
}

// fleetTotals is what a drained fleet reports.
type fleetTotals struct {
	front    serve.ServerStats
	replicas []serve.ServerStats
	services []serve.ServiceStats
	balancer ha.BalancerStats
}

// shutdown drains the front, then every replica, stops probing and
// waits for every serving goroutine to exit.
func (f *fleet) shutdown() (fleetTotals, error) {
	var t fleetTotals
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if f.front != nil {
		errs = append(errs, f.front.Shutdown(ctx), <-f.frontErr)
		t.front = f.front.Stats()
	}
	if f.runCancel != nil {
		f.runCancel()
		<-f.runDone
	}
	for _, r := range f.replicas {
		errs = append(errs, r.srv.Shutdown(ctx), <-r.errc)
		t.replicas = append(t.replicas, r.srv.Stats())
		t.services = append(t.services, r.svc.Stats())
	}
	if f.bal != nil {
		t.balancer = f.bal.Stats()
	}
	return t, errors.Join(errs...)
}

// check verifies the zero-loss books of a drained fleet.
func (t fleetTotals) check(res *result) {
	if n := t.front.Lost(); n != 0 {
		res.problem("front lost %d requests", n)
	}
	for i, st := range t.replicas {
		if n := st.Lost(); n != 0 {
			res.problem("replica %d lost %d requests", i, n)
		}
	}
	if t.balancer.ProxyFails != 0 || t.balancer.DownSheds != 0 {
		res.problem("balancer proxy_fails=%d down_sheds=%d, want 0", t.balancer.ProxyFails, t.balancer.DownSheds)
	}
}

// replicaLatency merges every replica's per-endpoint histograms.
func (f *fleet) replicaLatency() serve.LatencyBuckets {
	var all serve.LatencyBuckets
	for _, r := range f.replicas {
		for _, el := range r.srv.LatencySnapshot() {
			for i, c := range el.Buckets {
				all[i] += c
			}
		}
	}
	return all
}

// flatSnapshot runs the mxscan -flat path at n domains: a two-worker
// fleet into shards, merged into path.
func flatSnapshot(seed uint64, n int, dir string) (*world.FlatWorld, string, error) {
	fw, err := world.NewFlatWorld(world.FlatConfig{Seed: seed, NumDomains: n})
	if err != nil {
		return nil, "", err
	}
	out := filepath.Join(dir, "a.jsonl.gz")
	set := dataset.NewShardSet(out, snapshotDate, fw.Cfg.Corpus)
	if _, err := collectFlat(fw, flatTargets(fw), set, fw.Resolver(), fw.Dialer()); err != nil {
		return nil, "", err
	}
	if _, err := dataset.Merge(out, set.Paths()); err != nil {
		return nil, "", err
	}
	return fw, out, set.Remove()
}

// expectedAnswers infers path in memory, exactly as mxmap would, and
// returns each domain's primary provider and credits.
func expectedAnswers(path string) (map[string]core.DomainAttribution, error) {
	snap, err := dataset.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := core.Infer(snap, core.ApproachPriority, inferConfig())
	out := make(map[string]core.DomainAttribution, len(res.Domains))
	for _, att := range res.Domains {
		out[att.Domain] = att
	}
	return out, nil
}

// durations is a concurrency-safe latency sample.
type durations struct {
	mu sync.Mutex
	xs []float64 // microseconds
}

func (d *durations) add(v time.Duration) {
	d.mu.Lock()
	d.xs = append(d.xs, float64(v)/float64(time.Microsecond))
	d.mu.Unlock()
}

func (d *durations) quantile(q float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return quantile(d.xs, q)
}
