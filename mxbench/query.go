package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/serve"
	"mxmap/internal/world"
)

const (
	queryDomains     = 50_000
	queryTinyDomains = 2_000
	// queryRate is the open-loop arrival rate through the balancer:
	// roughly a third of the 9–12k req/s two closed-loop connections
	// sustain on the reference machine, so queues stay short but not
	// empty and the median stays clear of the collector's pauses.
	queryRate = 3000.0
	// clientConns bounds the load generator: one connection (and one
	// goroutine) per CPU of the reference machine.
	clientConns = 2
	// openShare is the part of a run spent in the open-loop phase; the
	// rest measures closed-loop throughput.
	openShare   = 0.6
	checkSample = 200
	// lateLimitMS invalidates a run whose generator fell behind: above
	// it, latencies measure the generator, not the system. The generator
	// shares the CPUs with the fleet, so a swap that saturates them
	// delays it too; the limit leaves room for that and no more.
	lateLimitMS = 25.0
)

// servingSetup is one set-up of a serving workload: snapshot A
// collected through the flat path, and a fleet serving it.
type servingSetup struct {
	fw    *world.FlatWorld
	pathA string
	fleet *fleet
	// genS and loadS split the set-up time: input generation, and fleet
	// start plus cold load.
	genS, loadS float64
	// bytesPerDomain is the replicas' live heap per domain, measured
	// only when asked (it forces collections).
	bytesPerDomain float64
}

// setUpServing collects snapshot A at n domains into dir, runs prepare
// (untimed; the rollout workload derives snapshot B there), starts a
// fleet and cold-loads A into it.
func setUpServing(cfg runConfig, n int, dir string, opts fleetOptions, measureHeap bool, prepare func(*servingSetup) error) (*servingSetup, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &servingSetup{}
	var err error
	s.genS = cfg.Tracer.timed("setup.snapshot", -1, func() { s.fw, s.pathA, err = flatSnapshot(cfg.Seed, n, dir) })
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		if err := prepare(s); err != nil {
			return nil, err
		}
	}
	var h0 uint64
	if measureHeap {
		h0 = liveHeapBytes()
	}
	s.loadS = cfg.Tracer.timed("serve.load", -1, func() {
		if s.fleet, err = startFleet(opts, cfg.Tracer); err == nil {
			if err = s.fleet.load(s.pathA); err != nil {
				s.fleet.shutdown()
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if measureHeap {
		s.bytesPerDomain = float64(liveHeapBytes()-h0) / float64(n*fleetReplicas)
	}
	return s, nil
}

// runQuery is the read path: two replicas hold a snapshot behind the
// balancer; a seeded open loop at a fixed rate measures latency, then a
// closed loop on the same two connections measures throughput.
func runQuery(ctx context.Context, cfg runConfig) (*result, error) {
	n := queryDomains
	if cfg.Tiny {
		n = queryTinyDomains
	}
	res := newResult()
	res.Sizes["domains"] = n
	res.Sizes["replicas"] = fleetReplicas
	res.Sizes["client_conns"] = clientConns
	res.Sizes["open_loop_rate"] = queryRate

	var (
		s      *servingSetup
		setups []float64
		err    error
	)
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if _, err := s.fleet.shutdown(); err != nil {
				return nil, err
			}
		}
		last := i == setupRepeats-1
		s, err = setUpServing(cfg, n, filepath.Join(cfg.WorkDir, fmt.Sprintf("setup%d", i)),
			fleetOptions{probes: cfg.Trace}, cfg.Trace && last, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.genS+s.loadS)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = s.fw.DomainName(i)
	}
	expected, err := expectedAnswers(s.pathA)
	if err != nil {
		return nil, err
	}
	openD := time.Duration(cfg.Seconds * openShare * float64(time.Second))
	closedD := time.Duration(cfg.Seconds * (1 - openShare) * float64(time.Second))
	plan := schedule(newMix(cfg.Seed, 1, names), queryRate, openD)
	closedMixes := []*mix{newMix(cfg.Seed, 2, names), newMix(cfg.Seed, 3, names)}

	// Warm the connections, caches and the hedge histogram.
	warm, _ := closedLoop(s.fleet.frontAddr, clientConns, []*mix{newMix(cfg.Seed, 4, names), newMix(cfg.Seed, 5, names)}, 300*time.Millisecond)
	tally(res, warm)

	if cfg.Trace {
		if err := traceQuery(cfg, s, openD, names, expected, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	var heap heapPeak
	open := openLoop(s.fleet.frontAddr, clientConns, plan, nil)
	closed, rps := closedLoop(s.fleet.frontAddr, clientConns, closedMixes, closedD)
	heap.checkpoint()
	peak := heap.mib()
	tally(res, open)
	tally(res, closed)
	checkAnswers(s.fleet.frontAddr, cfg.Seed, names, expected, res)
	totals, err := s.fleet.shutdown()
	if err != nil {
		return nil, err
	}
	totals.check(res)
	checkLate(open, res)

	res.EndToEnd["setup_s"] = metric{median(setups), "s"}
	res.EndToEnd["heap_peak_mib"] = metric{peak, "MiB"}
	res.EndToEnd["op_p50_ms"] = metric{quantile(open.latMS, 0.50), "ms"}
	res.EndToEnd["op_tail_ms"] = metric{open.windowed(0.99), "ms"}
	res.EndToEnd["throughput_per_s"] = metric{rps, "1/s"}
	res.Named["setup_s"] = res.EndToEnd["setup_s"]
	res.Named["heap_peak_mib"] = res.EndToEnd["heap_peak_mib"]
	res.Named["query_p50_ms"] = res.EndToEnd["op_p50_ms"]
	res.Named["query_p99_ms"] = res.EndToEnd["op_tail_ms"]
	res.Named["query_rps"] = res.EndToEnd["throughput_per_s"]
	res.Named["loadgen_late_p99_ms"] = metric{quantile(open.lateMS, 0.99), "ms"}
	res.Named["fail_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	return res, nil
}

// tally adds one load phase's requests to the result.
func tally(res *result, st *loadStats) {
	res.Attempted += st.ok + st.failed
	res.Failed += st.failed
	if st.failed > 0 {
		res.problem("%d of %d requests failed (first: %s)", st.failed, st.ok+st.failed, st.firstErr)
	}
}

// traceQuery runs the open loop twice on the probed fleet, first with
// tracing off and then on, and reports the per-layer metrics and the
// tracing overhead (the difference of the two phases' median latency).
func traceQuery(cfg runConfig, s *servingSetup, d time.Duration, names []string, expected map[string]core.DomainAttribution, res *result) error {
	f := s.fleet
	half := d / 2
	untraced := openLoop(f.frontAddr, clientConns, schedule(newMix(cfg.Seed, 1, names), queryRate, half), nil)
	tally(res, untraced)
	f.tracing.Store(true)
	phase := cfg.Tracer.open("loadgen.open_loop", -1)
	open := openLoop(f.frontAddr, clientConns, schedule(newMix(cfg.Seed, 2, names), queryRate, half), nil)
	cfg.Tracer.close(phase)
	f.tracing.Store(false)
	tally(res, open)
	checkAnswers(f.frontAddr, cfg.Seed, names, expected, res)
	totals, err := f.shutdown()
	if err != nil {
		return err
	}
	totals.check(res)
	checkLate(untraced, res)
	checkLate(open, res)

	var accepted, requests, lookups, misses uint64
	for _, st := range totals.replicas {
		accepted += st.Accepted
		requests += st.Requests
		lookups += st.Lookups
		misses += st.LookupMisses
	}
	b := totals.balancer
	res.setLayer("ha.handle_p50_us", f.handle.quantile(0.50))
	res.setLayer("ha.handle_p99_us", f.handle.quantile(0.99))
	res.setLayer("ha.attempts_per_req", ratio(b.Attempts, b.Requests))
	res.setLayer("ha.hedges", float64(b.Hedges))
	res.setLayer("ha.hedge_win_ratio", ratio(b.HedgeWins, b.Hedges))
	res.setLayer("ha.upstream_conns_per_req", ratio(accepted, requests))
	res.setLayer("serve.front_queued", float64(totals.front.Queued))
	res.setLayer("serve.front_shed", float64(totals.front.Shed))
	buckets := f.replicaLatency()
	p50, _ := buckets.Quantile(0.50)
	p99, _ := buckets.Quantile(0.99)
	res.setLayer("serve.replica_p50_us", float64(p50)/float64(time.Microsecond))
	res.setLayer("serve.replica_p99_us", float64(p99)/float64(time.Microsecond))
	res.setLayer("serve.bytes_per_domain", s.bytesPerDomain)
	res.setLayer("serve.lookup_miss_ratio", ratio(misses, lookups))
	res.setLayer("serve.load_s", s.loadS)
	res.setLayer("loadgen.late_p99_ms", quantile(open.lateMS, 0.99))
	res.setLayer("trace.overhead_ms", quantile(open.latMS, 0.5)-quantile(untraced.latMS, 0.5))
	// Coverage: the share of client-observed request time spent inside
	// Balancer.Handle.
	var inHandle, total float64
	for _, v := range f.handle.xs {
		inHandle += v / 1e3
	}
	for _, v := range open.latMS {
		total += v
	}
	res.setLayer("trace.coverage", inHandle/total)
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func checkLate(open *loadStats, res *result) {
	if late := quantile(open.lateMS, 0.99); late > lateLimitMS {
		res.problem("load generator ran late: p99 %.2f ms > %.0f ms limit; run invalid", late, lateLimitMS)
	}
}

// checkAnswers queries a seeded sample of names (and a few unknown
// ones) through the balancer and compares every answer with the
// in-memory inference of the same snapshot.
func checkAnswers(addr string, seed uint64, names []string, expected map[string]core.DomainAttribution, res *result) {
	rng := rand.New(rand.NewPCG(seed, 6))
	cl := newClient(addr)
	defer cl.close()
	bad := 0
	for i := 0; i < checkSample; i++ {
		name := names[rng.IntN(len(names))]
		if i%20 == 0 {
			name = fmt.Sprintf("unknown-%d.invalid", i)
		}
		got, err := lookup(cl, name)
		if err != nil {
			res.problem("check lookup %s: %v", name, err)
			return
		}
		if !answerMatches(got, expected, name) {
			bad++
			if bad == 1 {
				res.problem("answer for %s differs from core.Infer: %+v", name, got)
			}
		}
	}
	if bad > 0 {
		res.problem("%d of %d sampled answers differ from core.Infer", bad, checkSample)
	}
}

func answerMatches(got serve.LookupResponse, expected map[string]core.DomainAttribution, name string) bool {
	want, ok := expected[name]
	if got.Found != ok {
		return false
	}
	if !ok {
		return true
	}
	credits := want.Credits
	if len(credits) == 0 {
		credits = nil
	}
	gotCredits := got.Credits
	if len(gotCredits) == 0 {
		gotCredits = nil
	}
	return got.Primary == want.Primary() && reflect.DeepEqual(gotCredits, credits) &&
		got.Untrusted == want.Untrusted && got.HasSMTP == want.HasSMTP
}

func lookup(cl *client, name string) (serve.LookupResponse, error) {
	var out serve.LookupResponse
	status, body, err := cl.do("GET", "/v1/domain?name="+url.QueryEscape(name))
	if err != nil {
		return out, err
	}
	if status != 200 {
		return out, fmt.Errorf("HTTP %d: %s", status, body)
	}
	return out, json.Unmarshal(body, &out)
}
