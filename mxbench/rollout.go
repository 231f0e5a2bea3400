package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"path/filepath"
	"strings"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/ha"
)

const (
	rolloutDomains     = 20_000
	rolloutTinyDomains = 2_000
	// rolloutQueryRate is the background read stream's open-loop rate,
	// on one connection; the rollout requests use the other.
	rolloutQueryRate = 800.0
	// Snapshot B is A with movePercent of domains moved to another
	// provider's existing exchanges, churnPercent removed and
	// churnPercent added.
	movePercent  = 5.0
	churnPercent = 0.5
	churnSample  = 60
)

// churn is what snapshot B changed relative to A.
type churn struct {
	moved, removed, added []string
}

// runRollout puts writes beside reads on the serving tier: a cold fleet
// loads snapshot A, then POST /v1/rollout alternates A→B and B→A while
// a low-rate open-loop query stream keeps running through the balancer.
func runRollout(ctx context.Context, cfg runConfig) (*result, error) {
	n := rolloutDomains
	if cfg.Tiny {
		n = rolloutTinyDomains
	}
	res := newResult()
	res.Sizes["domains"] = n
	res.Sizes["replicas"] = fleetReplicas
	res.Sizes["moved_percent"] = movePercent
	res.Sizes["churn_percent"] = churnPercent
	res.Sizes["query_rate"] = rolloutQueryRate

	var (
		s             *servingSetup
		pathB         string
		ch            *churn
		setups, loads []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if _, err := s.fleet.shutdown(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("setup%d", i))
		var err error
		s, err = setUpServing(cfg, n, dir, fleetOptions{allowSwap: true, probes: cfg.Trace}, false, func(s *servingSetup) error {
			pathB = filepath.Join(dir, "b.jsonl.gz")
			ch, err = deriveB(s.pathA, pathB, cfg.Seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.genS+s.loadS)
		loads = append(loads, s.loadS)
	}
	f := s.fleet
	expected := make(map[string]map[string]core.DomainAttribution)
	for _, p := range []string{s.pathA, pathB} {
		exp, err := expectedAnswers(p)
		if err != nil {
			return nil, err
		}
		expected[p] = exp
	}
	sample := churnSampleNames(ch, cfg.Seed)
	names := make([]string, n)
	for i := range names {
		names[i] = s.fw.DomainName(i)
	}

	// Background reads for the whole measured phase; stop ends them.
	stop := make(chan struct{})
	streamDone := make(chan *loadStats, 1)
	plan := schedule(newMix(cfg.Seed, 7, names), rolloutQueryRate, time.Duration(cfg.Seconds*4+60)*time.Second)
	go func() { streamDone <- openLoop(f.frontAddr, 1, plan, stop) }()

	var (
		rollouts, swaps, verifies, reused, reinferred []float64
		traced, covered                               []float64
	)
	cl := newClient(f.frontAddr)
	defer cl.close()
	epoch := uint64(1)
	var heap heapPeak
	err := repeatUntil(cfg.Seconds, minRepeats(cfg, 2), func(i int) error {
		from, to := s.pathA, pathB
		if i%2 == 1 {
			from, to = to, from
		}
		epoch++
		tracedRun := cfg.Trace && i%2 == 1
		tr := cfg.Tracer
		if !tracedRun {
			tr = newTracer(false)
		}
		start := time.Now()
		root := tr.open("ha.rollout", -1)
		status, body, err := cl.do("POST", "/v1/rollout?path="+url.QueryEscape(to)+"&prev="+url.QueryEscape(from))
		tr.close(root)
		end := time.Now()
		wall := end.Sub(start).Seconds()
		res.Attempted++
		if err != nil || status != 200 {
			res.Failed++
			res.problem("rollout %d: status %d err %v body %s", i, status, err, body)
			return nil
		}
		var rep ha.RolloutReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("rollout report: %w", err)
		}
		var swapNS int64
		for _, r := range rep.Replicas {
			swapNS += r.SwapLatencyNS
			swaps = append(swaps, float64(r.SwapLatencyNS)/1e9)
			reused = append(reused, float64(r.Reused))
			reinferred = append(reinferred, float64(r.Reinferred))
		}
		if tracedRun {
			traced = append(traced, wall)
			covered = append(covered, swapSpans(tr, f, root, rep, end))
		} else {
			rollouts = append(rollouts, wall)
		}
		verifies = append(verifies, wall-float64(swapNS)/1e9)
		checkRollout(res, i, rep, f, epoch)
		checkChurn(res, cl, sample, expected[to], i)
		return nil
	})
	close(stop)
	stream := <-streamDone
	heap.checkpoint()
	peak := heap.mib()
	if err != nil {
		f.shutdown()
		return nil, err
	}
	tally(res, stream)
	checkLate(stream, res)
	if cfg.Trace {
		if err := replays(cfg.Tracer, s.pathA, pathB, res); err != nil {
			f.shutdown()
			return nil, err
		}
	}
	totals, err := f.shutdown()
	if err != nil {
		return nil, err
	}
	totals.check(res)
	var drainWaits, swapFails uint64
	for _, st := range totals.services {
		drainWaits += st.SwapDrainWaits
		swapFails += st.SwapFails
	}
	if swapFails != 0 {
		res.problem("%d replica swaps failed", swapFails)
	}

	med := median(rollouts)
	res.EndToEnd["setup_s"] = metric{median(setups), "s"}
	res.EndToEnd["heap_peak_mib"] = metric{peak, "MiB"}
	res.EndToEnd["op_p50_ms"] = metric{med * 1e3, "ms"}
	res.EndToEnd["op_tail_ms"] = metric{quantile(stream.latMS, 0.99), "ms"}
	res.EndToEnd["throughput_per_s"] = metric{float64(n*fleetReplicas) / med, "1/s"}
	res.Named["setup_s"] = res.EndToEnd["setup_s"]
	res.Named["heap_peak_mib"] = res.EndToEnd["heap_peak_mib"]
	res.Named["load_s"] = metric{median(loads), "s"}
	res.Named["rollout_s"] = metric{med, "s"}
	res.Named["rollout_query_p99_ms"] = res.EndToEnd["op_tail_ms"]
	res.Named["loadgen_late_p99_ms"] = metric{quantile(stream.lateMS, 0.99), "ms"}
	res.Named["fail_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	if cfg.Trace {
		res.setLayer("serve.load_s", median(loads))
		res.setLayer("serve.swap_s", median(swaps))
		res.setLayer("serve.reused", median(reused))
		res.setLayer("serve.reinferred", median(reinferred))
		res.setLayer("ha.verify_s", median(verifies))
		res.setLayer("serve.drain_waits", float64(drainWaits))
		res.setLayer("loadgen.late_p99_ms", quantile(stream.lateMS, 0.99))
		res.setLayer("trace.overhead_ms", (median(traced)-med)*1e3)
		res.setLayer("trace.coverage", median(covered))
	}
	return res, nil
}

// swapSpans records each replica's swap inside a traced rollout: it
// starts when the replica's Gate saw /v1/swap and lasts the swap's own
// reported latency. The gap from a swap's end to the next swap (or the
// end of the rollout) is the balancer's verification. It returns the
// share of the rollout the spans cover.
func swapSpans(tr *tracer, f *fleet, root int, rep ha.RolloutReport, end time.Time) float64 {
	type sw struct{ start, end time.Time }
	var spans []sw
	for i, r := range rep.Replicas {
		if i >= len(f.swapStart) {
			break
		}
		start := time.Unix(0, f.swapStart[i].Load())
		spans = append(spans, sw{start, start.Add(time.Duration(r.SwapLatencyNS))})
	}
	for i, s := range spans {
		tr.add("serve.swap", root, s.start, s.end)
		next := end
		if i+1 < len(spans) {
			next = spans[i+1].start
		}
		tr.add("ha.verify", root, s.end, next)
	}
	return tr.coverage(root)
}

// checkRollout verifies a completed rollout: both replicas swapped to
// the expected epoch and the balancer sees every replica ready on it.
func checkRollout(res *result, i int, rep ha.RolloutReport, f *fleet, epoch uint64) {
	if !rep.Completed || len(rep.Replicas) != fleetReplicas {
		res.Failed++
		res.problem("rollout %d incomplete: %+v", i, rep)
		return
	}
	for _, r := range rep.Replicas {
		if r.ToEpoch != epoch {
			res.Failed++
			res.problem("rollout %d: replica %s reached epoch %d, want %d", i, r.Name, r.ToEpoch, epoch)
		}
	}
	for _, r := range f.bal.Health().Replicas {
		if !r.Ready || r.Stale || r.Epoch != epoch {
			res.Failed++
			res.problem("rollout %d: replica %s ready=%v stale=%v epoch=%d, want ready on %d", i, r.Name, r.Ready, r.Stale, r.Epoch, epoch)
		}
	}
}

// checkChurn asks the balancer about a sample of churned domains and
// compares every answer with the target snapshot's inference.
func checkChurn(res *result, cl *client, sample []string, expected map[string]core.DomainAttribution, i int) {
	bad := 0
	for _, name := range sample {
		got, err := lookup(cl, name)
		if err != nil {
			res.problem("rollout %d: lookup %s: %v", i, name, err)
			return
		}
		if !answerMatches(got, expected, name) {
			bad++
		}
	}
	if bad > 0 {
		res.Failed++
		res.problem("rollout %d: %d of %d churned domains answer a provider other than the new snapshot's", i, bad, len(sample))
	}
}

// replays times the rollout's building blocks on their own, outside
// the serving tier: decoding B, diffing A against B, and streaming
// inference over B.
func replays(tr *tracer, pathA, pathB string, res *result) error {
	var err error
	res.setLayer("dataset.decode_s", tr.timed("dataset.decode", -1, func() {
		var st *dataset.Stream
		if st, err = dataset.OpenStream(pathB); err == nil {
			err = st.ForEach(func(*dataset.DomainRecord) error { return nil }, func(*dataset.IPInfo) error { return nil })
		}
	}))
	if err != nil {
		return fmt.Errorf("decode replay: %w", err)
	}
	res.setLayer("dataset.diff_s", tr.timed("dataset.diff", -1, func() {
		var a, b *dataset.Stream
		if a, err = dataset.OpenStream(pathA); err != nil {
			return
		}
		if b, err = dataset.OpenStream(pathB); err != nil {
			return
		}
		_, err = dataset.DiffStream(a, b, func(dataset.Change) error { return nil })
	}))
	if err != nil {
		return fmt.Errorf("diff replay: %w", err)
	}
	res.setLayer("core.infer_stream_s", tr.timed("core.infer_stream", -1, func() {
		var st *dataset.Stream
		if st, err = dataset.OpenStream(pathB); err == nil {
			_, err = core.InferStream(st, core.ApproachPriority, inferConfig(), func(core.DomainAttribution) {})
		}
	}))
	if err != nil {
		return fmt.Errorf("infer-stream replay: %w", err)
	}
	return nil
}

// deriveB writes snapshot B: A with a seeded share of domains moved to
// another provider's existing exchanges, some removed and some added.
// Every address B references is already measured in A.
func deriveB(pathA, pathB string, seed uint64) (*churn, error) {
	a, err := dataset.ReadFile(pathA)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 8))
	b := dataset.NewSnapshot(a.Date, a.Corpus)
	for _, ip := range a.IPs {
		b.AddIP(ip)
	}
	ch := &churn{}
	nd := len(a.Domains)
	for _, d := range a.Domains {
		u := rng.Float64() * 100
		switch {
		case u < churnPercent:
			ch.removed = append(ch.removed, d.Domain)
			continue
		case u < churnPercent+movePercent:
			if donor := pickDonor(a, rng, d); donor != nil {
				d.MX = donor.MX
				ch.moved = append(ch.moved, d.Domain)
			}
		}
		b.AddDomain(d)
	}
	for j := 0; j < int(float64(nd)*churnPercent/100); j++ {
		d := a.Domains[rng.IntN(nd)]
		d.Domain = fmt.Sprintf("added-%d.mxbench.com", j)
		d.Rank = 0
		ch.added = append(ch.added, d.Domain)
		b.AddDomain(d)
	}
	b.SortDomains()
	return ch, dataset.WriteFile(pathB, b)
}

// pickDonor finds a domain whose primary exchange belongs to another
// provider zone than d's.
func pickDonor(a *dataset.Snapshot, rng *rand.Rand, d dataset.DomainRecord) *dataset.DomainRecord {
	zone := exchangeZone(d)
	for try := 0; try < 16; try++ {
		c := &a.Domains[rng.IntN(len(a.Domains))]
		if z := exchangeZone(*c); z != "" && z != zone {
			return c
		}
	}
	return nil
}

// exchangeZone is the last two labels of d's first primary exchange.
func exchangeZone(d dataset.DomainRecord) string {
	p := d.PrimaryMX()
	if len(p) == 0 {
		return ""
	}
	labels := strings.Split(p[0].Exchange, ".")
	if len(labels) < 2 {
		return p[0].Exchange
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

// churnSampleNames picks a seeded sample across moved, removed and
// added domains.
func churnSampleNames(ch *churn, seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 9))
	var out []string
	for _, group := range [][]string{ch.moved, ch.removed, ch.added} {
		for k := 0; k < churnSample/3 && len(group) > 0; k++ {
			out = append(out, group[rng.IntN(len(group))])
		}
	}
	return out
}
