package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/scan"
	"mxmap/internal/smtp"
	"mxmap/internal/world"
)

// Sizes and settings shared by the workloads.
const (
	fleetWorkers     = 2 // CollectFleet workers (the box's CPU count)
	inferParallelism = 2 // core.Config.Parallelism
	// Set-ups per run; setup_s is their median. Sub-second set-ups
	// (the batch workloads') repeat more so the median holds still.
	setupRepeats      = 3
	cheapSetupRepeats = 7
	snapshotDate      = "2021-06"

	collectDomains     = 100_000
	collectTinyDomains = 2_000
	collectAdversarial = 5.0 // percent of hostile domains
	// honestFloor is the least share of honest domains with mail
	// service whose inferred company must match the world's truth.
	honestFloor = 0.95
)

// runCollectInfer is the mxscan -flat + mxmap batch path: fleet
// collection into shards, external merge, ReadFile, Index, Infer and
// the market-share analysis, repeated for the run's measured time.
func runCollectInfer(_ context.Context, cfg runConfig) (*result, error) {
	n := collectDomains
	if cfg.Tiny {
		n = collectTinyDomains
	}
	res := newResult()
	res.Sizes["domains"] = n
	res.Sizes["adversarial_percent"] = collectAdversarial
	res.Sizes["fleet_workers"] = fleetWorkers
	res.Sizes["infer_parallelism"] = inferParallelism

	// Set-up: the flat world and its target list, built several times
	// so setup_s is a median.
	var (
		fw      *world.FlatWorld
		targets []scan.Target
		setups  []float64
	)
	for i := 0; i < cheapSetupRepeats; i++ {
		var err error
		setups = append(setups, cfg.Tracer.timed("world.generate", -1, func() {
			fw, err = world.NewFlatWorld(world.FlatConfig{
				Seed:               cfg.Seed,
				NumDomains:         n,
				AdversarialPercent: collectAdversarial,
			})
			if err != nil {
				return
			}
			targets = flatTargets(fw)
		}))
		if err != nil {
			return nil, err
		}
	}

	p := &pipeline{
		cfg:     cfg,
		fw:      fw,
		targets: targets,
		infer:   inferConfig(),
		res:     res,
	}
	var passes, traced []float64
	var covered []float64
	var heap heapPeak
	p.heap = &heap
	err := repeatUntil(cfg.Seconds, 1+minRepeats(cfg, 3), func(i int) error {
		// Pass 0 warms caches and the heap and carries the full output
		// checks; it is not timed. A traced run then alternates traced
		// and untraced passes so the difference is the tracing overhead.
		tracedPass := cfg.Trace && i%2 == 1
		s, cov, err := p.pass(i, tracedPass)
		if i == 0 {
			return err
		}
		if tracedPass {
			traced = append(traced, s)
			covered = append(covered, cov)
		} else {
			passes = append(passes, s)
		}
		return err
	})
	peak := heap.mib()
	if err != nil {
		return nil, err
	}

	med := median(passes)
	res.EndToEnd["setup_s"] = metric{median(setups), "s"}
	res.EndToEnd["heap_peak_mib"] = metric{peak, "MiB"}
	res.EndToEnd["op_p50_ms"] = metric{med * 1e3, "ms"}
	res.EndToEnd["op_tail_ms"] = metric{maxOf(passes) * 1e3, "ms"}
	res.EndToEnd["throughput_per_s"] = metric{float64(n) / med, "1/s"}
	res.Named["setup_s"] = res.EndToEnd["setup_s"]
	res.Named["heap_peak_mib"] = res.EndToEnd["heap_peak_mib"]
	res.Named["pipeline_domains_per_s"] = metric{float64(n) / med, "1/s"}
	res.Named["pass_p50_ms"] = res.EndToEnd["op_p50_ms"]
	res.Named["fail_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	if cfg.Trace {
		p.layerMedians()
		res.setLayer("world.generate_s", median(setups))
		res.setLayer("trace.overhead_ms", (median(traced)-med)*1e3)
		res.setLayer("trace.coverage", median(covered))
	}
	return res, nil
}

// minRepeats is the least number of operations a run makes: enough
// for a median, doubled in a traced run that alternates modes.
func minRepeats(cfg runConfig, n int) int {
	if cfg.Trace {
		return 2 * n
	}
	return n
}

// pipeline holds one collect-infer run's fixed inputs and the
// per-pass layer samples.
type pipeline struct {
	cfg     runConfig
	fw      *world.FlatWorld
	targets []scan.Target
	infer   core.Config
	res     *result
	heap    *heapPeak

	// first is the first pass's result fingerprint; later passes must
	// reproduce it.
	first [32]byte
	// samples collects per-layer values of traced passes.
	samples map[string][]float64
}

func (p *pipeline) sample(name string, v float64) {
	if p.samples == nil {
		p.samples = make(map[string][]float64)
	}
	p.samples[name] = append(p.samples[name], v)
}

func (p *pipeline) layerMedians() {
	for name, vs := range p.samples {
		p.res.setLayer(name, median(vs))
	}
}

// pass runs the pipeline once and returns its wall time in seconds and,
// when traced, the share of that time its layer spans cover.
func (p *pipeline) pass(i int, traced bool) (float64, float64, error) {
	tr := p.cfg.Tracer
	if !traced {
		tr = newTracer(false)
	}
	fw := p.fw
	dir := filepath.Join(p.cfg.WorkDir, fmt.Sprintf("pass%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	var (
		resolver dns.Resolver = fw.Resolver()
		dialer   smtp.Dialer  = fw.Dialer()
		counted  *countingResolver
		dials    *countingDialer
	)
	if traced {
		counted = newCountingResolver(resolver)
		dials = &countingDialer{d: dialer}
		resolver, dialer = counted, dials
	}

	start := time.Now()
	root := tr.open("pipeline.pass", -1)
	set := dataset.NewShardSet(filepath.Join(dir, "flat.jsonl.gz"), snapshotDate, fw.Cfg.Corpus)
	var (
		stats *scan.FleetStats
		err   error
	)
	collectS := tr.timed("scan.collect", root, func() {
		stats, err = collectFlat(fw, p.targets, set, resolver, dialer)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("collect: %w", err)
	}
	var shardBytes int64
	if traced {
		for _, sp := range set.Paths() {
			if st, err := os.Stat(sp); err == nil {
				shardBytes += st.Size()
			}
		}
	}
	out := filepath.Join(dir, "flat.merged.jsonl.gz")
	a0 := allocatedBytes()
	mergeS := tr.timed("dataset.merge", root, func() {
		if _, err = dataset.Merge(out, set.Paths()); err == nil {
			err = set.Remove()
		}
	})
	mergeAlloc := allocatedBytes() - a0
	if err != nil {
		return 0, 0, fmt.Errorf("merge: %w", err)
	}
	var snap *dataset.Snapshot
	a0 = allocatedBytes()
	readS := tr.timed("dataset.read", root, func() { snap, err = dataset.ReadFile(out) })
	readAlloc := allocatedBytes() - a0
	if err != nil {
		return 0, 0, fmt.Errorf("read: %w", err)
	}
	indexS := tr.timed("core.index", root, func() { snap.Index() })
	var res *core.Result
	a0 = allocatedBytes()
	inferS := tr.timed("core.infer", root, func() {
		res = core.Infer(snap, core.ApproachPriority, p.infer)
	})
	inferAlloc := allocatedBytes() - a0
	var shares []analysis.Share
	var conc analysis.Concentration
	sharesS := tr.timed("analysis.shares", root, func() {
		credits := analysis.CompanyCredits(res, fw.Directory)
		shares = analysis.TopShares(credits, len(res.Domains), 10)
		conc = analysis.ComputeConcentration(res, fw.Directory)
	})
	tr.close(root)
	wall := time.Since(start).Seconds()
	cov := 0.0
	if traced {
		cov = tr.coverage(root)
	}

	if i == 0 {
		p.heap.checkpoint() // snapshot, index and result are all live here
	}
	p.check(i, snap, res, shares, conc)

	if traced {
		n := float64(len(p.targets))
		lookups := counted.lookups.Load()
		p.sample("world.lookups", float64(lookups))
		p.sample("world.resolve_s", float64(counted.ns.Load())/1e9)
		p.sample("world.dials", float64(dials.dials.Load()))
		p.sample("scan.collect_s", collectS)
		p.sample("scan.lookups_per_domain", float64(lookups)/n)
		p.sample("scan.retries", float64(stats.Collection.DNSRetries+stats.Collection.ScanRetries))
		p.sample("dataset.shard_files", float64(stats.ShardFiles))
		p.sample("dataset.shard_mib", float64(shardBytes)/mib)
		p.sample("dataset.merge_s", mergeS)
		p.sample("dataset.merge_alloc_mib", float64(mergeAlloc)/mib)
		p.sample("dataset.read_s", readS)
		p.sample("dataset.read_alloc_mib", float64(readAlloc)/mib)
		p.sample("core.index_s", indexS)
		p.sample("core.infer_s", inferS)
		p.sample("core.infer_alloc_mib", float64(inferAlloc)/mib)
		p.sample("core.untrusted_domains", float64(untrustedDomains(res)))
		p.sample("analysis.shares_s", sharesS)
	}
	return wall, cov, nil
}

// flatTargets lists fw's domains as scan targets.
func flatTargets(fw *world.FlatWorld) []scan.Target {
	targets := make([]scan.Target, fw.NumDomains())
	for i := range targets {
		targets[i] = scan.Target{Name: fw.DomainName(i)}
	}
	return targets
}

// collectFlat is the mxscan -flat collection: a fleet of fleetWorkers
// collectors over fw's domains, spilling sorted shards into set.
func collectFlat(fw *world.FlatWorld, targets []scan.Target, set *dataset.ShardSet, resolver dns.Resolver, dialer smtp.Dialer) (*scan.FleetStats, error) {
	return scan.CollectFleet(context.Background(), scan.FleetConfig{
		Corpus:  fw.Cfg.Corpus,
		Date:    snapshotDate,
		Workers: fleetWorkers,
		NewCollector: func(int) (*scan.Collector, error) {
			return &scan.Collector{
				Resolver:   resolver,
				Dialer:     dialer,
				Trust:      fw.Trust,
				Prefixes:   fw.Prefixes,
				ASRegistry: fw.ASRegistry,
				Parked:     fw.Parked,
			}, nil
		},
		Output: set,
	}, targets)
}

// check verifies one pass's output. The first pass is checked against
// the world's ground truth in full; later passes must reproduce its
// fingerprint exactly.
func (p *pipeline) check(i int, snap *dataset.Snapshot, res *core.Result, shares []analysis.Share, conc analysis.Concentration) {
	fw, r := p.fw, p.res
	n := len(p.targets)
	r.Attempted += n
	if i > 0 {
		if fingerprint(res, shares, conc) != p.first {
			r.Failed++
			r.problem("pass %d output differs from pass 0", i)
		}
		return
	}
	p.first = fingerprint(res, shares, conc)

	byName := make(map[string]*core.DomainAttribution, len(res.Domains))
	for j := range res.Domains {
		byName[res.Domains[j].Domain] = &res.Domains[j]
	}
	missing, graded, correct := 0, 0, 0
	oracle := make([]analysis.MisidOracle, n)
	for j := 0; j < n; j++ {
		e := fw.OracleAt(j)
		oracle[j] = analysis.MisidOracle{
			Domain: e.Domain, Family: string(e.Family), Truth: e.Truth,
			Forged: e.Forged, ExpectFlagged: e.ExpectFlagged, Detail: e.Detail,
		}
		att := byName[e.Domain]
		if att == nil {
			missing++
			continue
		}
		if e.Family != world.FamilyHonest || e.Truth == "" {
			continue
		}
		graded++
		got := ""
		if primary := att.Primary(); primary != "" {
			got = analysis.CompanyOf(att.Domain, primary, fw.Directory)
		}
		if got == e.Truth || (e.Truth == att.Domain && got == analysis.SelfHostedLabel) {
			correct++
		}
	}
	if missing > 0 || len(res.Domains) != n {
		r.Failed += missing
		r.problem("%d of %d domains missing from the result (%d attributed)", missing, n, len(res.Domains))
	}
	if graded == 0 || float64(correct) < honestFloor*float64(graded) {
		r.Failed++
		r.problem("honest domains attributed correctly: %d/%d, floor %.0f%%", correct, graded, 100*honestFloor)
	}
	if rep := analysis.ScoreMisidentification(snap, res, oracle, fw.Directory); rep.CreditedForged != 0 {
		r.Failed++
		r.problem("%d adversarial domains credited to a forged provider", rep.CreditedForged)
	}
}

// fingerprint digests a pass's answers: every attribution in order, the
// top shares and the concentration figures.
func fingerprint(res *core.Result, shares []analysis.Share, conc analysis.Concentration) [32]byte {
	h := sha256.New()
	for _, att := range res.Domains {
		fmt.Fprintf(h, "%s %s %v %v %v\n", att.Domain, att.Primary(), att.Credits, att.HasSMTP, att.Untrusted)
	}
	fmt.Fprintf(h, "%v %+v", shares, conc)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func untrustedDomains(res *core.Result) int {
	n := 0
	for _, att := range res.Domains {
		if att.Untrusted {
			n++
		}
	}
	return n
}

// countingResolver wraps the world's resolver to count lookups and the
// time spent in them. It forwards provenance checks so the collector
// keeps its adversarial verdicts.
type countingResolver struct {
	r       dns.Resolver
	prov    dns.ProvenanceChecker
	lookups atomic.Int64
	ns      atomic.Int64
}

func newCountingResolver(r dns.Resolver) *countingResolver {
	c := &countingResolver{r: r}
	c.prov, _ = r.(dns.ProvenanceChecker)
	return c
}

func (c *countingResolver) note(start time.Time) {
	c.lookups.Add(1)
	c.ns.Add(int64(time.Since(start)))
}

func (c *countingResolver) LookupMX(ctx context.Context, domain string) ([]dns.MXData, error) {
	defer c.note(time.Now())
	return c.r.LookupMX(ctx, domain)
}

func (c *countingResolver) LookupA(ctx context.Context, host string) ([]netip.Addr, error) {
	defer c.note(time.Now())
	return c.r.LookupA(ctx, host)
}

func (c *countingResolver) LookupAAAA(ctx context.Context, host string) ([]netip.Addr, error) {
	defer c.note(time.Now())
	return c.r.LookupAAAA(ctx, host)
}

func (c *countingResolver) DelegationStale(ctx context.Context, domain string) bool {
	return c.prov != nil && c.prov.DelegationStale(ctx, domain)
}

func (c *countingResolver) ZoneGone(ctx context.Context, host string) bool {
	return c.prov != nil && c.prov.ZoneGone(ctx, host)
}

// countingDialer counts SMTP dials into the world.
type countingDialer struct {
	d     smtp.Dialer
	dials atomic.Int64
}

func (c *countingDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	c.dials.Add(1)
	return c.d.DialContext(ctx, network, address)
}
