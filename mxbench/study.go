package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"mxmap/internal/experiments"
	"mxmap/internal/parallel"
	"mxmap/internal/report"
	"mxmap/internal/world"
)

const (
	studyScale     = 0.01
	studyTinyScale = 0.0005
)

// runStudy is the paper reproduction: the full world generator, SMTP
// servers on the netsim fabric, every corpus-date collection Fig. 6
// needs, then Fig. 5, Fig. 6 (delta chains), Fig. 7 and Table 6. Each
// repeat builds a fresh Study, so nothing is served from a cache.
func runStudy(ctx context.Context, cfg runConfig) (*result, error) {
	scale := studyScale
	if cfg.Tiny {
		scale = studyTinyScale
	}
	res := newResult()
	res.Sizes["scale"] = scale
	res.Sizes["infer_parallelism"] = inferParallelism

	var (
		setups, studies, traced, covered []float64
		digests                          [][32]byte
		domainSnaps                      int
		samples                          = make(map[string][]float64)
	)
	// Set-up: study construction (world generation, the SMTP fleet on
	// netsim), timed on its own; each repeat below builds a fresh one.
	for i := 0; i < cheapSetupRepeats; i++ {
		var (
			st  *experiments.Study
			err error
		)
		setups = append(setups, cfg.Tracer.timed("world.generate", -1, func() {
			st, err = experiments.NewStudy(world.Config{Seed: cfg.Seed, Scale: scale})
		}))
		if err != nil {
			return nil, err
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}

	var heap heapPeak
	err := repeatUntil(cfg.Seconds, minRepeats(cfg, 2), func(i int) error {
		tracedRun := cfg.Trace && i%2 == 1
		tr := cfg.Tracer
		if !tracedRun {
			tr = newTracer(false)
		}
		st, err := experiments.NewStudy(world.Config{Seed: cfg.Seed, Scale: scale})
		if err != nil {
			return err
		}
		defer st.Close()
		st.Parallelism = inferParallelism

		out, layers, n, err := studyOnce(ctx, st, tr)
		if err != nil {
			return err
		}
		if i == 0 {
			heap.checkpoint() // every snapshot and result is cached in st
		}
		domainSnaps = n
		res.Attempted += n
		digests = append(digests, sha256.Sum256(out.rendered))
		if tracedRun {
			traced = append(traced, out.wall)
			covered = append(covered, out.covered)
			for k, v := range layers {
				samples[k] = append(samples[k], v)
			}
		} else {
			studies = append(studies, out.wall)
		}
		return nil
	})
	peak := heap.mib()
	if err != nil {
		return nil, err
	}
	res.Sizes["domain_snapshots"] = domainSnaps

	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			res.Failed++
			res.problem("repeat %d rendered Fig5/6/7/Table6 bytes differ from repeat 0", i)
		}
	}

	med := median(studies)
	res.EndToEnd["setup_s"] = metric{median(setups), "s"}
	res.EndToEnd["heap_peak_mib"] = metric{peak, "MiB"}
	res.EndToEnd["op_p50_ms"] = metric{med * 1e3, "ms"}
	res.EndToEnd["op_tail_ms"] = metric{maxOf(studies) * 1e3, "ms"}
	res.EndToEnd["throughput_per_s"] = metric{float64(domainSnaps) / med, "1/s"}
	res.Named["setup_s"] = res.EndToEnd["setup_s"]
	res.Named["heap_peak_mib"] = res.EndToEnd["heap_peak_mib"]
	res.Named["study_s"] = metric{med, "s"}
	res.Named["fail_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	if cfg.Trace {
		for k, vs := range samples {
			res.setLayer(k, median(vs))
		}
		res.setLayer("world.generate_s", median(setups))
		res.setLayer("trace.overhead_ms", (median(traced)-med)*1e3)
		res.setLayer("trace.coverage", median(covered))
	}
	return res, nil
}

type studyOutput struct {
	rendered []byte
	wall     float64
	covered  float64
}

// studyOnce measures and infers every snapshot the artifacts need and
// renders the artifacts. It returns the rendered bytes, per-layer
// seconds and the number of domain-snapshots measured.
func studyOnce(ctx context.Context, st *experiments.Study, tr *tracer) (studyOutput, map[string]float64, int, error) {
	type key struct{ corpus, date string }
	var keys []key
	for _, c := range experiments.Corpora() {
		for _, d := range st.World.Corpus(c).Dates {
			keys = append(keys, key{c, d})
		}
	}
	layers := make(map[string]float64)
	start := time.Now()
	root := tr.open("study", -1)

	// Collections, two at a time as Fig. 6 runs them.
	collectS := make([]float64, len(keys))
	sizes := make([]int, len(keys))
	errs := make([]error, len(keys))
	parallel.Run(len(keys), inferParallelism, func(i int) {
		collectS[i] = tr.timed("scan.collect", root, func() {
			snap, err := st.Snapshot(ctx, keys[i].corpus, keys[i].date)
			errs[i] = err
			if err == nil {
				sizes[i] = len(snap.Domains)
			}
		})
	})
	n := 0
	for i, err := range errs {
		if err != nil {
			return studyOutput{}, nil, 0, fmt.Errorf("collect %s %s: %w", keys[i].corpus, keys[i].date, err)
		}
		layers["scan.collect_s"] += collectS[i]
		n += sizes[i]
	}

	// Full inference of the anchor dates: the first date of each corpus
	// starts its Fig. 6 delta chain, the last is what Fig. 5, Fig. 7
	// and Table 6 read.
	for _, c := range experiments.Corpora() {
		for _, d := range []string{st.FirstDate(c), st.LastDate(c)} {
			var err error
			layers["core.infer_s"] += tr.timed("core.infer", root, func() { _, err = st.Result(ctx, c, d) })
			if err != nil {
				return studyOutput{}, nil, 0, err
			}
		}
	}

	var buf bytes.Buffer
	table := func(name string, fn func(context.Context) (*report.Table, error)) error {
		var t *report.Table
		var err error
		layers["experiments."+name+"_s"] = tr.timed("experiments."+name, root, func() { t, err = fn(ctx) })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return t.WriteText(&buf)
	}
	if err := table("fig5", st.Fig5); err != nil {
		return studyOutput{}, nil, 0, err
	}
	var charts []*report.Chart
	var err error
	layers["experiments.fig6_s"] = tr.timed("experiments.fig6", root, func() { charts, err = st.Fig6(ctx) })
	if err != nil {
		return studyOutput{}, nil, 0, fmt.Errorf("fig6: %w", err)
	}
	for _, c := range charts {
		if err := c.WriteText(&buf); err != nil {
			return studyOutput{}, nil, 0, err
		}
	}
	if err := table("fig7", st.Fig7); err != nil {
		return studyOutput{}, nil, 0, err
	}
	if err := table("table6", st.Table6); err != nil {
		return studyOutput{}, nil, 0, err
	}
	tr.close(root)
	wall := time.Since(start).Seconds()
	return studyOutput{rendered: buf.Bytes(), wall: wall, covered: tr.coverage(root)}, layers, n, nil
}
