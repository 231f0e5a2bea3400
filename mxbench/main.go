// Command mxbench is mxmap's end-to-end benchmark. One invocation runs
// one seeded workload through the public entry points of the world,
// scan, dataset, core, analysis, experiments, serve and ha packages,
// checks the workload's output, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run records in-memory spans around every layer call, writes them with
// their self times under .bench_build/traces, and reports the per-layer
// set instead. See README.md for the layer → metric → workload map.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	mxbench -workload collect-infer -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Default and held-out workload seeds. The default seed is the one
// numbers are tuned and compared on; the held-out seed confirms a claim
// on inputs nobody looked at while writing the change.
const (
	DefaultSeed = 1
	HeldOutSeed = 9001
)

// buildDir holds everything a run leaves behind: scratch files under
// work/ (removed after the run) and traces under traces/.
const buildDir = ".bench_build"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	Attempted int
	Failed    int
	// Problems lists failed output checks; any entry makes the run
	// incorrect.
	Problems []string
	// EndToEnd and Layer are the two metric sets; Named repeats the
	// end-to-end numbers under the workload's own metric names for the
	// human-readable report.
	EndToEnd map[string]metric
	Layer    map[string]metric
	Named    map[string]metric
	// Sizes records the workload's input sizes for the env block.
	Sizes map[string]any
}

func newResult() *result {
	return &result{
		EndToEnd: map[string]metric{},
		Layer:    map[string]metric{},
		Named:    map[string]metric{},
		Sizes:    map[string]any{},
	}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// Tiny shrinks every input so the self-test finishes in seconds.
	Tiny bool
	// WorkDir holds the run's scratch files; removed afterwards.
	WorkDir string
	// Tracer records spans; its methods are no-ops when Trace is off.
	Tracer *tracer
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"collect-infer", runCollectInfer},
	{"study", runStudy},
	{"query", runQuery},
	{"rollout", runRollout},
}

// endToEndUnits and layerUnits fix every reported metric's unit. Every
// run reports every name of its set, so any two runs compare metric by
// metric on every workload; README.md says what each means per workload.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"heap_peak_mib":    "MiB",
	"op_p50_ms":        "ms",
	"op_tail_ms":       "ms",
	"throughput_per_s": "1/s",
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: collect-infer, study, query or rollout")
		seed    = flag.Uint64("seed", DefaultSeed, fmt.Sprintf("workload seed; inputs are a pure function of it (confirm claims on the held-out seed %d)", HeldOutSeed))
		seconds = flag.Float64("seconds", 10, "measured time per run")
		trace   = flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: mxbench -workload collect-infer|study|query|rollout -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "mxbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	res, err := execute(context.Background(), *wl, cfg, buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mxbench:", err)
		os.Exit(1)
	}
	out := os.Stdout
	fmt.Fprintf(out, "env %s\n", mustJSON(environment(*wl, cfg, res)))
	printMetrics(out, "end-to-end", res.Named)
	if cfg.Trace {
		printMetrics(out, "per-layer", res.Layer)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	metrics := res.EndToEnd
	if cfg.Trace {
		metrics = res.Layer
	}
	fmt.Fprintln(out, mustJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.Problems) == 0, res.Attempted, res.Failed, metrics}))
}

// execute runs one workload in a fresh scratch directory under root and
// fills in the metric sets every run must carry.
func execute(ctx context.Context, wl workload, cfg runConfig, root string) (*result, error) {
	work := filepath.Join(root, "work")
	traces := filepath.Join(root, "traces")
	for _, d := range []string{work, traces} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(work, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.WorkDir = dir
	cfg.Tracer = newTracer(cfg.Trace)
	res, err := wl.run(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", wl.name)
	}
	if cfg.Trace {
		path, err := cfg.Tracer.write(wl.name, cfg.Seed, traces)
		if err != nil {
			return nil, err
		}
		fmt.Println("trace", path)
		cfg.Tracer.printSelfTimes(os.Stdout)
		for _, name := range layerMetricNames() {
			if _, ok := res.Layer[name]; !ok {
				// The workload bypasses this layer: it did no work there.
				res.Layer[name] = metric{0, layerUnits[name]}
			}
		}
	} else {
		for name, unit := range endToEndUnits {
			m, ok := res.EndToEnd[name]
			if !ok || m.Value <= 0 {
				return nil, fmt.Errorf("%s: end-to-end metric %s missing or not positive (%v)", wl.name, name, m.Value)
			}
			if m.Unit != unit {
				return nil, fmt.Errorf("%s: metric %s has unit %q, want %q", wl.name, name, m.Unit, unit)
			}
		}
	}
	return res, nil
}

// checkCheckout fails fast when the benchmark directory was copied
// without the program it measures.
func checkCheckout() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func printMetrics(w *os.File, title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
