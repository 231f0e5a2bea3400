package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"mxmap/internal/companies"
	"mxmap/internal/core"
)

// environment is the env block printed with every result.
func environment(wl workload, cfg runConfig, res *result) map[string]any {
	return map[string]any{
		"workload":   wl.name,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"traced":     cfg.Trace,
		"sizes":      res.Sizes,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// commit names the source being measured: the git revision run.sh
// passes in MXBENCH_COMMIT when the checkout is a git repository,
// otherwise a digest of every Go source and module file under the
// repository root, which still tells two trees apart.
func commit() string {
	if c := os.Getenv("MXBENCH_COMMIT"); c != "" {
		return c
	}
	h := sha256.New()
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

const mib = 1 << 20

// heapPeak is the largest live heap seen at a workload's checkpoints.
// Workloads take one where they retain the most — after a pass's
// inference, with the study's caches full, with the fleet loaded — and
// the checkpoint forces a collection first, so the figure counts what
// the program holds on to and does not hinge on when the collector
// happened to run.
type heapPeak struct{ peak uint64 }

func (h *heapPeak) checkpoint() { h.peak = max(h.peak, liveHeapBytes()) }

func (h *heapPeak) mib() float64 { return float64(h.peak) / mib }

// allocatedBytes is the cumulative heap allocation count; a delta
// around a call is that call's allocation volume (plus whatever runs
// concurrently).
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapBytes collects garbage and returns the live heap.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// inferConfig is the inference configuration cmd/mxmap and cmd/mxserve
// ship — step-4 profiles for the curated large providers — at the
// benchmark's fixed parallelism.
func inferConfig() core.Config {
	var out []core.ProviderProfile
	cs := companies.Curated().Companies()
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	for _, c := range cs {
		if len(c.ProviderIDs) == 0 || c.Kind == companies.KindOther {
			continue
		}
		id := c.ProviderIDs[0]
		out = append(out, core.ProviderProfile{
			ID:   id,
			ASNs: c.ASNs,
			VPSPatterns: []string{
				"vps*." + id, "s*-*-*." + id,
			},
			DedicatedPatterns: []string{
				"mailstore*." + id, "mx*." + id, "mailgw*." + id,
				"shared*.shared." + id, "mx." + id,
			},
		})
	}
	return core.Config{Profiles: out, Parallelism: inferParallelism}
}

// repeatUntil runs op at least minN times and until the run's measured
// time has elapsed.
func repeatUntil(seconds float64, minN int, op func(i int) error) error {
	start := time.Now()
	for i := 0; i < minN || time.Since(start).Seconds() < seconds; i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}
