package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: a call into a layer, made from the
// benchmark's own code. Parent is the index of the enclosing span, -1
// for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a finished span and returns its index (-1 when off).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name:    name,
		StartNS: start.Sub(t.t0).Nanoseconds(),
		EndNS:   end.Sub(t.t0).Nanoseconds(),
		Parent:  parent,
	})
	return len(t.spans) - 1
}

// open starts a span whose children need its index before it ends;
// close finishes it.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if id < 0 {
		return
	}
	end := time.Now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = end
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time in seconds,
// which callers use for their metrics whether or not tracing is on.
func (t *tracer) timed(name string, parent int, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start).Seconds()
}

// selfTimes fills every span's SelfNS: its duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		spans[i].SelfNS = (spans[i].EndNS - spans[i].StartNS) - covered(children[i], spans[i].StartNS, spans[i].EndNS)
	}
	return spans
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNS, lo), min(s.EndNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// coverage is the share of root span id's interval that its direct
// children cover.
func (t *tracer) coverage(id int) float64 {
	if id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.spans[id]
	var kids []span
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	d := root.EndNS - root.StartNS
	if d <= 0 {
		return 0
	}
	return float64(covered(kids, root.StartNS, root.EndNS)) / float64(d)
}

// spanTotal aggregates one span name.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	SelfPct float64 `json:"self_percent"`
}

func (t *tracer) totals() []spanTotal {
	spans := t.selfTimes()
	by := make(map[string]*spanTotal)
	var all float64
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalS += float64(s.EndNS-s.StartNS) / 1e9
		st.SelfS += float64(s.SelfNS) / 1e9
		all += float64(s.SelfNS) / 1e9
	}
	out := make([]spanTotal, 0, len(by))
	for _, st := range by {
		if all > 0 {
			st.SelfPct = 100 * st.SelfS / all
		}
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// write saves every span and the per-name totals as one JSON file.
func (t *tracer) write(workload string, seed uint64, dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.MarshalIndent(struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Totals   []spanTotal `json:"totals"`
		Spans    []span      `json:"spans"`
	}{workload, seed, t.totals(), t.selfTimes()}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "span self times (sum over the traced run):\n")
	fmt.Fprintf(w, "  %-26s %7s %10s %10s %7s\n", "span", "count", "total_s", "self_s", "self%")
	for _, st := range t.totals() {
		fmt.Fprintf(w, "  %-26s %7d %10.4f %10.4f %6.1f%%\n", st.Name, st.Count, st.TotalS, st.SelfS, st.SelfPct)
	}
}

// layerUnits lists every per-layer metric and its unit. A traced run
// reports all of them; a layer the workload bypasses reports 0.
var layerUnits = map[string]string{
	// world: controls for the simulated Internet.
	"world.lookups":    "count",
	"world.resolve_s":  "s",
	"world.dials":      "count",
	"world.generate_s": "s",
	// scan
	"scan.collect_s":            "s",
	"scan.lookups_per_domain":   "lookups/domain",
	"scan.retries":              "count",
	"dataset.shard_files":       "count",
	"dataset.shard_mib":         "MiB",
	"dataset.merge_s":           "s",
	"dataset.merge_alloc_mib":   "MiB",
	"dataset.read_s":            "s",
	"dataset.read_alloc_mib":    "MiB",
	"dataset.decode_s":          "s",
	"dataset.diff_s":            "s",
	"core.index_s":              "s",
	"core.infer_s":              "s",
	"core.infer_alloc_mib":      "MiB",
	"core.infer_stream_s":       "s",
	"core.untrusted_domains":    "count",
	"analysis.shares_s":         "s",
	"experiments.fig5_s":        "s",
	"experiments.fig6_s":        "s",
	"experiments.fig7_s":        "s",
	"experiments.table6_s":      "s",
	"ha.handle_p50_us":          "us",
	"ha.handle_p99_us":          "us",
	"ha.attempts_per_req":       "attempts/req",
	"ha.hedges":                 "count",
	"ha.hedge_win_ratio":        "ratio",
	"ha.upstream_conns_per_req": "conns/req",
	"ha.verify_s":               "s",
	"serve.front_queued":        "count",
	"serve.front_shed":          "count",
	"serve.replica_p50_us":      "us",
	"serve.replica_p99_us":      "us",
	"serve.bytes_per_domain":    "B/domain",
	"serve.lookup_miss_ratio":   "ratio",
	"serve.load_s":              "s",
	"serve.swap_s":              "s",
	"serve.reused":              "count",
	"serve.reinferred":          "count",
	"serve.drain_waits":         "count",
	"loadgen.late_p99_ms":       "ms",
	"trace.overhead_ms":         "ms",
	"trace.coverage":            "ratio",
}

func layerMetricNames() []string {
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setLayer records a per-layer metric with its registered unit.
func (r *result) setLayer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("unregistered layer metric " + name)
	}
	r.Layer[name] = metric{v, unit}
}
