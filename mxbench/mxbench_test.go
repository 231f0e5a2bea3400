package main

import (
	"context"
	"testing"
)

// TestWorkloadsTiny runs every workload at tiny sizes, untraced and
// traced, with all of its output checks.
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			name := wl.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{Seed: 3, Seconds: 0.2, Trace: traced, Tiny: true}
				res, err := execute(context.Background(), wl, cfg, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Problems) > 0 || res.Failed != 0 {
					t.Fatalf("failed=%d problems=%v", res.Failed, res.Problems)
				}
				want := endToEndUnits
				got := res.EndToEnd
				if traced {
					want, got = layerUnits, res.Layer
				}
				for name, unit := range want {
					if m, ok := got[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s = %+v, want unit %s", name, m, unit)
					}
				}
			})
		}
	}
}

func TestCovered(t *testing.T) {
	spans := []span{
		{StartNS: 0, EndNS: 10},
		{StartNS: 5, EndNS: 15},
		{StartNS: 30, EndNS: 40},
		{StartNS: 90, EndNS: 120},
	}
	if got := covered(spans, 0, 100); got != 15+10+10 {
		t.Fatalf("covered = %d, want 35", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{Name: "root", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{Name: "b", StartNS: 30, EndNS: 60, Parent: 0},
		{Name: "c", StartNS: 35, EndNS: 45, Parent: 2},
	}
	want := []int64{50, 30, 20, 10}
	for i, s := range tr.selfTimes() {
		if s.SelfNS != want[i] {
			t.Errorf("%s self = %d, want %d", s.Name, s.SelfNS, want[i])
		}
	}
	if got := tr.coverage(0); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %v", q)
	}
}
