package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/world"
)

// TestParallelInferEquivalenceOnWorld runs every approach over a real
// measured snapshot of the seeded world, serially and with an 8-worker
// pool, and asserts identical output — MX assignments, per-domain
// attributions and the step-4 counters. This is the end-to-end
// determinism guarantee behind core.Config.Parallelism.
func TestParallelInferEquivalenceOnWorld(t *testing.T) {
	s := study(t)
	snap, err := s.Snapshot(context.Background(), world.CorpusAlexa, s.LastDate(world.CorpusAlexa))
	if err != nil {
		t.Fatal(err)
	}
	for _, approach := range core.Approaches() {
		serial := core.Infer(snap, approach, core.Config{Profiles: s.Profiles, Parallelism: 1})
		par := core.Infer(snap, approach, core.Config{Profiles: s.Profiles, Parallelism: 8})
		if serial.NumExamined != par.NumExamined || serial.NumCorrected != par.NumCorrected {
			t.Errorf("%s: step-4 counters diverged: examined %d/%d corrected %d/%d",
				approach, serial.NumExamined, par.NumExamined, serial.NumCorrected, par.NumCorrected)
		}
		if len(serial.MX) != len(par.MX) {
			t.Fatalf("%s: MX count %d vs %d", approach, len(serial.MX), len(par.MX))
		}
		for ex, sa := range serial.MX {
			pa := par.MX[ex]
			if pa == nil || !reflect.DeepEqual(*sa, *pa) {
				t.Fatalf("%s: assignment for %q diverged:\nserial:   %+v\nparallel: %+v", approach, ex, sa, pa)
			}
		}
		if !reflect.DeepEqual(serial.Domains, par.Domains) {
			t.Fatalf("%s: domain attributions diverged", approach)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestFig6Golden pins the nine Figure 6 panels of the seeded test world
// to the committed chart text in testdata/fig6.golden. Regenerate with
// go test -run TestFig6Golden -update ./internal/experiments/.
func TestFig6Golden(t *testing.T) {
	s := study(t)
	charts, err := s.Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range charts {
		if err := c.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "fig6.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("Fig6 charts diverged from %s:\n--- got\n%s\n--- want\n%s", path, sb.String(), want)
	}
}

// TestFig6ParallelMatchesSerial regenerates Figure 6 with serial and
// parallel collection on two studies sharing a seed, asserting identical
// chart text.
func TestFig6ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a second world generation")
	}
	s2, err := NewStudy(world.Config{Seed: 21, Scale: 0.003, TailProviders: 20, SelfISPs: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Parallelism = 8

	s1 := study(t) // serial-collected reference (Parallelism 0 → GOMAXPROCS for Infer, but same output by the equivalence guarantee)
	ctx := context.Background()
	ref, err := s1.Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(got) {
		t.Fatalf("panel count %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		var sb1, sb2 strings.Builder
		ref[i].WriteText(&sb1)
		got[i].WriteText(&sb2)
		if sb1.String() != sb2.String() {
			t.Errorf("panel %d diverged between serial and parallel collection:\n--- serial\n%s\n--- parallel\n%s", i, sb1.String(), sb2.String())
		}
	}
}
