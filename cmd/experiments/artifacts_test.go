package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed artifacts in results/")

// TestCommittedArtifacts regenerates every deterministic artifact the
// repository commits and byte-compares it with the copy in results/.
// These files pin exact DNS, SMTP and query-server counters, the
// fault-matrix health report and the adversarial robustness verdict, so
// a behavior change anywhere along those paths shows up here. Rewrite
// them with go test -run TestCommittedArtifacts -update ./cmd/experiments.
func TestCommittedArtifacts(t *testing.T) {
	dir := t.TempDir()
	for _, gen := range []struct {
		name string
		run  func(string) error
	}{
		{"serve", runServeBench},
		{"query", runQueryBench},
		{"ha", runHABench},
		{"faults", runFaults},
		{"misid", func(out string) error { return runMisid(out, 0) }},
	} {
		if err := gen.run(dir); err != nil {
			t.Fatalf("%s: %v", gen.name, err)
		}
	}
	results := filepath.Join("..", "..", "results")
	for _, name := range []string{
		"BENCH_serve.json", "BENCH_query.json", "BENCH_ha.json", "FAULTS.json", "MISID.json",
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(results, name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from %s:\n--- got\n%s\n--- want\n%s", name, path, got, want)
		}
	}
}
