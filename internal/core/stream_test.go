package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"mxmap/internal/benchdata"
	"mxmap/internal/dataset"
)

// TestInferStreamEquivalence asserts the streaming path's core promise:
// for every approach, InferStream over the serialized snapshot produces
// exactly the MX assignments and per-domain attributions of Infer over
// the materialized snapshot.
func TestInferStreamEquivalence(t *testing.T) {
	snapshots := map[string]struct {
		snap     *dataset.Snapshot
		profiles []ProviderProfile
		abuseMin int
	}{
		"table3":    {table3Snapshot(), providerProfiles(), 0},
		"table12":   {table12Snapshot(), nil, 0},
		"benchdata": {benchdata.Snapshot(600), benchdataProfiles(), 0},
		// The hostile families: stale-glue hijack, dangling and parked
		// exchanges, an abuse cluster — the trust pass must stay
		// byte-equivalent across both paths too.
		"adversarial": {benchdata.Adversarial(), adversarialProfiles(), 4},
		// One snapshot later the abuse cluster falls below the
		// threshold: the same exchange flips from untrusted to trusted
		// while its surviving domains' records stay byte-identical.
		"adversarial-next": {benchdata.AdversarialNext(), adversarialProfiles(), 4},
	}
	dir := t.TempDir()
	for name, tc := range snapshots {
		tc.snap.SortDomains()
		path := filepath.Join(dir, name+".jsonl.gz")
		if err := dataset.WriteFile(path, tc.snap); err != nil {
			t.Fatal(err)
		}
		// Compare disk-to-disk: serialization strips in-memory failure
		// classes on both sides (inference never reads them).
		loaded, err := dataset.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dataset.OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, approach := range Approaches() {
			cfg := Config{Profiles: tc.profiles, ConfidenceThreshold: 2, Parallelism: 4,
				AbuseClusterMinDomains: tc.abuseMin}
			want := Infer(loaded, approach, cfg)
			var streamed []DomainAttribution
			got, err := InferStream(st, approach, cfg, func(att DomainAttribution) {
				streamed = append(streamed, att)
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name+"/"+approach.String(), func(t *testing.T) {
				if got.NumDomains != want.NumDomains || got.NumDomains != len(streamed) {
					t.Fatalf("NumDomains = %d (emitted %d), want %d", got.NumDomains, len(streamed), want.NumDomains)
				}
				if got.NumExamined != want.NumExamined || got.NumCorrected != want.NumCorrected {
					t.Errorf("step-4 counters: examined %d/%d corrected %d/%d",
						got.NumExamined, want.NumExamined, got.NumCorrected, want.NumCorrected)
				}
				if len(got.MX) != len(want.MX) {
					t.Fatalf("MX count: %d vs %d", len(got.MX), len(want.MX))
				}
				for ex, wa := range want.MX {
					ga, ok := got.MX[ex]
					if !ok {
						t.Fatalf("stream run missing exchange %q", ex)
					}
					if !reflect.DeepEqual(*wa, *ga) {
						t.Fatalf("assignment for %q diverged:\nin-memory: %+v\nstreamed:  %+v", ex, *wa, *ga)
					}
				}
				if got.Domains != nil {
					t.Error("InferStream retained a Domains slice")
				}
				for i := range want.Domains {
					if !reflect.DeepEqual(want.Domains[i], streamed[i]) {
						t.Fatalf("attribution %d (%s) diverged:\nin-memory: %+v\nstreamed:  %+v",
							i, want.Domains[i].Domain, want.Domains[i], streamed[i])
					}
				}
			})
		}
	}
}
