package main

import (
	"io"
	"path/filepath"
	"testing"
)

// tinyConfig runs a workload at a scale small enough for a smoke test:
// two GeoLife users and 512 synthetic ones.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: 3, seconds: 0.01, trace: trace,
		scale: 89, synthUsers: 512,
		refsPath: filepath.Join(dir, "refs.json"),
		spansOut: filepath.Join(dir, "spans"),
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, trace)
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, res.Failed, res.Attempted)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

func TestTamperedReferenceRaisesErrorRate(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := tinyConfig(t, name, false)
		cfg.writeRefs = cfg.refsPath
		if _, err := run(cfg, io.Discard); err != nil {
			t.Fatalf("%s: recording the reference: %v", name, err)
		}
		cfg.writeRefs = ""
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s: %d operations failed against the recorded reference", name, res.Failed)
		}
		r, err := loadRefs(cfg.refsPath)
		if err != nil {
			t.Fatal(err)
		}
		for key := range r {
			d := []byte(r[key]["kmeans"])
			d[0] ^= 1 // one changed hex digit
			r[key]["kmeans"] = string(d)
			if err := saveRef(cfg.refsPath, key, r[key]); err != nil {
				t.Fatal(err)
			}
		}
		res, err = run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: a tampered k-means digest went unnoticed (%d of %d failed)", name, res.Failed, res.Attempted)
		}
	}
}
