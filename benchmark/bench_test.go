package main

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// smokeConfig runs tiny federations over 200 ms windows: enough to prove
// every metric is emitted, not to measure anything.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{seconds: 0.2, scale: 0.05, setups: 1, minSamples: 1,
		tmpDir: filepath.Join(t.TempDir(), "tmp")}
}

func TestManifestNamesTheWorkloads(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(man.Workloads), len(workloads))
	}
	for _, mw := range man.Workloads {
		if _, ok := findWorkload(mw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", mw.Name)
		}
		if !validName(mw.Name) {
			t.Errorf("workload name %q is misspelled", mw.Name)
		}
		if mw.Why == "" || len(mw.Why) > 200 || strings.Contains(mw.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, got %d", mw.Name, len(mw.Why))
		}
	}
	hasSetup := false
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must declare setup_s in s, lower is better")
	}
}

// checkMetrics asserts that res emits exactly the declared metrics, each
// finite, in the declared unit, under a well-spelled name.
func checkMetrics(t *testing.T, res *result, decls []metricDecl) {
	t.Helper()
	if res.failed != 0 {
		t.Errorf("%d of %d queries failed: %v", res.failed, res.attempted, res.firstErr)
	}
	got := map[string]metric{}
	for _, m := range res.metrics {
		if _, dup := got[m.name]; dup {
			t.Errorf("metric %q emitted twice", m.name)
		}
		got[m.name] = m
	}
	for _, d := range decls {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("declared metric %q not emitted", d.Name)
			continue
		}
		delete(got, d.Name)
		if !validName(d.Name) {
			t.Errorf("metric name %q is misspelled", d.Name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("metric %q = %v, want finite", d.Name, m.value)
		}
		if m.unit != d.Unit {
			t.Errorf("metric %q in %q, declared in %q", d.Name, m.unit, d.Unit)
		}
	}
	for name := range got {
		t.Errorf("metric %q emitted but not declared in BENCHMARK.json", name)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			in, err := w.inputs(ctx, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			e2e, err := runEndToEnd(ctx, cfg, w, 3, in)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, e2e, man.EndToEnd)
			for _, m := range e2e.metrics {
				if m.value <= 0 {
					t.Errorf("end-to-end metric %q = %v, must never be 0", m.name, m.value)
				}
			}
			traced, err := runTraced(ctx, cfg, w, 3, in)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, traced, man.PerLayer)

			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  *string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(e2e.jsonLine()), &line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 ||
				line.Failed == nil || len(line.Metrics) != len(man.EndToEnd) {
				t.Errorf("result line %s does not meet the contract", e2e.jsonLine())
			}
		})
	}
}

// validName reports whether s is spelled as the contract requires of
// metric and workload names.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	return strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") == "" &&
		!strings.ContainsAny(s[:1], "_.-")
}
