package eval

// The CI perf-regression gate: re-measure the two expression engines on
// the canonical 10k-row selective scan and fail when any engine's ns/row
// regresses more than the threshold against the checked-in trajectory
// (BENCH_scan.json at the repository root). CI runs it in the bench job:
//
//	go test ./internal/eval/ -run TestPerfRegressionGate -perf-gate-baseline "$(pwd)/BENCH_scan.json" -v
//
// The comparison is a direct ratio of ns/row medians as testing.Benchmark
// reports them (benchstat's display comparison runs alongside in CI for
// the human-readable report; the gate itself has no external dependency,
// so it cannot be skipped by a failed tool install).
//
// Override knob for noisy runners: PERF_GATE_MAX_REGRESS_PCT sets the
// allowed regression in percent (default 15). Raising it — or setting it
// to a huge value to effectively disable the gate — is a deliberate,
// documented action in the workflow run, not a silent skip. Negative
// values tighten the gate (useful to prove it fires; see the CI docs).

import (
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"
)

var perfGateBaseline = flag.String("perf-gate-baseline", "", "fail if any engine's ns/row regresses vs this BENCH_scan.json")

func TestPerfRegressionGate(t *testing.T) {
	if *perfGateBaseline == "" {
		t.Skip("pass -perf-gate-baseline=PATH (the checked-in BENCH_scan.json) to run the perf gate")
	}
	maxPct := 15.0
	if s := os.Getenv("PERF_GATE_MAX_REGRESS_PCT"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad PERF_GATE_MAX_REGRESS_PCT %q: %v", s, err)
		}
		maxPct = v
	}

	raw, err := os.ReadFile(*perfGateBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var base benchScanFile
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline %s: %v", *perfGateBaseline, err)
	}
	if len(base.Engines) == 0 {
		t.Fatalf("baseline %s has no engine measurements", *perfGateBaseline)
	}

	fresh := measureScanEngines(t)
	for name, b := range base.Engines {
		got, ok := fresh[name]
		if !ok {
			t.Errorf("%s: engine present in the baseline but not measured — trajectory and gate diverged", name)
			continue
		}
		if b.NsPerRow <= 0 {
			t.Errorf("%s: baseline ns/row %v is not positive", name, b.NsPerRow)
			continue
		}
		regressPct := (got.NsPerRow - b.NsPerRow) / b.NsPerRow * 100
		t.Logf("%s: %.1f ns/row vs baseline %.1f (%+.1f%%, gate %+.1f%%)",
			name, got.NsPerRow, b.NsPerRow, regressPct, maxPct)
		if regressPct > maxPct {
			t.Errorf("%s regressed %.1f%% (%.1f -> %.1f ns/row), above the %.1f%% gate",
				name, regressPct, b.NsPerRow, got.NsPerRow, maxPct)
		}
	}
}
