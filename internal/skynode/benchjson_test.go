package skynode

// The chain-step slice of the benchmark trajectory: BenchmarkChainStepPruned
// measured programmatically and merged into the BENCH_scan.json the eval
// package writes (see internal/eval/benchjson_test.go). Regenerate the full
// trajectory with the two documented commands, in order:
//
//	go test ./internal/eval/ -run TestWriteBenchScanJSON -bench-scan-json "$(pwd)/BENCH_scan.json"
//	go test ./internal/skynode/ -run TestWriteBenchChainJSON -bench-chain-json "$(pwd)/BENCH_scan.json"
//
// The file is only touched when the flag is set; the test is otherwise a
// no-op skip, so `go test ./...` stays deterministic.

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"skyquery/internal/dataset"
	"skyquery/internal/plan"
)

var benchChainJSON = flag.String("bench-chain-json", "", "merge the chain-step pruning benchmark into this BENCH_scan.json")

func TestWriteBenchChainJSON(t *testing.T) {
	if *benchChainJSON == "" {
		t.Skip("pass -bench-chain-json=PATH (an existing BENCH_scan.json) to record the chain-step benchmark")
	}
	raw, err := os.ReadFile(*benchChainJSON)
	if err != nil {
		t.Fatalf("the eval trajectory must be written first (TestWriteBenchScanJSON): %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing %s: %v", *benchChainJSON, err)
	}

	nodes := benchChainNodes(t)
	p := benchChainPlan()
	seed, err := nodes[1].execStep(p, p.Steps[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(step plan.Step, in *dataset.DataSet, prune bool) int64 {
		prev := SetCandPrune(prune)
		defer SetCandPrune(prev)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nodes[0].execStep(p, step, in); err != nil {
					b.Fatal(err)
				}
			}
		})
		return res.NsPerOp()
	}
	extendUnpruned := measure(p.Steps[0], seed, false)
	extendPruned := measure(p.Steps[0], seed, true)
	seedUnpruned := measure(p.Steps[0], nil, false)
	seedPruned := measure(p.Steps[0], nil, true)

	speedup := func(unpruned, pruned int64) float64 {
		if pruned <= 0 {
			return 0
		}
		return float64(int64(float64(unpruned)/float64(pruned)*100+0.5)) / 100
	}
	doc["chain_step"] = map[string]any{
		"benchmark":   "BenchmarkChainStepPruned: selective cross-match, candidate zone pruning off (PR 4 path) vs on",
		"local_where": p.Steps[0].LocalWhere,
		"seed_tuples": seed.NumRows(),
		"extend": map[string]any{
			"unpruned_ns_per_op": extendUnpruned,
			"pruned_ns_per_op":   extendPruned,
			"speedup":            speedup(extendUnpruned, extendPruned),
		},
		"seed": map[string]any{
			"unpruned_ns_per_op": seedUnpruned,
			"pruned_ns_per_op":   seedPruned,
			"speedup":            speedup(seedUnpruned, seedPruned),
		},
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*benchChainJSON, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("merged chain_step: extend %d -> %d ns/op, seed %d -> %d ns/op",
		extendUnpruned, extendPruned, seedUnpruned, seedPruned)
}
