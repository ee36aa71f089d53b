// Command benchmark is the repo's latency budget: six named workloads over
// in-process federations (Portal + SkyNodes on loopback HTTP, exactly what
// skyquery.Launch builds), driven through the client a remote astronomer
// uses, every answer checked against an independent oracle.
//
//	bash benchmark/run.sh -seed 1                 # every workload, both phases
//	bash benchmark/run.sh -seed 1 -repeat 2       # A/A: two sets, differences beside bounds
//	bash benchmark/run.sh --workload cone_small --seed 7 --seconds 15 --trace 0
//
// With a single --workload the last line of standard output is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// manifest is BENCHMARK.json: the single place metric names, units,
// directions and bounds are declared. The harness reads it so the A/A
// report and the smoke test can never drift from what the driver checks.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest finds BENCHMARK.json from the checkout root (run.sh) or
// from the benchmark directory (go test, go run -C benchmark).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// commit is the VCS revision the binary was built from, when the build
// could see one (the driver's checkout is not a git repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the generated sky and query pool")
	seconds := fs.Float64("seconds", 0, "measured window per run (0 = run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "both", "0 = end-to-end metrics, tracing off; 1 = per-layer metrics, traced; both")
	repeat := fs.Int("repeat", 1, "run the whole set this many times and compare the sets (A/A)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(stderr, "benchmark: -trace wants 0, 1 or both, got %q\n", *trace)
		return 2
	}
	cfg := runConfig{
		seconds: *seconds, scale: 1, setups: 9, minSamples: 100,
		tmpDir: filepath.Join(".bench_build", fmt.Sprintf("tmp-%d", os.Getpid())),
	}
	defer os.RemoveAll(cfg.tmpDir)

	fmt.Fprintf(stdout, "env go_version=%s NumCPU=%d GOMAXPROCS=%d commit=%s seed=%d seconds=%g\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(), *seed, *seconds)

	ctx := context.Background()
	ok := true
	var sets [][]*result // per repeat, the end-to-end results in workload order
	var last *result     // merged result of the only workload, for the JSON line
	traced := map[string]*result{}
	// The pool and the oracle's answers depend on (workload, seed) only:
	// both phases and every -repeat set share them.
	ins := make([]*inputs, len(selected))
	for rep := 0; rep < *repeat; rep++ {
		var set []*result
		for i := range selected {
			w := &selected[i]
			if ins[i] == nil {
				if ins[i], err = w.inputs(ctx, cfg, *seed); err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
					return 1
				}
			}
			merged := &result{workload: w.name}
			if *trace != "1" {
				res, err := runEndToEnd(ctx, cfg, w, *seed, ins[i])
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
					return 1
				}
				printResult(stdout, "end-to-end (tracing off)", res)
				set = append(set, res)
				merged.absorb(res)
			}
			if *trace != "0" {
				res, err := runTraced(ctx, cfg, w, *seed, ins[i])
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
					return 1
				}
				printResult(stdout, "per-layer (traced)", res)
				merged.absorb(res)
				traced[w.name] = res
			}
			if merged.failed > 0 {
				ok = false
				fmt.Fprintf(stderr, "benchmark: %s: %d of %d queries failed, first: %v\n",
					w.name, merged.failed, merged.attempted, merged.firstErr)
			}
			last = merged
		}
		sets = append(sets, set)
	}
	if flat, sharded := traced["xmatch_flat"], traced["xmatch_sharded"]; flat != nil && sharded != nil {
		printShardBudget(stdout, flat, sharded)
	}
	if *repeat > 1 && *trace != "1" {
		if !printAA(stdout, man, sets) {
			ok = false
		}
	}
	if len(selected) == 1 {
		fmt.Fprintln(stdout, last.jsonLine())
	}
	if !ok {
		return 1
	}
	return 0
}

func (r *result) absorb(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.metrics = append(r.metrics, o.metrics...)
}

func printResult(w io.Writer, phase string, r *result) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", r.workload, phase)
	fmt.Fprintf(w, "   attempted=%d failed=%d failed_ratio=%g samples=%d plan_order=%s\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.samples, r.planOrder)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "   %-26s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// jsonLine renders the contract's result object.
func (r *result) jsonLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mv{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = mv{m.value, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf metric can fail to marshal: a harness bug.
		panic(err)
	}
	return string(data)
}

// printAA compares the first two sets of end-to-end results of the same
// build: per workload x metric, the relative difference beside its bound.
// A set-up that differs by less than setupFloor seconds is within bounds
// whatever its share: a 55 ms set-up moves by a quarter on scheduler noise.
// It returns false when any pair exceeds its bound.
const setupFloor = 0.05

func printAA(w io.Writer, man *manifest, sets [][]*result) bool {
	fmt.Fprintf(w, "\n== A/A: set 1 vs set 2, same build ==\n")
	fmt.Fprintf(w, "   %-16s %-20s %12s %12s %8s %7s\n", "workload", "metric", "set1", "set2", "diff", "bound")
	within := true
	for i, a := range sets[0] {
		b := sets[1][i]
		if a.planOrder != b.planOrder {
			within = false
			fmt.Fprintf(w, "   %-16s plan_order differs: %q vs %q  <-- FIRST SUSPECT\n", a.workload, a.planOrder, b.planOrder)
		}
		for _, d := range man.EndToEnd {
			va, vb := a.value(d.Name), b.value(d.Name)
			diff := (vb - va) / va
			flag := ""
			if math.Abs(diff) > d.Bound && !(d.Name == "setup_s" && math.Abs(vb-va) <= setupFloor) {
				within = false
				flag = "  <-- exceeds bound"
			}
			fmt.Fprintf(w, "   %-16s %-20s %12.4f %12.4f %+7.1f%% %6.0f%%%s\n",
				a.workload, d.Name, va, vb, 100*diff, 100*d.Bound, flag)
		}
	}
	return within
}

// printShardBudget answers ROADMAP item 1's first customer from the two
// traced runs: where the latency gap between the sharded and the flat
// federation goes. The three shares are measured separately and overlap
// (every step call pays the RPC floor), so they need not sum to the gap.
func printShardBudget(w io.Writer, flat, sharded *result) {
	gap := sharded.value("traced_p50_ms") - flat.value("traced_p50_ms")
	steps := func(r *result) float64 { return r.value("step_seed_ms") + r.value("step_extend_ms") }
	rpc := func(r *result) float64 { return r.value("rpc_calls_per_query") * r.value("rpc_floor_us") / 1000 }
	fmt.Fprintf(w, "\n== shard overhead budget: xmatch_sharded - xmatch_flat ==\n")
	fmt.Fprintf(w, "   query p50                   %8.2f - %8.2f = %8.2f ms\n",
		sharded.value("traced_p50_ms"), flat.value("traced_p50_ms"), gap)
	fmt.Fprintf(w, "   step walls (seed+extend)    %8.2f - %8.2f = %8.2f ms  (%.0f%% of the gap)\n",
		steps(sharded), steps(flat), steps(sharded)-steps(flat), 100*(steps(sharded)-steps(flat))/gap)
	fmt.Fprintf(w, "     per-shard calls, summed   %8.2f ms over %d cores; slowest per step %8.2f ms\n",
		sharded.value("shard_step_sum_ms"), runtime.NumCPU(), sharded.value("shard_step_max_ms"))
	fmt.Fprintf(w, "     extend cost per tuple     %8.0f vs %8.0f ns\n",
		sharded.value("extend_ns_per_tuple"), flat.value("extend_ns_per_tuple"))
	fmt.Fprintf(w, "   portal_self_ms              %8.2f vs %8.2f ms\n",
		sharded.value("portal_self_ms"), flat.value("portal_self_ms"))
	fmt.Fprintf(w, "   rpc_calls x rpc_floor       %8.2f - %8.2f = %8.2f ms  (%.0f calls vs %.0f)\n",
		rpc(sharded), rpc(flat), rpc(sharded)-rpc(flat),
		sharded.value("rpc_calls_per_query"), flat.value("rpc_calls_per_query"))
	fmt.Fprintf(w, "   bytes per query             %8.1f KB stash hop + %8.1f KB to nodes (flat: %.1f KB to nodes)\n",
		sharded.value("hop_stash_kb"), sharded.value("hop_node_kb"), flat.value("hop_node_kb"))
}

func (r *result) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}
