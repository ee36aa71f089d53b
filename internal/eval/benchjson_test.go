package eval

// The benchmark trajectory: a machine-readable snapshot of the two
// expression engines on the canonical 10k-row selective scan, written to
// BENCH_scan.json at the repository root and checked in per PR so the
// perf history lives in version control (CI also uploads it as an
// artifact). Regenerate with the single documented command:
//
//	go test ./internal/eval/ -run TestWriteBenchScanJSON -bench-scan-json "$(pwd)/BENCH_scan.json"
//
// The file is only written when the flag is set; the test is otherwise a
// no-op skip, so `go test ./...` stays deterministic.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"skyquery/internal/sqlparse"
)

var benchScanJSON = flag.String("bench-scan-json", "", "write the 10k-row scan benchmark JSON to this path")

// benchScanEngine is one engine's measurement in BENCH_scan.json.
type benchScanEngine struct {
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerRow    float64 `json:"ns_per_row"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type benchScanFile struct {
	Benchmark  string                     `json:"benchmark"`
	Expr       string                     `json:"expr"`
	Rows       int                        `json:"rows"`
	BatchSize  int                        `json:"batch_size"`
	GoVersion  string                     `json:"go_version"`
	Engines    map[string]benchScanEngine `json:"engines"`
	SpeedupVsI map[string]float64         `json:"speedup_vs_interpreted"`
}

// benchScanRowCount is the canonical scan size of the trajectory (and of
// the perf-regression gate re-measuring it).
const benchScanRowCount = 10000

// measureScanEngines runs the canonical selective scan through both
// engines under testing.Benchmark and returns their measurements. Shared
// by the trajectory writer and TestPerfRegressionGate.
func measureScanEngines(t *testing.T) map[string]benchScanEngine {
	t.Helper()
	e, err := sqlparse.ParseExpr(benchExpr)
	if err != nil {
		t.Fatal(err)
	}
	const nRows = benchScanRowCount
	rows := benchScanRows(nRows)

	tprog, err := CompileTyped(e, stdLayout)
	if err != nil {
		t.Fatal(err)
	}

	// The interpreted engine needs per-row environments; build them (and
	// the batches) outside the measured loops, like the benchmarks do.
	envs := make([]MapEnv, len(rows))
	for i, row := range rows {
		envs[i] = envFromLayout(stdLayout, row)
	}
	typed := scanBatches(rows)
	tev := tprog.NewEval(DefaultBatchSize)
	defer tev.Release()

	engines := map[string]func(b *testing.B){
		"interpreted": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := range rows {
					if _, err := EvalBool(e, envs[r]); err != nil {
						b.Fatal(err)
					}
				}
			}
		},
		"typed-batch": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, bt := range typed {
					if _, _, err := tprog.Filter(tev, bt, tev.Seq(bt.Len())); err != nil {
						b.Fatal(err)
					}
				}
			}
		},
	}

	out := map[string]benchScanEngine{}
	for name, fn := range engines {
		res := testing.Benchmark(fn)
		out[name] = benchScanEngine{
			NsPerOp:     res.NsPerOp(),
			NsPerRow:    float64(res.NsPerOp()) / nRows,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
	}
	return out
}

func TestWriteBenchScanJSON(t *testing.T) {
	if *benchScanJSON == "" {
		t.Skip("pass -bench-scan-json=PATH to write BENCH_scan.json")
	}
	out := benchScanFile{
		Benchmark: "selective WHERE scan, two engines, one op = all rows",
		Expr:      benchExpr,
		Rows:      benchScanRowCount,
		BatchSize: DefaultBatchSize,
		GoVersion: runtime.Version(),
		Engines:   measureScanEngines(t),
	}
	base := out.Engines["interpreted"].NsPerOp
	out.SpeedupVsI = map[string]float64{}
	for name, e := range out.Engines {
		if e.NsPerOp > 0 {
			out.SpeedupVsI[name] = round2(float64(base) / float64(e.NsPerOp))
		}
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*benchScanJSON, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", *benchScanJSON, summary(out))
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }

func summary(f benchScanFile) string {
	s := ""
	for _, name := range []string{"interpreted", "typed-batch"} {
		e := f.Engines[name]
		s += fmt.Sprintf("%s %.1f ns/row (%d allocs); ", name, e.NsPerRow, e.AllocsPerOp)
	}
	return s
}
