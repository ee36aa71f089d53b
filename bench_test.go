package skyquery

// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (internal/experiments holds the per-experiment index). The
// cmd/skyquery-bench tool prints the same
// experiments as human-readable tables; these testing.B forms measure the
// steady-state cost of each workload and report bytes-on-wire metrics.
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"skyquery/internal/dataset"
	"skyquery/internal/plan"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
	"skyquery/internal/sphere"
	"skyquery/internal/storage"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

const benchQuery = `
	SELECT O.object_id, T.object_id, P.object_id
	FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P
	WHERE AREA(185.0, -0.5, 900) AND XMATCH(O, T, P) < 3.5
	AND O.type = 'GALAXY' AND (O.flux - T.flux) > 2`

// benchFed lazily builds one shared federation for the query benchmarks.
var benchFed = struct {
	once sync.Once
	fed  *Federation
	err  error
}{}

func sharedFed(b *testing.B) *Federation {
	b.Helper()
	benchFed.once.Do(func() {
		benchFed.fed, benchFed.err = Launch(Options{Bodies: 2000})
	})
	if benchFed.err != nil {
		b.Fatal(benchFed.err)
	}
	return benchFed.fed
}

// BenchmarkF1_FederationEndToEnd measures the Figure 1 round trip: a
// client query through the Portal's SOAP service, the count-star fan-out,
// the three-node daisy chain, and the relayed result.
func BenchmarkF1_FederationEndToEnd(b *testing.B) {
	fed := sharedFed(b)
	c := fed.Client()
	fed.Transport.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Query(context.Background(), benchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() == 0 {
			b.Fatal("no matches")
		}
	}
	b.StopTimer()
	stats := fed.Transport.Stats()
	b.ReportMetric(float64(stats.Total())/float64(b.N), "wire-bytes/op")
}

// BenchmarkF2_XMatchSemantics measures the Figure 2 selection logic (the
// accumulator fold plus drop-out veto) on in-memory observations.
func BenchmarkF2_XMatchSemantics(b *testing.B) {
	mk := func(sigma float64, offRA, offDec [2]float64) xmatch.ArchiveSet {
		return xmatch.ArchiveSet{Sigma: sigma, Obs: []xmatch.Observation{
			{Pos: sphere.FromRaDec(184.999+offRA[0], -0.499+offDec[0]), Key: 1},
			{Pos: sphere.FromRaDec(185.001+offRA[1], -0.501+offDec[1]), Key: 2},
		}}
	}
	o := mk(0.10, [2]float64{0, 0}, [2]float64{0, 0})
	t := mk(0.15, [2]float64{Arcsec(0.10), -Arcsec(0.12)}, [2]float64{0, 0})
	p := mk(0.20, [2]float64{0, 0}, [2]float64{Arcsec(0.15), Arcsec(30)})
	pDrop := p
	pDrop.DropOut = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := xmatch.BruteForce([]xmatch.ArchiveSet{o, t, p}, 3.5); len(got) != 1 {
			b.Fatalf("mandatory matches = %d", len(got))
		}
		if got := xmatch.BruteForce([]xmatch.ArchiveSet{o, t, pDrop}, 3.5); len(got) != 1 {
			b.Fatalf("drop-out matches = %d", len(got))
		}
	}
}

// BenchmarkF3_ExecutionTrace measures the full Figure 3 pipeline with
// trace events enabled (the tracing overhead is part of the measurement).
func BenchmarkF3_ExecutionTrace(b *testing.B) {
	var mu sync.Mutex
	events := 0
	fed, err := Launch(Options{
		Bodies:       1200,
		PortalEvents: func(string, string) { mu.Lock(); events++; mu.Unlock() },
		NodeEvents:   func(string, string, string) { mu.Lock(); events++; mu.Unlock() },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fed.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Query(context.Background(), benchQuery); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if events == 0 {
		b.Fatal("no trace events")
	}
}

// planOrderingFixture builds the skewed federation and base plan once.
var planFixture = struct {
	once sync.Once
	fed  *Federation
	base *Plan
	err  error
}{}

func orderingFixture(b *testing.B) (*Federation, *Plan) {
	b.Helper()
	planFixture.once.Do(func() {
		planFixture.fed, planFixture.err = Launch(Options{
			Bodies: 3000,
			Surveys: []SurveySpec{
				{Name: "DEEP", SigmaArcsec: 0.1, Completeness: 0.98, Seed: 31},
				{Name: "MID", SigmaArcsec: 0.2, Completeness: 0.55, Seed: 32},
				{Name: "SPARSE", SigmaArcsec: 0.4, Completeness: 0.12, Seed: 33},
			},
		})
		if planFixture.err != nil {
			return
		}
		planFixture.base, planFixture.err = planFixture.fed.BuildPlan(context.Background(), `
			SELECT d.object_id, m.object_id, s.object_id
			FROM DEEP:PhotoObject d, MID:PhotoObject m, SPARSE:PhotoObject s
			WHERE AREA(185.0, -0.5, 900) AND XMATCH(d, m, s) < 3.5`)
	})
	if planFixture.err != nil {
		b.Fatal(planFixture.err)
	}
	return planFixture.fed, planFixture.base
}

// runPlanData executes a plan by calling the first step's CrossMatch
// service and returns the tuple set that flowed back.
func runPlanData(b *testing.B, fed *Federation, p *Plan) *dataset.DataSet {
	b.Helper()
	c := &soap.Client{HTTPClient: fed.Transport.Client()}
	var first soap.ChunkedData
	if err := c.Call(context.Background(), p.Steps[0].Endpoint, skynode.ActionCrossMatch,
		&skynode.CrossMatchRequest{Plan: *p}, &first); err != nil {
		b.Fatal(err)
	}
	ds, err := soap.FetchAll(context.Background(), c, p.Steps[0].Endpoint, &first)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// runPlan executes a plan and returns its row count.
func runPlan(b *testing.B, fed *Federation, p *Plan) int {
	b.Helper()
	return runPlanData(b, fed, p).NumRows()
}

// BenchmarkC1_PlanOrdering measures the chain under the optimizer's
// count-star order and under the worst order, reporting bytes shipped.
func BenchmarkC1_PlanOrdering(b *testing.B) {
	fed, base := orderingFixture(b)
	run := func(b *testing.B, permute func([]plan.Step) []plan.Step) {
		p := *base
		steps := append([]plan.Step(nil), base.Steps...)
		p.Steps = permute(steps)
		fed.Transport.Reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := runPlan(b, fed, &p); n == 0 {
				b.Fatal("no matches")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(fed.Transport.Stats().Total())/float64(b.N), "wire-bytes/op")
	}
	b.Run("count-star-order", func(b *testing.B) {
		run(b, func(s []plan.Step) []plan.Step { return s })
	})
	b.Run("worst-order", func(b *testing.B) {
		run(b, func(s []plan.Step) []plan.Step {
			for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
				s[i], s[j] = s[j], s[i]
			}
			return s
		})
	})
}

// BenchmarkC2_Chunking measures chunked transfer of a large result at
// several chunk sizes (the monolithic case fails the parser limit and is
// exercised in tests, not benchmarked).
func BenchmarkC2_Chunking(b *testing.B) {
	const rows = 20000
	ds := dataset.New(
		dataset.Column{Name: "object_id", Type: value.IntType},
		dataset.Column{Name: "ra", Type: value.FloatType},
	)
	for i := 0; i < rows; i++ {
		ds.Append([]value.Value{value.Int(int64(i)), value.Float(float64(i) / 7)})
	}
	for _, chunkRows := range []int{500, 2000, 10000} {
		b.Run(fmt.Sprintf("chunk-%d", chunkRows), func(b *testing.B) {
			var cs soap.ChunkStore
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				first := cs.Respond(ds, chunkRows)
				chunks := []*dataset.DataSet{first.Data}
				token := first.Token
				for token != "" {
					next, err := cs.Fetch(token)
					if err != nil {
						b.Fatal(err)
					}
					chunks = append(chunks, next.Data)
					token = next.Token
				}
				got, err := dataset.Join(chunks)
				if err != nil || got.NumRows() != rows {
					b.Fatalf("join: %v rows=%d", err, got.NumRows())
				}
			}
		})
	}
}

// htmFixture is the 200k-object table for the range-search benchmarks.
var htmFixture = struct {
	once sync.Once
	tab  *storage.Table
	err  error
}{}

func htmTable(b *testing.B) *storage.Table {
	b.Helper()
	htmFixture.once.Do(func() {
		tab, err := storage.NewTable("PhotoObject", storage.Schema{
			{Name: "id", Type: value.IntType},
			{Name: "ra", Type: value.FloatType},
			{Name: "dec", Type: value.FloatType},
		})
		if err != nil {
			htmFixture.err = err
			return
		}
		f := GenerateField(NewCap(0, 0, 180), 200000, 0.3, 99)
		for _, body := range f.Bodies {
			ra, dec := body.Pos.RaDec()
			if err := tab.Append(value.Int(body.ID), value.Float(ra), value.Float(dec)); err != nil {
				htmFixture.err = err
				return
			}
		}
		htmFixture.err = tab.EnableSpatial(storage.SpatialConfig{RACol: "ra", DecCol: "dec"})
		htmFixture.tab = tab
	})
	if htmFixture.err != nil {
		b.Fatal(htmFixture.err)
	}
	return htmFixture.tab
}

// BenchmarkC3_HTMRange measures HTM-indexed range search vs full scan.
func BenchmarkC3_HTMRange(b *testing.B) {
	tab := htmTable(b)
	for _, radius := range []float64{Arcsec(60), 1, 10} {
		c := NewCap(180, 0, radius)
		b.Run(fmt.Sprintf("htm-r%.4gdeg", radius), func(b *testing.B) {
			sb := &storage.SearchBatch{Rows: make([]int, 0, 1024)}
			for i := 0; i < b.N; i++ {
				n := 0
				if err := tab.SearchCapBatch(c, sb, func(rows []int, _ []sphere.Vec) bool { n += len(rows); return true }); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan-r%.4gdeg", radius), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				tab.Scan(func(row int) bool {
					ra, _ := tab.Value(row, 1).AsFloat()
					dec, _ := tab.Value(row, 2).AsFloat()
					if c.Contains(sphere.FromRaDec(ra, dec)) {
						n++
					}
					return true
				})
			}
		})
	}
}

// soapFixture is the 10k-row data set for serialization benchmarks.
var soapFixture = struct {
	once sync.Once
	ds   *dataset.DataSet
	xml  []byte
	bin  []byte
}{}

func overheadFixture(b *testing.B) *dataset.DataSet {
	b.Helper()
	soapFixture.once.Do(func() {
		ds := dataset.New(
			dataset.Column{Name: "object_id", Type: value.IntType},
			dataset.Column{Name: "ra", Type: value.FloatType},
			dataset.Column{Name: "dec", Type: value.FloatType},
			dataset.Column{Name: "type", Type: value.StringType},
		)
		for i := 0; i < 10000; i++ {
			ds.Append([]value.Value{
				value.Int(int64(i)), value.Float(float64(i) * 0.036),
				value.Float(float64(i%180) - 90), value.String("GALAXY"),
			})
		}
		var xmlBuf, binBuf bytes.Buffer
		ds.EncodeXML(&xmlBuf)
		ds.EncodeBinary(&binBuf)
		soapFixture.ds = ds
		soapFixture.xml = xmlBuf.Bytes()
		soapFixture.bin = binBuf.Bytes()
	})
	return soapFixture.ds
}

// BenchmarkC4_SOAPOverhead measures XML vs binary encode/decode of a
// 10k-row result set.
func BenchmarkC4_SOAPOverhead(b *testing.B) {
	ds := overheadFixture(b)
	b.Run("xml-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := ds.EncodeXML(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
	b.Run("xml-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(soapFixture.xml)))
		for i := 0; i < b.N; i++ {
			if _, err := dataset.DecodeXML(bytes.NewReader(soapFixture.xml)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := ds.EncodeBinary(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
	b.Run("binary-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(soapFixture.bin)))
		for i := 0; i < b.N; i++ {
			if _, err := dataset.DecodeBinary(bytes.NewReader(soapFixture.bin)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkC5_ChainVsPull measures the daisy chain against the
// pull-to-portal baseline on the same query, reporting wire bytes.
func BenchmarkC5_ChainVsPull(b *testing.B) {
	fed := sharedFed(b)
	b.Run("chain", func(b *testing.B) {
		fed.Transport.Reset()
		for i := 0; i < b.N; i++ {
			if _, err := fed.Query(context.Background(), benchQuery); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(fed.Transport.Stats().Total())/float64(b.N), "wire-bytes/op")
	})
	b.Run("pull", func(b *testing.B) {
		fed.Transport.Reset()
		for i := 0; i < b.N; i++ {
			if _, err := fed.PullQuery(context.Background(), benchQuery); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(fed.Transport.Stats().Total())/float64(b.N), "wire-bytes/op")
	})
}

// parallelChainFixture is the heavier federation for the parallel-chain
// worker sweep: the Figure 3 three-survey pipeline, enough bodies that the
// chain-step compute (predicate evaluation, HTM searches, accumulator
// folds) dominates the SOAP plumbing.
var parallelChainFixture = struct {
	once sync.Once
	fed  *Federation
	base *Plan
	err  error
}{}

func parallelFixture(b *testing.B) (*Federation, *Plan) {
	b.Helper()
	parallelChainFixture.once.Do(func() {
		// Nodes are launched with Parallelism unset so each plan's hint
		// (set per sub-benchmark below) picks the worker count. A dense
		// field makes the per-tuple search-and-evaluate work (which
		// parallelizes) dominate the per-tuple SOAP serialization (which
		// does not); large chunks cut fetch round-trips.
		parallelChainFixture.fed, parallelChainFixture.err = Launch(Options{Bodies: 24000, ChunkRows: 50000})
		if parallelChainFixture.err != nil {
			return
		}
		parallelChainFixture.base, parallelChainFixture.err = parallelChainFixture.fed.BuildPlan(context.Background(), benchQuery)
	})
	if parallelChainFixture.err != nil {
		b.Fatal(parallelChainFixture.err)
	}
	return parallelChainFixture.fed, parallelChainFixture.base
}

// BenchmarkC5_ParallelChain sweeps the chain-step worker count over the
// Figure 3 pipeline via the plan's Parallelism hint. Before timing, each
// setting's output is verified row-for-row identical (including order) to
// the sequential run, so the speedup is measured on provably equivalent
// work. The sweep needs real cores: on a single-CPU host every setting
// runs in the same wall time (which bounds the executor's scheduling
// overhead — it should be within noise of workers-1).
func BenchmarkC5_ParallelChain(b *testing.B) {
	fed, base := parallelFixture(b)
	seqPlan := *base
	seqPlan.Parallelism = 1
	seq := runPlanData(b, fed, &seqPlan)
	if seq.NumRows() == 0 {
		b.Fatal("no matches; the sweep would measure nothing")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			p := *base
			p.Parallelism = workers
			got := runPlanData(b, fed, &p)
			if d := diffDataSets(seq, got); d != "" {
				b.Fatalf("workers=%d output differs from sequential: %s", workers, d)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := runPlan(b, fed, &p); n != seq.NumRows() {
					b.Fatalf("rows = %d, want %d", n, seq.NumRows())
				}
			}
		})
	}
}

// BenchmarkC6_Scaling measures query cost as archives are added.
func BenchmarkC6_Scaling(b *testing.B) {
	for n := 2; n <= 4; n++ {
		b.Run(fmt.Sprintf("archives-%d", n), func(b *testing.B) {
			var surveys []SurveySpec
			from, aliases := "", ""
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("S%d", i+1)
				surveys = append(surveys, SurveySpec{
					Name: name, SigmaArcsec: 0.1 + 0.1*float64(i),
					Completeness: 0.9, Seed: int64(41 + i),
				})
				alias := fmt.Sprintf("a%d", i+1)
				if i > 0 {
					from += ", "
					aliases += ", "
				}
				from += fmt.Sprintf("%s:PhotoObject %s", name, alias)
				aliases += alias
			}
			fed, err := Launch(Options{Bodies: 1500, Surveys: surveys})
			if err != nil {
				b.Fatal(err)
			}
			defer fed.Close()
			sql := fmt.Sprintf(`SELECT a1.object_id FROM %s
				WHERE AREA(185.0, -0.5, 900) AND XMATCH(%s) < 3.5`, from, aliases)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fed.Query(context.Background(), sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC7_PerfQueries isolates the count-star planning phase from the
// full cross match it optimizes.
func BenchmarkC7_PerfQueries(b *testing.B) {
	fed := sharedFed(b)
	b.Run("plan-only", func(b *testing.B) {
		fed.Transport.Reset()
		for i := 0; i < b.N; i++ {
			if _, err := fed.BuildPlan(context.Background(), benchQuery); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(fed.Transport.Stats().Total())/float64(b.N), "wire-bytes/op")
	})
	b.Run("full-query", func(b *testing.B) {
		fed.Transport.Reset()
		for i := 0; i < b.N; i++ {
			if _, err := fed.Query(context.Background(), benchQuery); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(fed.Transport.Stats().Total())/float64(b.N), "wire-bytes/op")
	})
}
