package skynode

import (
	"fmt"
	"testing"

	"skyquery/internal/dataset"
	"skyquery/internal/plan"
	"skyquery/internal/sphere"
	"skyquery/internal/survey"
)

// benchChainNodes builds the two-archive federation the chain-step
// benchmarks share: ~23k-row archives (two dozen zone blocks each) with a
// deliberately sloppy astrometry (σ = 5") so each tuple's search cap
// holds dozens of candidates — the regime where per-candidate work, not
// per-tuple HTM cover computation, dominates the extend step.
func benchChainNodes(b testing.TB) []*Node {
	field := survey.GenerateField(sphere.NewCap(185, -0.5, 0.25), 24000, 0.4, 1001)
	var nodes []*Node
	for _, cfg := range defaultConfigs()[:2] {
		cfg.SigmaArcsec = 5
		a := survey.Observe(field, cfg)
		db, err := a.BuildDB()
		if err != nil {
			b.Fatal(err)
		}
		n, err := New(Config{Name: cfg.Name, DB: db, PrimaryTable: survey.TableName,
			RACol: "ra", DecCol: "dec", SigmaArcsec: cfg.SigmaArcsec})
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// benchChainPlan is the selective cross-match of BenchmarkChainStepPruned:
// the extend step's local predicate zone-kills every SDSS block but the
// first, so pre-gather pruning drops most candidates below the HTM search.
func benchChainPlan() *plan.Plan {
	return &plan.Plan{
		QueryID:   "bench-pruned",
		Threshold: 3.5,
		Area:      plan.Area{RA: 185, Dec: -0.5, RadiusArcsec: 900},
		Steps: []plan.Step{
			{Archive: "SDSS", Alias: "O", Endpoint: "x", Table: survey.TableName, SigmaArcsec: 5,
				LocalWhere: "O.object_id <= 1024", Columns: []string{"object_id", "flux"}},
			{Archive: "TWOMASS", Alias: "T", Endpoint: "x", Table: survey.TableName, SigmaArcsec: 5,
				Columns: []string{"object_id", "flux"}},
		},
	}
}

// runBenchChainStep seeds TWOMASS once and times the SDSS extend step
// with candidate pruning on or off.
func runBenchChainStep(b *testing.B, nodes []*Node, p *plan.Plan, seed *dataset.DataSet, prune bool) *dataset.DataSet {
	prev := SetCandPrune(prune)
	defer SetCandPrune(prev)
	var out *dataset.DataSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = nodes[0].localStep(p, p.Steps[0], seed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return out
}

// BenchmarkChainStepPruned measures predicate pushdown below the HTM
// search: the same selective extend step with candidate zone pruning off
// (the PR 4 path) and on, with an output-identity check between the two.
func BenchmarkChainStepPruned(b *testing.B) {
	nodes := benchChainNodes(b)
	p := benchChainPlan()
	seed, err := nodes[1].localStep(p, p.Steps[1], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("seed tuples: %d", seed.NumRows())
	var unpruned, pruned *dataset.DataSet
	b.Run("extend-unpruned", func(b *testing.B) {
		unpruned = runBenchChainStep(b, nodes, p, seed, false)
	})
	b.Run("extend-pruned", func(b *testing.B) {
		pruned = runBenchChainStep(b, nodes, p, seed, true)
	})
	if unpruned.NumRows() != pruned.NumRows() || pruned.NumRows() == 0 {
		b.Fatalf("extend output identity: pruned %d rows, unpruned %d", pruned.NumRows(), unpruned.NumRows())
	}

	// The seed step of the same selective cross-match: one region search
	// over the whole archive, where pruning drops every candidate of a
	// dead block before its position is even computed.
	seedPlan := benchChainPlan()
	seedStep := seedPlan.Steps[0] // the SDSS step with the prunable predicate
	var seedUnpruned, seedPruned *dataset.DataSet
	b.Run("seed-unpruned", func(b *testing.B) {
		prev := SetCandPrune(false)
		defer SetCandPrune(prev)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if seedUnpruned, err = nodes[0].localStep(seedPlan, seedStep, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seed-pruned", func(b *testing.B) {
		prev := SetCandPrune(true)
		defer SetCandPrune(prev)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if seedPruned, err = nodes[0].localStep(seedPlan, seedStep, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	if seedUnpruned.NumRows() != seedPruned.NumRows() || seedPruned.NumRows() == 0 {
		b.Fatalf("seed output identity: pruned %d rows, unpruned %d", seedPruned.NumRows(), seedUnpruned.NumRows())
	}
}

// BenchmarkLocalStep isolates one extend step from the SOAP plumbing: the
// seed tuples are produced once, then the mandatory step over the densest
// archive is timed at several worker counts.
func BenchmarkLocalStep(b *testing.B) {
	field := survey.GenerateField(sphere.NewCap(185, -0.5, 0.25), 24000, 0.4, 1001)
	var nodes []*Node
	for _, cfg := range defaultConfigs() {
		a := survey.Observe(field, cfg)
		db, err := a.BuildDB()
		if err != nil {
			b.Fatal(err)
		}
		n, err := New(Config{Name: cfg.Name, DB: db, PrimaryTable: survey.TableName,
			RACol: "ra", DecCol: "dec", SigmaArcsec: cfg.SigmaArcsec})
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	p := &plan.Plan{
		QueryID:   "bench",
		Threshold: 3.5,
		Area:      plan.Area{RA: 185, Dec: -0.5, RadiusArcsec: 900},
		Steps: []plan.Step{
			{Archive: "SDSS", Alias: "O", Endpoint: "x", Table: survey.TableName, SigmaArcsec: 0.1, Columns: []string{"object_id", "flux"}},
			{Archive: "TWOMASS", Alias: "T", Endpoint: "x", Table: survey.TableName, SigmaArcsec: 0.2, Columns: []string{"object_id", "flux"}},
		},
	}
	var seed *dataset.DataSet
	{
		var err error
		seed, err = nodes[1].localStep(p, p.Steps[1], nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("seed tuples: %d", seed.NumRows())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			p2 := *p
			p2.Parallelism = workers
			for i := 0; i < b.N; i++ {
				out, err := nodes[0].localStep(&p2, p2.Steps[0], seed)
				if err != nil {
					b.Fatal(err)
				}
				if out.NumRows() == 0 {
					b.Fatal("no tuples")
				}
			}
		})
	}
}

// BenchmarkDropOutStep times a drop-out step on the σ = 5" fixture: each
// seed tuple searches SDSS until its first candidate that passes the veto
// predicate and the chi-square gate. The predicate keeps one object in
// eight, so most tuples are vetoed after a short search and the rest
// drain their whole cap.
func BenchmarkDropOutStep(b *testing.B) {
	nodes := benchChainNodes(b)
	p := benchChainPlan()
	p.Steps[0].DropOut = true
	p.Steps[0].Columns = nil
	p.Steps[0].LocalWhere = "O.object_id % 8 = 0"
	seed, err := nodes[1].localStep(p, p.Steps[1], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("seed tuples: %d", seed.NumRows())
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			p2 := *p
			p2.Parallelism = workers
			var kept int
			for i := 0; i < b.N; i++ {
				out, err := nodes[0].localStep(&p2, p2.Steps[0], seed)
				if err != nil {
					b.Fatal(err)
				}
				if kept = out.NumRows(); kept == 0 || kept >= seed.NumRows() {
					b.Fatalf("%d of %d tuples survived, want some vetoed and some kept", kept, seed.NumRows())
				}
			}
			b.ReportMetric(float64(kept), "kept")
		})
	}
}
