package skynode

import (
	"strings"
	"testing"

	"skyquery/internal/core"
	"skyquery/internal/dataset"
	"skyquery/internal/plan"
	"skyquery/internal/soap"
	"skyquery/internal/storage"
	"skyquery/internal/survey"
	"skyquery/internal/value"
)

// pruneNodes builds multi-zone-block archives (several thousand rows each,
// ZoneBlockRows = 1024) so candidate pruning has blocks to kill, without
// any SOAP plumbing — the tests drive execStep directly.
func pruneNodes(t *testing.T, bodies int) map[string]*Node {
	t.Helper()
	field := survey.GenerateField(testRegion(), bodies, 0.4, 1001)
	nodes := map[string]*Node{}
	for _, cfg := range defaultConfigs() {
		a := survey.Observe(field, cfg)
		db, err := a.BuildDB()
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{Name: cfg.Name, DB: db, PrimaryTable: survey.TableName,
			RACol: "ra", DecCol: "dec", SigmaArcsec: cfg.SigmaArcsec})
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table(survey.TableName)
		if tab.RowCount() < 2*storage.ZoneBlockRows {
			t.Fatalf("%s: only %d rows — not enough zone blocks for a pruning test", cfg.Name, tab.RowCount())
		}
		nodes[cfg.Name] = n
	}
	return nodes
}

func prunePlan(steps ...plan.Step) *plan.Plan {
	return &plan.Plan{
		QueryID:   "prune-test",
		Threshold: 3.5,
		Area:      plan.Area{RA: 185, Dec: -0.5, RadiusArcsec: 900},
		Steps:     steps,
	}
}

func sameDataSet(t *testing.T, label string, got, want *dataset.DataSet) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: %d columns, want %d", label, len(got.Columns), len(want.Columns))
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if !value.Equal(g, w) || g.Type() != w.Type() {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, i, j, g, w)
			}
		}
	}
}

// execStep runs one chain step in process, without any SOAP plumbing:
// in (nil for the seed step) is handed over as a single page, and the
// output pages are collected as a parked reply collects them.
func (n *Node) execStep(p *plan.Plan, step plan.Step, in *dataset.DataSet) (*dataset.DataSet, error) {
	var src dataset.Pages
	if in != nil {
		src = core.NewSliceStream(in, len(in.Rows))
	}
	resp, err := n.chunks.Reply(&soap.Request{}, 0, func(sw *soap.StreamWriter) error {
		return n.chainStep(p, step, src, "test input", n.cfg.ChunkRows, sw)
	})
	if err != nil {
		return nil, err
	}
	return resp.(*soap.ChunkedData).Data, nil
}

// runStep executes one execStep with candidate pruning on or off and
// returns the output plus the counter deltas.
func runStep(t *testing.T, n *Node, p *plan.Plan, step plan.Step, in *dataset.DataSet, prune bool) (out *dataset.DataSet, blocksPruned, rowsGathered int64) {
	t.Helper()
	prev := SetCandPrune(prune)
	defer SetCandPrune(prev)
	b0, r0 := storage.CandBlocksPruned(), storage.CandRowsGathered()
	out, err := n.execStep(p, step, in)
	if err != nil {
		t.Fatalf("execStep: %v", err)
	}
	return out, storage.CandBlocksPruned() - b0, storage.CandRowsGathered() - r0
}

// TestSeedStepCandPruning: a prunable seed predicate must produce the
// identical data set while gathering strictly fewer candidates and
// pruning at least one block.
func TestSeedStepCandPruning(t *testing.T) {
	nodes := pruneNodes(t, 5000)
	step := plan.Step{Archive: "SDSS", Alias: "O", Table: survey.TableName, SigmaArcsec: 0.1,
		LocalWhere: "O.ra < 184.92 AND O.flux > 0", Columns: []string{"object_id", "flux"}}
	p := prunePlan(step)

	want, b0, r0 := runStep(t, nodes["SDSS"], p, step, nil, false)
	got, b1, r1 := runStep(t, nodes["SDSS"], p, step, nil, true)
	sameDataSet(t, "seed", got, want)
	if want.NumRows() == 0 {
		t.Fatal("degenerate test: seed produced no tuples")
	}
	if b0 != 0 {
		t.Errorf("unpruned run pruned %d blocks", b0)
	}
	if b1 == 0 {
		t.Error("pruned run pruned no blocks")
	}
	if r1 >= r0 {
		t.Errorf("pruned run gathered %d candidate rows, unpruned %d — expected a cut", r1, r0)
	}
}

// TestExtendStepCandPruning: the mandatory-archive step with a prunable
// local predicate (plus a cross predicate to keep that path exercised)
// must extend identically, at parallelism 1 and 4.
func TestExtendStepCandPruning(t *testing.T) {
	nodes := pruneNodes(t, 5000)
	seedStep := plan.Step{Archive: "TWOMASS", Alias: "T", Table: survey.TableName, SigmaArcsec: 0.2,
		Columns: []string{"object_id", "flux"}}
	extStep := plan.Step{Archive: "SDSS", Alias: "O", Table: survey.TableName, SigmaArcsec: 0.1,
		LocalWhere: "O.ra < 184.92", CrossWhere: []string{"O.flux - T.flux > -100"},
		Columns: []string{"object_id", "flux"}}
	p := prunePlan(extStep, seedStep)

	seed, _, _ := runStep(t, nodes["TWOMASS"], p, seedStep, nil, false)
	if seed.NumRows() == 0 {
		t.Fatal("degenerate test: empty seed")
	}
	want, _, r0 := runStep(t, nodes["SDSS"], p, extStep, seed, false)
	got, b1, r1 := runStep(t, nodes["SDSS"], p, extStep, seed, true)
	sameDataSet(t, "extend", got, want)
	if want.NumRows() == 0 {
		t.Fatal("degenerate test: no extended tuples")
	}
	if b1 == 0 || r1 >= r0 {
		t.Errorf("pruned extend: %d blocks pruned, %d rows gathered (unpruned %d)", b1, r1, r0)
	}

	p4 := *p
	p4.Parallelism = 4
	got4, _, _ := runStep(t, nodes["SDSS"], &p4, extStep, seed, true)
	sameDataSet(t, "extend par=4", got4, want)
}

// TestDropOutStepCandPruning: a prunable veto predicate must veto the
// identical tuple set — pruning can never flip a veto.
func TestDropOutStepCandPruning(t *testing.T) {
	nodes := pruneNodes(t, 5000)
	seedStep := plan.Step{Archive: "TWOMASS", Alias: "T", Table: survey.TableName, SigmaArcsec: 0.2,
		Columns: []string{"object_id"}}
	dropStep := plan.Step{Archive: "FIRST", Alias: "P", Table: survey.TableName, SigmaArcsec: 0.4,
		LocalWhere: "P.ra < 184.92", DropOut: true}
	p := prunePlan(dropStep, seedStep)

	seed, _, _ := runStep(t, nodes["TWOMASS"], p, seedStep, nil, false)
	want, _, r0 := runStep(t, nodes["FIRST"], p, dropStep, seed, false)
	got, b1, r1 := runStep(t, nodes["FIRST"], p, dropStep, seed, true)
	sameDataSet(t, "dropout", got, want)
	if want.NumRows() == 0 || want.NumRows() == seed.NumRows() {
		t.Fatalf("degenerate test: %d of %d tuples survived the veto", want.NumRows(), seed.NumRows())
	}
	if b1 == 0 || r1 >= r0 {
		t.Errorf("pruned dropout: %d blocks pruned, %d rows gathered (unpruned %d)", b1, r1, r0)
	}
}

// TestCandPruningErrorOrderExactness pins the prune conditions against
// the row engines' AND short-circuit: a prunable conjunct ahead of an
// erroring one may hide the error (the row engines short-circuit it away
// anyway), while an erroring conjunct ahead of the prunable one disables
// pruning so the error surfaces — identically on both paths.
func TestCandPruningErrorOrderExactness(t *testing.T) {
	nodes := pruneNodes(t, 5000)

	// Prunable-first: object_id < 0 is FALSE on every row, so the row
	// engines never evaluate the division. All blocks prune (PrefixSafe,
	// no NULLs) and nothing errors on either path.
	safe := plan.Step{Archive: "SDSS", Alias: "O", Table: survey.TableName, SigmaArcsec: 0.1,
		LocalWhere: "O.object_id < 0 AND O.flux / 0 > 1", Columns: []string{"object_id"}}
	p := prunePlan(safe)
	want, _, _ := runStep(t, nodes["SDSS"], p, safe, nil, false)
	got, b1, r1 := runStep(t, nodes["SDSS"], p, safe, nil, true)
	sameDataSet(t, "prunable-first", got, want)
	if want.NumRows() != 0 {
		t.Fatalf("prunable-first produced %d tuples, want 0", want.NumRows())
	}
	if b1 == 0 || r1 != 0 {
		t.Errorf("prunable-first: %d blocks pruned, %d rows gathered — want every block pruned, zero gathers", b1, r1)
	}

	// Error-first: the division precedes the prunable conjunct, so
	// PrefixSafe is false, nothing prunes, and both paths surface the
	// same error.
	errStep := safe
	errStep.LocalWhere = "O.flux / 0 > 1 AND O.object_id < 0"
	pErr := prunePlan(errStep)
	run := func(prune bool) error {
		prev := SetCandPrune(prune)
		defer SetCandPrune(prev)
		_, err := nodes["SDSS"].execStep(pErr, errStep, nil)
		return err
	}
	e0, e1 := run(false), run(true)
	if e0 == nil || e1 == nil {
		t.Fatalf("error-first: errors = (%v, %v), want both non-nil", e0, e1)
	}
	if e0.Error() != e1.Error() {
		t.Errorf("error-first: pruned error %q != unpruned %q", e1, e0)
	}
	if !strings.Contains(e0.Error(), "zero") && !strings.Contains(e0.Error(), "division") {
		t.Logf("note: error text is %q", e0)
	}
}

// TestCandPruningAllNullColumn: the flags column is NULL everywhere, so a
// statically error-free comparison against it prunes every block — the
// chain step answers from zone statistics alone.
func TestCandPruningAllNullColumn(t *testing.T) {
	nodes := pruneNodes(t, 5000)
	step := plan.Step{Archive: "SDSS", Alias: "O", Table: survey.TableName, SigmaArcsec: 0.1,
		LocalWhere: "O.flags = 1", Columns: []string{"object_id"}}
	p := prunePlan(step)
	want, _, r0 := runStep(t, nodes["SDSS"], p, step, nil, false)
	got, b1, r1 := runStep(t, nodes["SDSS"], p, step, nil, true)
	sameDataSet(t, "all-null", got, want)
	if want.NumRows() != 0 {
		t.Fatalf("all-null flags matched %d tuples", want.NumRows())
	}
	if r0 == 0 {
		t.Fatal("degenerate test: the unpruned run had no candidates")
	}
	if b1 == 0 || r1 != 0 {
		t.Errorf("all-null: %d blocks pruned, %d rows gathered — want every block pruned, zero gathers", b1, r1)
	}
}
