package storage

import (
	"testing"

	"skyquery/internal/eval"
	"skyquery/internal/sphere"
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// prunableSet parses a WHERE source and extracts its prune set against the
// table's schema layout, as Select and the chain steps do.
func prunableSet(t *testing.T, tab *Table, src string) eval.PruneSet {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	return eval.AnalyzePrune(e, tab.Layout(""), func(s int) value.Type { return tab.Schema()[s].Type })
}

// TestSearchCapBatchMatchesPerRow pins the batch search against a
// row-at-a-time full scan — the same row set, each with its own
// position — and checks that degenerate batch limits, including the
// final partial flush, yield the rows of a single whole-table batch in
// the same order.
func TestSearchCapBatchMatchesPerRow(t *testing.T) {
	tab, err := NewTable("obj", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillObjects(t, tab, 3000, 42)
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	c := sphere.NewCap(10, 20, 60)

	wantRows, wantPos := searchRows(t, tab, c)
	if len(wantRows) == 0 {
		t.Fatal("test cap matched no rows")
	}
	inCap := map[int]bool{}
	tab.Scan(func(row int) bool {
		if pos, _ := tab.Position(row); c.Contains(pos) {
			inCap[row] = true
		}
		return true
	})
	if len(inCap) != len(wantRows) {
		t.Fatalf("search found %d rows, scan %d", len(wantRows), len(inCap))
	}
	for i, row := range wantRows {
		if pos, _ := tab.Position(row); !inCap[row] || pos != wantPos[i] {
			t.Fatalf("row %d: in cap %v, position %v, want %v", row, inCap[row], wantPos[i], pos)
		}
	}

	for _, limit := range []int{1, 7, 1024} {
		sb := &SearchBatch{Rows: make([]int, 0, limit), Pos: make([]sphere.Vec, 0, limit)}
		var gotRows []int
		var gotPos []sphere.Vec
		batches := 0
		if err := tab.SearchCapBatch(c, sb, func(rows []int, pos []sphere.Vec) bool {
			if len(rows) == 0 || len(rows) > limit || len(pos) != len(rows) {
				t.Fatalf("limit %d: bad batch shape %d rows / %d pos", limit, len(rows), len(pos))
			}
			gotRows = append(gotRows, rows...)
			gotPos = append(gotPos, pos...)
			batches++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(gotRows) != len(wantRows) {
			t.Fatalf("limit %d: %d rows, want %d", limit, len(gotRows), len(wantRows))
		}
		for i := range gotRows {
			if gotRows[i] != wantRows[i] || gotPos[i] != wantPos[i] {
				t.Fatalf("limit %d: row %d = (%d, %v), want (%d, %v)",
					limit, i, gotRows[i], gotPos[i], wantRows[i], wantPos[i])
			}
		}
		if wantBatches := (len(wantRows) + limit - 1) / limit; batches != wantBatches {
			t.Errorf("limit %d: %d batches, want %d", limit, batches, wantBatches)
		}
	}

	// fn returning false stops the search: exactly one batch arrives.
	sb := &SearchBatch{Rows: make([]int, 0, 8)}
	calls := 0
	if err := tab.SearchCapBatch(c, sb, func([]int, []sphere.Vec) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("stopped search delivered %d batches", calls)
	}

	// A buffer-less search is an error, not a silent no-op.
	if err := tab.SearchCapBatch(c, &SearchBatch{}, func([]int, []sphere.Vec) bool { return true }); err == nil {
		t.Fatal("expected an error for a SearchBatch without buffers")
	}
}

// TestCandPrunerDropsDeadBlocks proves candidates from provably dead zone
// blocks never enter a batch: object_id equals the row index, so a
// comparison against a constant kills exactly the trailing blocks.
func TestCandPrunerDropsDeadBlocks(t *testing.T) {
	tab, err := NewTable("obj", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillObjects(t, tab, 3000, 42) // 3 zone blocks; block b holds object_ids [1024b, 1024b+1023]
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	c := sphere.NewCap(10, 20, 60)

	unpruned, _ := searchRows(t, tab, c)

	ps := prunableSet(t, tab, "object_id < 500")
	if len(ps.Pruners) != 1 || !ps.Safe {
		t.Fatalf("prune set = %+v", ps)
	}
	pruner := tab.CandPruner(ps)
	if pruner == nil {
		t.Fatal("nil pruner for a prunable predicate")
	}

	blocksBefore, rowsBefore := CandBlocksPruned(), CandRowsGathered()
	sb := &SearchBatch{Rows: make([]int, 0, 256), Prune: pruner}
	var got []int
	if err := tab.SearchCapBatch(c, sb, func(rows []int, _ []sphere.Vec) bool {
		got = append(got, rows...)
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// Surviving candidates are exactly the unpruned stream restricted to
	// the live block (rows 0..1023 — the block's min of 0 keeps it alive
	// even for object_ids 500..1023), in unchanged order.
	var want []int
	for _, r := range unpruned {
		if r < 1024 {
			want = append(want, r)
		}
	}
	if len(want) == 0 || len(want) == len(unpruned) {
		t.Fatalf("degenerate test split: %d of %d candidates live", len(want), len(unpruned))
	}
	if len(got) != len(want) {
		t.Fatalf("%d candidates survived, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d = row %d, want %d", i, got[i], want[i])
		}
	}
	if d := CandRowsGathered() - rowsBefore; d != int64(len(got)) {
		t.Errorf("CandRowsGathered delta %d, want %d", d, len(got))
	}
	if d := CandBlocksPruned() - blocksBefore; d < 1 || d > 2 {
		t.Errorf("CandBlocksPruned delta %d, want 1..2 (the dead blocks the cap touches)", d)
	}

	// The memoized verdicts answer consistently on re-consultation and the
	// block counter does not double-count.
	blocksBefore = CandBlocksPruned()
	for _, r := range []int{0, 1500, 2500, 2999} {
		want := r >= 1024
		if pruner.Pruned(r) != want {
			t.Errorf("Pruned(%d) = %v, want %v", r, !want, want)
		}
	}
	if d := CandBlocksPruned() - blocksBefore; d != 0 {
		t.Errorf("re-consultation counted %d new pruned blocks", d)
	}
}

// TestCandPrunerFreshRowsSurvive is the regression test for the stale
// partial-block verdict: a pruner built at n rows must never prune rows
// appended after n, even though those rows land in a block that already
// has (dead) statistics. Before the fix the guard was the block count, so
// a fresh row appended into the partial trailing block was judged against
// statistics that do not cover it and wrongly dropped.
func TestCandPrunerFreshRowsSurvive(t *testing.T) {
	tab, err := NewTable("obj", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillObjects(t, tab, 1500, 42) // block 0 full, block 1 partial (rows 1024..1499)
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	c := sphere.NewCap(10, 20, 60)

	// object_id equals the row index, so this kills block 1 at snapshot
	// time: its minimum is 1024.
	ps := prunableSet(t, tab, "object_id < 500")
	pruner := tab.CandPruner(ps)
	if pruner == nil {
		t.Fatal("nil pruner")
	}
	if !pruner.Pruned(1100) {
		t.Fatal("trailing partial block not dead at snapshot time; test is vacuous")
	}

	// Appends land in that same partial block — rows 1500..1519, with
	// object_ids that satisfy the predicate, at the cap's center.
	const fresh = 20
	for i := 0; i < fresh; i++ {
		err := tab.Append(value.Int(int64(i)), value.Float(10), value.Float(20),
			value.Float(1), value.String("STAR"), value.Bool(false))
		if err != nil {
			t.Fatal(err)
		}
	}

	sb := &SearchBatch{Rows: make([]int, 0, 256), Prune: pruner}
	seen := map[int]bool{}
	if err := tab.SearchCapBatch(c, sb, func(rows []int, _ []sphere.Vec) bool {
		for _, r := range rows {
			seen[r] = true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for r := 1500; r < 1500+fresh; r++ {
		if !seen[r] {
			t.Errorf("fresh row %d was pruned by stale block statistics", r)
		}
	}
	for r := range seen {
		if r >= 1024 && r < 1500 {
			t.Errorf("snapshot-covered dead-block row %d escaped pruning", r)
		}
	}
}

// TestSelectAreaCandidatePruning runs an AREA query whose WHERE is
// candidate-prunable through Select and checks the result against a
// row-at-a-time reference, plus that pruning actually cut the predicate
// work below the HTM search.
func TestSelectAreaCandidatePruning(t *testing.T) {
	tab, err := NewTable("obj", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillObjects(t, tab, 3000, 42)
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	region := sphere.NewCap(10, 20, 60)

	q, err := sqlparse.Parse("SELECT object_id, flux FROM obj WHERE object_id < 500 AND flux >= 0")
	if err != nil {
		t.Fatal(err)
	}

	// Row-at-a-time reference over the unpruned search.
	var want [][]value.Value
	rows, _ := searchRows(t, tab, region)
	for _, row := range rows {
		if id := tab.Value(row, 0); !id.IsNull() && id.AsInt() < 500 {
			want = append(want, []value.Value{tab.Value(row, 0), tab.Value(row, 3)})
		}
	}

	blocksBefore := CandBlocksPruned()
	predBefore := PredRowsEvaluated()
	res, err := tab.Select("", q, region)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i := range res.Rows {
		for j := range res.Rows[i] {
			if !value.Equal(res.Rows[i][j], want[i][j]) {
				t.Fatalf("row %d col %d = %v, want %v", i, j, res.Rows[i][j], want[i][j])
			}
		}
	}
	if CandBlocksPruned() == blocksBefore {
		t.Error("AREA scan pruned no candidate blocks")
	}
	// Only live-block candidates may have been evaluated: strictly fewer
	// than the cap's full candidate count.
	if d := PredRowsEvaluated() - predBefore; d >= int64(len(rows)) {
		t.Errorf("evaluated %d candidate rows, want fewer than the cap's %d", d, len(rows))
	}
}
