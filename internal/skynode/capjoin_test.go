package skynode

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"skyquery/internal/dataset"
	"skyquery/internal/eval"
	"skyquery/internal/plan"
	"skyquery/internal/soap"
	"skyquery/internal/sphere"
	"skyquery/internal/storage"
	"skyquery/internal/survey"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// TestDropOutVetoBeatsError pins the drop-out step's error order against
// the row-at-a-time loop: candidates are visited in search order, the
// first gate match vetoes the tuple, and a veto-predicate error only
// fails the step when its candidate comes before any veto. The predicate
// divides by zero on every third FIRST object, so within one batch a veto
// can precede an erroring candidate — the batch engine evaluates both,
// and the veto must still win.
func TestDropOutVetoBeatsError(t *testing.T) {
	nodes := pruneNodes(t, 5000)
	drop := nodes["FIRST"]
	seedStep := plan.Step{Archive: "TWOMASS", Alias: "T", Table: survey.TableName, SigmaArcsec: 0.2,
		Columns: []string{"object_id"}}
	dropStep := plan.Step{Archive: "FIRST", Alias: "P", Table: survey.TableName, SigmaArcsec: 0.4,
		LocalWhere: "1 / (P.object_id % 3) > 0", DropOut: true}
	p := prunePlan(dropStep, seedStep)
	seed, err := nodes["TWOMASS"].localStep(p, seedStep, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The row-at-a-time outcome of every tuple, read off its candidates in
	// search order: survive, veto, or fail on an erroring candidate.
	table, _ := drop.cfg.DB.Table(survey.TableName)
	area, _ := p.Area.Region()
	idCol := table.Schema().Index("object_id")
	var kept, healthy, failing [][]value.Value
	vetoes, vetoThenError := 0, 0
	for _, row := range seed.Rows {
		acc, err := xmatch.CellsToAcc(row)
		if err != nil {
			t.Fatal(err)
		}
		var errs, matches []bool
		if radius := acc.SearchRadius(p.Threshold, dropStep.SigmaArcsec); radius > 0 {
			sb := &storage.SearchBatch{Rows: make([]int, 0, 1024), Pos: make([]sphere.Vec, 0, 1024),
				Accept: func(_ int, pos sphere.Vec) bool { return area.Contains(pos) }}
			if err := table.SearchCapBatch(sphere.CapAround(acc.Best(), radius), sb, func(cand []int, poss []sphere.Vec) bool {
				for k, r := range cand {
					errs = append(errs, table.ValueUnlocked(r, idCol).AsInt()%3 == 0)
					matches = append(matches, acc.Add(poss[k], dropStep.SigmaArcsec).Matches(p.Threshold))
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		outcome := "keep"
		for k := range errs {
			if errs[k] {
				outcome = "error"
				break
			}
			if matches[k] {
				outcome = "veto"
				// Count an erroring candidate that shares the veto's batch
				// at batch 3, the smallest size where both can meet.
				for j := k + 1; j < len(errs) && j/3 == k/3; j++ {
					if errs[j] {
						vetoThenError++
						break
					}
				}
				break
			}
		}
		switch outcome {
		case "keep":
			kept = append(kept, row)
			healthy = append(healthy, row)
		case "veto":
			vetoes++
			healthy = append(healthy, row)
		case "error":
			failing = append(failing, row)
		}
	}
	if vetoThenError == 0 || len(failing) == 0 || len(kept) == 0 {
		t.Fatalf("vacuous test: %d kept, %d vetoed (%d ahead of an erroring candidate in one batch), %d failing",
			len(kept), vetoes, vetoThenError, len(failing))
	}
	prevBS := eval.BatchSize()
	defer eval.SetBatchSize(prevBS)
	var wantErr string
	for _, bs := range []int{1, 3, 1024} {
		eval.SetBatchSize(bs)
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("batch=%d par=%d", bs, par)
			pp := *p
			pp.Parallelism = par
			// Vetoes win: without the failing tuples the step succeeds and
			// keeps exactly the tuples no candidate vetoed.
			got, err := drop.localStep(&pp, dropStep, &dataset.DataSet{Columns: seed.Columns, Rows: healthy})
			if err != nil {
				t.Fatalf("%s: vetoed tuples raised %v", label, err)
			}
			sameDataSet(t, label, got, &dataset.DataSet{Columns: seed.Columns, Rows: kept})
			// Errors that come first fail the step, with the same text at
			// every setting (batch 1 is the row-at-a-time reference).
			for _, row := range failing {
				_, err := drop.localStep(&pp, dropStep, &dataset.DataSet{Columns: seed.Columns, Rows: [][]value.Value{row}})
				if err == nil {
					t.Fatalf("%s: a tuple whose first candidate errors was not failed", label)
				}
				if wantErr == "" {
					wantErr = err.Error()
				}
				if err.Error() != wantErr {
					t.Fatalf("%s: error %q, want %q", label, err, wantErr)
				}
			}
		}
	}
}

// TestIsolatedStreamedStep: an isolated step asked for a stream answers
// with the parked-chunk response instead, which soap.OpenStream reads
// through its buffered fallback — the same rows, bit for bit, as the
// folded Call + FetchAll. The stashed input is half the seed, so a step
// that wrongly chained to the next node would return more rows.
func TestIsolatedStreamedStep(t *testing.T) {
	_, archives, nodes, endpoints := testFederation(t, 400, defaultConfigs()[:2])
	p := buildPlan(archives, endpoints, []int{0, 1}, nil, 3.5)
	p.ChunkRows = 50
	seed, err := nodes[1].localStep(&p, p.Steps[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	half := &dataset.DataSet{Columns: seed.Columns, Rows: seed.Rows[:seed.NumRows()/2]}

	stash := &soap.ChunkStore{}
	srv := soap.NewServer()
	srv.Handle(soap.FetchAction, stash.FetchHandler())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	tokens := stash.Stash(half, p.ChunkRows, 2)
	request := func(token string) *CrossMatchRequest {
		return &CrossMatchRequest{Plan: p, Isolated: true, Incoming: &IncomingRef{Endpoint: ts.URL, Token: token}}
	}

	ctx := context.Background()
	c := &soap.Client{}
	var first soap.ChunkedData
	if err := c.Call(ctx, endpoints[0], ActionCrossMatch, request(tokens[0]), &first); err != nil {
		t.Fatal(err)
	}
	want, err := soap.FetchAll(ctx, c, endpoints[0], &first)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() <= p.ChunkRows {
		t.Fatalf("degenerate test: %d rows fit one chunk", want.NumRows())
	}

	st, err := soap.OpenStream(ctx, c, endpoints[0], ActionCrossMatch, request(tokens[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := &dataset.DataSet{Columns: st.Columns()}
	for {
		page, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if page == nil {
			break
		}
		got.Rows = append(got.Rows, page...)
	}
	sameDataSet(t, "isolated stream", got, want)
}
