package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"skyquery/internal/dataset"
	"skyquery/internal/plan"
	"skyquery/internal/sphere"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// fakeCatalog serves fixed archive metadata.
type fakeCatalog map[string]*Archive

func (c fakeCatalog) Archive(name string) (*Archive, error) {
	a, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("core_test: unknown archive %q", name)
	}
	return a, nil
}

// fakeServices answers count-star probes from a table and records calls.
type fakeServices struct {
	mu         sync.Mutex
	counts     map[string]int64 // archive -> count
	countCalls []string         // SQL of each count probe
	crossPlans []*plan.Plan
	tuples     *dataset.DataSet // streamed by CrossMatchStream
	tableCalls []string
	tableData  *dataset.DataSet
}

func (s *fakeServices) CountStar(ctx context.Context, a *Archive, sql string, area plan.Area) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countCalls = append(s.countCalls, a.Name+": "+sql)
	return s.counts[a.Name], nil
}

func (s *fakeServices) CrossMatchStream(ctx context.Context, p *plan.Plan) (TupleStream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crossPlans = append(s.crossPlans, p)
	if s.tuples != nil {
		return NewSliceStream(s.tuples, 0), nil
	}
	return NewSliceStream(&dataset.DataSet{Columns: xmatch.AccColumns()}, 0), nil
}

func (s *fakeServices) TableQueryStream(ctx context.Context, a *Archive, sql string) (TupleStream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tableCalls = append(s.tableCalls, a.Name+": "+sql)
	if s.tableData != nil {
		return NewSliceStream(s.tableData, 0), nil
	}
	return NewSliceStream(dataset.New(dataset.Column{Name: "x", Type: value.IntType}), 0), nil
}

func testCatalog() fakeCatalog {
	mk := func(name string, sigma float64) *Archive {
		return &Archive{
			Name: name, Endpoint: "http://" + name + ".test/soap",
			PrimaryTable: "PhotoObject", RACol: "ra", DecCol: "dec",
			SigmaArcsec: sigma,
			Tables: map[string]TableInfo{
				"PhotoObject": {Name: "PhotoObject", Rows: 1000, Columns: map[string]string{
					"object_id": "INT", "ra": "FLOAT", "dec": "FLOAT",
					"flux": "FLOAT", "type": "STRING",
				}},
			},
		}
	}
	return fakeCatalog{
		"SDSS":    mk("SDSS", 0.1),
		"TWOMASS": mk("TWOMASS", 0.2),
		"FIRST":   mk("FIRST", 0.4),
	}
}

func newEngine(counts map[string]int64) (*Engine, *fakeServices) {
	svc := &fakeServices{counts: counts}
	return &Engine{Catalog: testCatalog(), Services: svc}, svc
}

const testSQL = `SELECT O.object_id, T.object_id
	FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P
	WHERE AREA(185, -0.5, 900) AND XMATCH(O, T, P) < 3.5
	AND O.type = 'GALAXY' AND (O.flux - T.flux) > 2`

func TestBuildPlanOrdering(t *testing.T) {
	e, svc := newEngine(map[string]int64{"SDSS": 50, "TWOMASS": 900, "FIRST": 200})
	p, err := e.BuildPlanSQL(context.Background(), testSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"TWOMASS", "FIRST", "SDSS"} // decreasing count
	for i, name := range want {
		if p.Steps[i].Archive != name {
			t.Fatalf("step %d = %s, want %s (%s)", i, p.Steps[i].Archive, name, p)
		}
	}
	if len(svc.countCalls) != 3 {
		t.Errorf("count probes = %d", len(svc.countCalls))
	}
	for _, call := range svc.countCalls {
		if !strings.Contains(call, "SELECT COUNT(*)") || !strings.Contains(call, "AREA(185, -0.5, 900)") {
			t.Errorf("probe = %q", call)
		}
	}
	// The SDSS probe must carry its local predicate.
	found := false
	for _, call := range svc.countCalls {
		if strings.HasPrefix(call, "SDSS:") && strings.Contains(call, "GALAXY") {
			found = true
		}
	}
	if !found {
		t.Errorf("SDSS probe lacks local predicate: %v", svc.countCalls)
	}
}

func TestBuildPlanCrossPredicateAssignment(t *testing.T) {
	// Execution order is reverse call order; the flux predicate references
	// O and T and must fire at whichever of them executes second.
	e, _ := newEngine(map[string]int64{"SDSS": 50, "TWOMASS": 900, "FIRST": 200})
	p, err := e.BuildPlanSQL(context.Background(), testSQL)
	if err != nil {
		t.Fatal(err)
	}
	// Order: TWOMASS(900), FIRST(200), SDSS(50). Execution: SDSS seeds,
	// FIRST extends, TWOMASS last. O=SDSS executes before T=TWOMASS, so
	// the predicate fires at TWOMASS.
	byArchive := map[string][]string{}
	for _, s := range p.Steps {
		byArchive[s.Archive] = s.CrossWhere
	}
	if len(byArchive["TWOMASS"]) != 1 {
		t.Errorf("TWOMASS crossWhere = %v", byArchive["TWOMASS"])
	}
	if len(byArchive["SDSS"]) != 0 || len(byArchive["FIRST"]) != 0 {
		t.Errorf("misassigned cross predicates: %v", byArchive)
	}
}

func TestBuildPlanColumns(t *testing.T) {
	e, _ := newEngine(map[string]int64{"SDSS": 1, "TWOMASS": 2, "FIRST": 3})
	p, err := e.BuildPlanSQL(context.Background(), testSQL)
	if err != nil {
		t.Fatal(err)
	}
	cols := map[string][]string{}
	for _, s := range p.Steps {
		cols[s.Archive] = s.Columns
	}
	// SDSS ships object_id (select) + flux (cross predicate).
	if got := cols["SDSS"]; len(got) != 2 || got[0] != "flux" || got[1] != "object_id" {
		t.Errorf("SDSS columns = %v", got)
	}
	// FIRST ships nothing (not selected, no predicates).
	if got := cols["FIRST"]; len(got) != 0 {
		t.Errorf("FIRST columns = %v", got)
	}
}

func TestBuildPlanErrors(t *testing.T) {
	e, _ := newEngine(map[string]int64{"SDSS": 1, "TWOMASS": 1, "FIRST": 1})
	area := "AREA(185, -0.5, 900)"
	cases := []struct{ sql, wantSub string }{
		{`SELECT O.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T WHERE ` + area + ` AND O.flux > 1`, "XMATCH"},
		{`SELECT O.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T WHERE XMATCH(O, T) < 3`, "AREA"},
		{`SELECT * FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T WHERE ` + area + ` AND XMATCH(O, T) < 3`, "SELECT *"},
		{`SELECT O.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P WHERE ` + area + ` AND XMATCH(O, T) < 3`, "does not appear in the XMATCH"},
		{`SELECT O.object_id FROM GHOST:PhotoObject O, TWOMASS:PhotoObject T WHERE ` + area + ` AND XMATCH(O, T) < 3`, "unknown archive"},
		{`SELECT O.object_id FROM SDSS:Missing O, TWOMASS:PhotoObject T WHERE ` + area + ` AND XMATCH(O, T) < 3`, "no table"},
		{`SELECT O.missing FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T WHERE ` + area + ` AND XMATCH(O, T) < 3`, "no column"},
		{`SELECT O.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T WHERE ` + area + ` AND XMATCH(O, T) < 3 AND O.missing = 1`, "no column"},
		{`SELECT O.object_id, T.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T WHERE ` + area + ` AND XMATCH(O, !T) < 3`, "drop-out"},
		{`SELECT O.object_id FROM PhotoObject O, TWOMASS:PhotoObject T WHERE ` + area + ` AND XMATCH(O, T) < 3`, "archive qualifier"},
	}
	for _, c := range cases {
		_, err := e.BuildPlanSQL(context.Background(), c.sql)
		if err == nil {
			t.Errorf("BuildPlanSQL(%.60q) succeeded, want %q", c.sql, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("BuildPlanSQL(%.60q) error = %v, want %q", c.sql, err, c.wantSub)
		}
	}
}

// tupleSet builds a fake final tuple set with the given payload columns.
func tupleSet(payload []dataset.Column, rows ...[]value.Value) *dataset.DataSet {
	d := &dataset.DataSet{Columns: append(xmatch.AccColumns(), payload...)}
	acc := xmatch.Accumulator{}.Add(sphere.FromRaDec(185, -0.5), 0.1).
		Add(sphere.FromRaDec(185, -0.5+sphere.Arcsec(0.1)), 0.2)
	for _, r := range rows {
		d.Rows = append(d.Rows, append(xmatch.AccToCells(acc), r...))
	}
	return d
}

func TestExecuteProjection(t *testing.T) {
	e, svc := newEngine(map[string]int64{"SDSS": 10, "TWOMASS": 20, "FIRST": 30})
	svc.tuples = tupleSet(
		[]dataset.Column{
			{Name: "O.object_id", Type: value.IntType},
			{Name: "T.object_id", Type: value.IntType},
			{Name: "O.flux", Type: value.FloatType},
			{Name: "T.flux", Type: value.FloatType},
		},
		[]value.Value{value.Int(1), value.Int(2), value.Float(9), value.Float(4)},
		[]value.Value{value.Int(3), value.Int(4), value.Float(8), value.Float(1)},
	)
	res, err := e.Execute(context.Background(), testSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Columns[0].Name != "O.object_id" || res.Columns[0].Type != value.IntType {
		t.Errorf("column 0 = %+v", res.Columns[0])
	}
	if res.Rows[1][0].AsInt() != 3 || res.Rows[1][1].AsInt() != 4 {
		t.Errorf("row 1 = %v", res.Rows[1])
	}
}

func TestExecuteCount(t *testing.T) {
	e, svc := newEngine(map[string]int64{"SDSS": 10, "TWOMASS": 20, "FIRST": 30})
	svc.tuples = tupleSet(
		[]dataset.Column{{Name: "O.object_id", Type: value.IntType}},
		[]value.Value{value.Int(1)},
		[]value.Value{value.Int(2)},
		[]value.Value{value.Int(3)},
	)
	sql := `SELECT COUNT(*) FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(185, -0.5, 900) AND XMATCH(O, T) < 3.5`
	res, err := e.Execute(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Rows[0][0].AsInt() != 3 {
		t.Errorf("count result = %v", res.Rows)
	}
}

func TestExecuteTopAndMatchColumns(t *testing.T) {
	e, svc := newEngine(map[string]int64{"SDSS": 10, "TWOMASS": 20})
	e.IncludeMatchColumns = true
	svc.tuples = tupleSet(
		[]dataset.Column{{Name: "O.object_id", Type: value.IntType}, {Name: "T.object_id", Type: value.IntType}},
		[]value.Value{value.Int(1), value.Int(5)},
		[]value.Value{value.Int(2), value.Int(6)},
		[]value.Value{value.Int(3), value.Int(7)},
	)
	sql := `SELECT TOP 2 O.object_id, T.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(185, -0.5, 900) AND XMATCH(O, T) < 3.5`
	res, err := e.Execute(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Errorf("TOP 2 gave %d rows", res.NumRows())
	}
	if len(res.Columns) != 6 {
		t.Fatalf("columns = %v", res.Columns)
	}
	ra, _ := res.Rows[0][2].AsFloat()
	if ra < 184.9 || ra > 185.1 {
		t.Errorf("_matchRA = %v", ra)
	}
	if res.Rows[0][5].AsInt() != 2 {
		t.Errorf("_nObs = %v", res.Rows[0][5])
	}
}

func TestPassThrough(t *testing.T) {
	e, svc := newEngine(nil)
	_, err := e.Execute(context.Background(), `SELECT O.object_id FROM SDSS:PhotoObject O WHERE O.flux > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.tableCalls) != 1 {
		t.Fatalf("table calls = %v", svc.tableCalls)
	}
	if !strings.HasPrefix(svc.tableCalls[0], "SDSS: SELECT O.object_id FROM PhotoObject O") {
		t.Errorf("pass-through SQL = %q (archive qualifier must be stripped)", svc.tableCalls[0])
	}
}

func TestPassThroughErrors(t *testing.T) {
	e, _ := newEngine(nil)
	cases := []struct{ sql, wantSub string }{
		{`SELECT a.x, b.y FROM SDSS:PhotoObject a, TWOMASS:PhotoObject b`, "XMATCH"},
		{`SELECT x FROM PhotoObject`, "archive:table"},
		{`SELECT x FROM SDSS:Missing`, "no table"},
		{`SELECT x FROM GHOST:PhotoObject`, "unknown archive"},
	}
	for _, c := range cases {
		_, err := e.Execute(context.Background(), c.sql)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Execute(%q) error = %v, want %q", c.sql, err, c.wantSub)
		}
	}
}

func TestEventsEmitted(t *testing.T) {
	var kinds []string
	var mu sync.Mutex
	e, svc := newEngine(map[string]int64{"SDSS": 10, "TWOMASS": 20})
	e.OnEvent = func(ev Event) {
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	}
	svc.tuples = tupleSet([]dataset.Column{{Name: "O.object_id", Type: value.IntType}})
	sql := `SELECT O.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(185, -0.5, 900) AND XMATCH(O, T) < 3.5`
	if _, err := e.Execute(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"submit", "perfquery.send", "perfquery.recv", "plan", "execute", "relay"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing event %q in %v", want, kinds)
		}
	}
}

func TestQueryIDsUnique(t *testing.T) {
	e, _ := newEngine(map[string]int64{"SDSS": 1, "TWOMASS": 2})
	sql := `SELECT O.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(185, -0.5, 900) AND XMATCH(O, T) < 3.5`
	p1, err := e.BuildPlanSQL(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.BuildPlanSQL(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if p1.QueryID == p2.QueryID {
		t.Errorf("query ids not unique: %q", p1.QueryID)
	}
}

func TestMalformedTupleSet(t *testing.T) {
	e, svc := newEngine(map[string]int64{"SDSS": 1, "TWOMASS": 2})
	svc.tuples = dataset.New(dataset.Column{Name: "only", Type: value.IntType})
	sql := `SELECT O.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(185, -0.5, 900) AND XMATCH(O, T) < 3.5`
	if _, err := e.Execute(context.Background(), sql); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("err = %v", err)
	}
}

// brokenStream delivers one page, then fails.
type brokenStream struct {
	*SliceStream
	pages  int
	closed bool
}

func (s *brokenStream) Next() ([][]value.Value, error) {
	if s.pages++; s.pages > 1 {
		return nil, fmt.Errorf("node died mid-transfer")
	}
	return s.SliceStream.Next()
}

func (s *brokenStream) Close() error {
	s.closed = true
	return nil
}

// failServices streams the chain's tuples through a brokenStream.
type failServices struct {
	*fakeServices
	stream *brokenStream
}

func (s *failServices) CrossMatchStream(ctx context.Context, p *plan.Plan) (TupleStream, error) {
	return s.stream, nil
}

// TestExecuteChainFailure: a chain stream that fails after its first page
// fails the drained execution with its error, and the transfer is closed.
func TestExecuteChainFailure(t *testing.T) {
	e, svc := newEngine(map[string]int64{"SDSS": 10, "TWOMASS": 20, "FIRST": 30})
	cols := []dataset.Column{
		{Name: "O.object_id", Type: value.IntType},
		{Name: "T.object_id", Type: value.IntType},
		{Name: "O.flux", Type: value.FloatType},
		{Name: "T.flux", Type: value.FloatType},
	}
	row := []value.Value{value.Int(1), value.Int(2), value.Float(9), value.Float(4)}
	bs := &brokenStream{SliceStream: NewSliceStream(tupleSet(cols, row), 1)}
	e.Services = &failServices{fakeServices: svc, stream: bs}
	if _, err := e.Execute(context.Background(), testSQL); err == nil || !strings.Contains(err.Error(), "node died") {
		t.Errorf("err = %v", err)
	}
	if !bs.closed {
		t.Error("failed chain stream was not closed")
	}
}
