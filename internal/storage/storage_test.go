package storage

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"skyquery/internal/eval"
	"skyquery/internal/sphere"
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

func objSchema() Schema {
	return Schema{
		{Name: "object_id", Type: value.IntType},
		{Name: "ra", Type: value.FloatType},
		{Name: "dec", Type: value.FloatType},
		{Name: "flux", Type: value.FloatType},
		{Name: "type", Type: value.StringType},
		{Name: "flagged", Type: value.BoolType},
	}
}

func fillObjects(t *testing.T, tab *Table, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		typ := "STAR"
		if i%3 == 0 {
			typ = "GALAXY"
		}
		err := tab.Append(
			value.Int(int64(i)),
			value.Float(rng.Float64()*360),
			value.Float(rng.Float64()*180-90),
			value.Float(rng.Float64()*100),
			value.String(typ),
			value.Bool(i%7 == 0),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTableBasics(t *testing.T) {
	tab, err := NewTable("obj", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "obj" {
		t.Errorf("Name = %q", tab.Name())
	}
	fillObjects(t, tab, 10, 1)
	if tab.RowCount() != 10 {
		t.Errorf("RowCount = %d", tab.RowCount())
	}
	row := tab.Row(3)
	if row[0].AsInt() != 3 {
		t.Errorf("Row(3)[0] = %v", row[0])
	}
	if got := tab.Value(3, 4); got.Type() != value.StringType {
		t.Errorf("Value(3,4) = %v", got)
	}
	// Schema copy must be independent.
	s := tab.Schema()
	s[0].Name = "mutated"
	if tab.Schema()[0].Name != "object_id" {
		t.Error("Schema() must return a copy")
	}
}

func TestTableErrors(t *testing.T) {
	if _, err := NewTable("empty", nil); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewTable("dup", Schema{{"a", value.IntType}, {"a", value.IntType}}); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewTable("badtype", Schema{{"a", value.NullType}}); err == nil {
		t.Error("NULL column type should fail")
	}
	tab, _ := NewTable("obj", objSchema())
	if err := tab.Append(value.Int(1)); err == nil {
		t.Error("arity mismatch should fail")
	}
	err := tab.Append(
		value.Int(1), value.Float(1), value.Float(1),
		value.String("wrong type"), value.String("x"), value.Bool(false),
	)
	if err == nil {
		t.Error("type mismatch should fail")
	}
	if tab.RowCount() != 0 {
		t.Errorf("failed append must not leave rows; RowCount = %d", tab.RowCount())
	}
	// Columns must stay aligned after the rollback.
	if err := tab.Append(value.Int(1), value.Float(2), value.Float(3), value.Float(4), value.String("STAR"), value.Bool(true)); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if got := tab.Value(0, 3); got.Type() != value.FloatType {
		t.Errorf("column misaligned after rollback: %v", got)
	}
}

func TestNullStorage(t *testing.T) {
	tab, _ := NewTable("n", Schema{
		{"i", value.IntType}, {"f", value.FloatType},
		{"s", value.StringType}, {"b", value.BoolType},
	})
	if err := tab.Append(value.Null, value.Null, value.Null, value.Null); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(value.Int(1), value.Float(2), value.String("x"), value.Bool(true)); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if !tab.Value(0, c).IsNull() {
			t.Errorf("col %d row 0 should be NULL", c)
		}
		if tab.Value(1, c).IsNull() {
			t.Errorf("col %d row 1 should not be NULL", c)
		}
	}
}

func TestIntFloatCoercionOnAppend(t *testing.T) {
	tab, _ := NewTable("c", Schema{{"f", value.FloatType}})
	if err := tab.Append(value.Int(3)); err != nil {
		t.Fatalf("int into float column should coerce: %v", err)
	}
	if f, _ := tab.Value(0, 0).AsFloat(); f != 3 {
		t.Errorf("coerced value = %v", tab.Value(0, 0))
	}
}

func TestDBCreate(t *testing.T) {
	db := NewDB()
	if _, err := db.Create("a", objSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("a", objSchema()); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, ok := db.Table("a"); !ok {
		t.Error("Table(a) not found")
	}
	if _, err := db.Create("b", objSchema()); err != nil {
		t.Fatal(err)
	}
	if names := db.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

// searchRows runs SearchRegionBatch with one batch big enough for the
// whole table and returns the rows and positions it yields, in search
// order.
func searchRows(t testing.TB, tab *Table, reg sphere.Region) ([]int, []sphere.Vec) {
	t.Helper()
	n := tab.RowCount() + 1
	sb := &SearchBatch{Rows: make([]int, 0, n), Pos: make([]sphere.Vec, 0, n)}
	var rows []int
	var pos []sphere.Vec
	if err := tab.SearchRegionBatch(reg, sb, func(r []int, p []sphere.Vec) bool {
		rows = append(rows, r...)
		pos = append(pos, p...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows, pos
}

func TestSpatialIndexMatchesFullScan(t *testing.T) {
	tab, _ := NewTable("obj", objSchema())
	fillObjects(t, tab, 5000, 42)
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ra, dec, radius float64
	}{
		{180, 0, 5},
		{10, 80, 3},
		{300, -45, 10},
		{0, 0, 0.5},
		{359.9, 0, 1}, // RA wraparound
	} {
		c := sphere.NewCap(tc.ra, tc.dec, tc.radius)
		want := map[int]bool{}
		tab.Scan(func(row int) bool {
			ra, _ := tab.Value(row, 1).AsFloat()
			de, _ := tab.Value(row, 2).AsFloat()
			if c.Contains(sphere.FromRaDec(ra, de)) {
				want[row] = true
			}
			return true
		})
		got := map[int]bool{}
		rows, _ := searchRows(t, tab, c)
		for _, row := range rows {
			got[row] = true
		}
		if len(got) != len(want) {
			t.Fatalf("cap %v: index found %d rows, scan found %d", c, len(got), len(want))
		}
		for r := range want {
			if !got[r] {
				t.Fatalf("cap %v: row %d missed by index", c, r)
			}
		}
	}
}

func TestSpatialIndexDirtyRebuild(t *testing.T) {
	tab, _ := NewTable("obj", objSchema())
	fillObjects(t, tab, 100, 7)
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	// Appending after the index is built must still be reflected in searches.
	if err := tab.Append(value.Int(9999), value.Float(123.4), value.Float(5.6),
		value.Float(1), value.String("STAR"), value.Bool(false)); err != nil {
		t.Fatal(err)
	}
	found := false
	rows, _ := searchRows(t, tab, sphere.NewCap(123.4, 5.6, 0.01))
	for _, row := range rows {
		if tab.Value(row, 0).AsInt() == 9999 {
			found = true
		}
	}
	if !found {
		t.Error("appended row not found after index rebuild")
	}
}

func TestSpatialErrors(t *testing.T) {
	tab, _ := NewTable("obj", objSchema())
	if err := tab.EnableSpatial(SpatialConfig{RACol: "nope", DecCol: "dec"}); err == nil {
		t.Error("bad ra column should fail")
	}
	if err := tab.EnableSpatial(SpatialConfig{RACol: "object_id", DecCol: "dec"}); err == nil {
		t.Error("non-float ra column should fail")
	}
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec", Level: 99}); err == nil {
		t.Error("bad level should fail")
	}
	sb := &SearchBatch{Rows: make([]int, 0, 8)}
	if err := tab.SearchCapBatch(sphere.NewCap(0, 0, 1), sb, func([]int, []sphere.Vec) bool { return true }); err == nil {
		t.Error("search without index should fail")
	}
	if _, err := tab.Position(0); err == nil {
		t.Error("Position without index should fail")
	}
}

func TestSearchRegionPolygon(t *testing.T) {
	tab, _ := NewTable("obj", objSchema())
	fillObjects(t, tab, 3000, 11)
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	poly, err := sphere.NewPolygon([2]float64{10, 10}, [2]float64{30, 10}, [2]float64{30, 30}, [2]float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	tab.Scan(func(row int) bool {
		ra, _ := tab.Value(row, 1).AsFloat()
		de, _ := tab.Value(row, 2).AsFloat()
		if poly.Contains(sphere.FromRaDec(ra, de)) {
			want++
		}
		return true
	})
	rows, _ := searchRows(t, tab, poly)
	got := len(rows)
	if got != want {
		t.Errorf("polygon search found %d, scan found %d", got, want)
	}
	if want == 0 {
		t.Error("degenerate test: polygon matched nothing")
	}
}

func TestSearchCapEarlyStop(t *testing.T) {
	tab, _ := NewTable("obj", objSchema())
	fillObjects(t, tab, 1000, 13)
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	n := 0
	sb := &SearchBatch{Rows: make([]int, 0, 1)}
	if err := tab.SearchCapBatch(sphere.NewCap(0, 0, 180), sb, func([]int, []sphere.Vec) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("early stop visited %d batches", n)
	}
}

func execQuery(t *testing.T, db *DB, src string) *Result {
	t.Helper()
	q, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func newTestDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	tab, err := db.Create("PhotoObject", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillObjects(t, tab, n, 99)
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecuteCount(t *testing.T) {
	db := newTestDB(t, 300)
	res := execQuery(t, db, `SELECT count(*) FROM PhotoObject`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 300 {
		t.Errorf("count = %v", res.Rows)
	}
	res = execQuery(t, db, `SELECT count(*) FROM PhotoObject o WHERE o.type = 'GALAXY'`)
	if res.Rows[0][0].AsInt() != 100 {
		t.Errorf("galaxy count = %v", res.Rows[0][0])
	}
}

func TestExecuteCountWithArea(t *testing.T) {
	db := newTestDB(t, 2000)
	tab, _ := db.Table("PhotoObject")
	c := sphere.NewCap(180, 0, sphere.Arcsec(3600*20)) // 20 degrees
	want := int64(0)
	tab.Scan(func(row int) bool {
		ra, _ := tab.Value(row, 1).AsFloat()
		de, _ := tab.Value(row, 2).AsFloat()
		if c.Contains(sphere.FromRaDec(ra, de)) {
			want++
		}
		return true
	})
	res := execQuery(t, db, fmt.Sprintf(`SELECT count(*) FROM PhotoObject WHERE AREA(180, 0, %v)`, 3600.0*20))
	if got := res.Rows[0][0].AsInt(); got != want {
		t.Errorf("area count = %d, want %d", got, want)
	}
	if want == 0 {
		t.Error("degenerate: area matched nothing")
	}
}

func TestExecuteProjection(t *testing.T) {
	db := newTestDB(t, 50)
	res := execQuery(t, db, `SELECT o.object_id, o.flux * 2 AS dflux FROM PhotoObject o WHERE o.object_id < 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Columns[0].Name != "object_id" || res.Columns[1].Name != "dflux" {
		t.Errorf("columns = %v", res.Columns)
	}
	tab, _ := db.Table("PhotoObject")
	for _, row := range res.Rows {
		id := row[0].AsInt()
		f, _ := tab.Value(int(id), 3).AsFloat()
		got, _ := row[1].AsFloat()
		if math.Abs(got-2*f) > 1e-12 {
			t.Errorf("dflux = %v, want %v", got, 2*f)
		}
	}
}

func TestExecuteStar(t *testing.T) {
	db := newTestDB(t, 5)
	res := execQuery(t, db, `SELECT * FROM PhotoObject`)
	if len(res.Columns) != len(objSchema()) {
		t.Errorf("star columns = %d", len(res.Columns))
	}
	if len(res.Rows) != 5 {
		t.Errorf("star rows = %d", len(res.Rows))
	}
}

func TestExecuteTop(t *testing.T) {
	db := newTestDB(t, 100)
	res := execQuery(t, db, `SELECT TOP 7 o.object_id FROM PhotoObject o`)
	if len(res.Rows) != 7 {
		t.Errorf("TOP 7 returned %d rows", len(res.Rows))
	}
}

func TestExecuteErrors(t *testing.T) {
	db := newTestDB(t, 10)
	cases := []struct {
		src, wantSub string
	}{
		{`SELECT a.x FROM A:T1 a, B:T2 b`, "exactly one table"},
		{`SELECT o.x FROM Nope o`, "does not exist"},
		{`SELECT o.nosuch FROM PhotoObject o`, "unknown column"},
		{`SELECT z.flux FROM PhotoObject o WHERE z.flux > 1`, "unknown table"},
		{`SELECT o.object_id FROM PhotoObject o WHERE XMATCH(o) < 2`, "federated"},
		{`SELECT o.flux FROM PhotoObject o WHERE o.type > 3`, "cannot compare"},
	}
	for _, c := range cases {
		q, err := sqlparse.Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		_, err = db.Execute(q)
		if err == nil {
			t.Errorf("Execute(%q) succeeded, want error %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Execute(%q) = %v, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestExecuteUnknownTableQualifier(t *testing.T) {
	db := newTestDB(t, 10)
	// The archive qualifier is ignored; alias and table name both resolve.
	res := execQuery(t, db, `SELECT PhotoObject.object_id FROM SDSS:PhotoObject`)
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestSelectWithRegionParameterAndNoIndexFallback(t *testing.T) {
	// A table without EnableSpatial but with ra/dec columns still answers
	// AREA queries by scanning.
	db := NewDB()
	tab, _ := db.Create("PhotoObject", objSchema())
	fillObjects(t, tab, 500, 123)
	// A 45-degree cap holds a large fraction of the sphere, so 500 random
	// objects are guaranteed to hit it in practice.
	res := execQuery(t, db, `SELECT count(*) FROM PhotoObject WHERE AREA(180, 0, 162000)`)
	if res.Rows[0][0].AsInt() == 0 {
		t.Error("fallback scan found nothing")
	}
	// And a table with neither index nor ra/dec errors out.
	db2 := NewDB()
	db2.Create("T", Schema{{"x", value.IntType}})
	q, _ := sqlparse.Parse(`SELECT count(*) FROM T WHERE AREA(0, 0, 10)`)
	if _, err := db2.Execute(q); err == nil {
		t.Error("AREA without position info should fail")
	}
}

// TestSelectCompiledMatchesInterpreter cross-validates the executor's
// compiled path against the reference interpreter: every query is also
// evaluated row by row through Table.Env + eval.Eval, and the result sets
// must be bit-identical (values and types).
func TestSelectCompiledMatchesInterpreter(t *testing.T) {
	tab, err := NewTable("obj", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillObjects(t, tab, 200, 7)
	// Sprinkle NULLs so three-valued logic is exercised.
	if err := tab.Append(value.Int(1000), value.Float(10), value.Float(10), value.Null, value.Null, value.Null); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT object_id, flux FROM obj O WHERE O.type = 'GALAXY' AND flux > 25`,
		`SELECT O.object_id, flux * 2 AS f2, UPPER(type) FROM obj O WHERE flux BETWEEN 10 AND 90`,
		`SELECT COUNT(*) FROM obj WHERE type LIKE 'GAL%' OR flagged`,
		`SELECT * FROM obj O WHERE ABS(dec) < 45 AND type IN ('GALAXY', 'STAR')`,
		`SELECT object_id FROM obj WHERE flux IS NULL OR type IS NULL`,
		`SELECT object_id, flux FROM obj O WHERE COALESCE(flux, 0) < 50 ORDER BY flux DESC, object_id`,
		`SELECT TOP 7 object_id FROM obj ORDER BY object_id DESC`,
	}
	for _, src := range queries {
		q, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		got, err := tab.Select(q.From[0].Name(), q, nil)
		if err != nil {
			t.Fatalf("Select %q: %v", src, err)
		}
		want, err := interpretSelect(tab, q.From[0].Name(), q)
		if err != nil {
			t.Fatalf("reference %q: %v", src, err)
		}
		if len(got.Rows) != len(want) {
			t.Fatalf("%q: compiled returned %d rows, interpreter %d", src, len(got.Rows), len(want))
		}
		for i := range want {
			for j := range want[i] {
				g, w := got.Rows[i][j], want[i][j]
				if !value.Equal(g, w) || g.Type() != w.Type() {
					t.Fatalf("%q row %d col %d: compiled=%v (%v), interpreter=%v (%v)",
						src, i, j, g, g.Type(), w, w.Type())
				}
			}
		}
	}
}

// interpretSelect re-implements Select's scan loop over the interpreted
// reference path (Table.Env + eval.Eval), including ORDER BY and TOP.
func interpretSelect(tab *Table, alias string, q *sqlparse.Query) ([][]value.Value, error) {
	var projections []sqlparse.Expr
	if !q.Count {
		for _, item := range q.Select {
			if _, ok := item.Expr.(*sqlparse.Star); ok {
				for _, def := range tab.Schema() {
					projections = append(projections, &sqlparse.ColumnRef{Table: alias, Column: def.Name})
				}
				continue
			}
			projections = append(projections, item.Expr)
		}
	}
	var rows [][]value.Value
	var keys [][]value.Value
	count := int64(0)
	var scanErr error
	tab.Scan(func(row int) bool {
		env := tab.Env(alias, row)
		ok, err := eval.EvalBool(q.Where, env)
		if err != nil {
			scanErr = err
			return false
		}
		if !ok {
			return true
		}
		if q.Count {
			count++
			return true
		}
		vals := make([]value.Value, len(projections))
		for i, p := range projections {
			if vals[i], err = eval.Eval(p, env); err != nil {
				scanErr = err
				return false
			}
		}
		rows = append(rows, vals)
		if len(q.OrderBy) > 0 {
			ks := make([]value.Value, len(q.OrderBy))
			for i, o := range q.OrderBy {
				if ks[i], err = eval.Eval(o.Expr, env); err != nil {
					scanErr = err
					return false
				}
			}
			keys = append(keys, ks)
			return true
		}
		return q.Top == 0 || len(rows) < q.Top
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if q.Count {
		return [][]value.Value{{value.Int(count)}}, nil
	}
	if len(q.OrderBy) > 0 {
		sorted, err := eval.SortRows(rows, keys, q.OrderBy)
		if err != nil {
			return nil, err
		}
		rows = sorted
		if q.Top > 0 && len(rows) > q.Top {
			rows = rows[:q.Top]
		}
	}
	return rows, nil
}

// TestSelectCompileErrorsBeforeScan asserts binding errors surface even
// when no row would ever be visited: compilation happens at plan time.
func TestSelectCompileErrorsBeforeScan(t *testing.T) {
	tab, err := NewTable("obj", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Empty table: the historical per-row evaluator would have reported
	// nothing for ORDER BY or function errors.
	for _, src := range []string{
		`SELECT object_id FROM obj ORDER BY nosuch`,
		`SELECT NOSUCHFN(flux) FROM obj`,
		`SELECT object_id FROM obj WHERE ABS(flux, 2) > 0`,
	} {
		q, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := tab.Select("obj", q, nil); err == nil {
			t.Errorf("Select(%q) on empty table succeeded, want compile error", src)
		}
	}
}
