package eval

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// envFromLayout builds the interpreter environment matching a layout and a
// row, so both paths resolve exactly the same names to the same values.
func envFromLayout(layout MapLayout, row []value.Value) MapEnv {
	env := MapEnv{}
	for name, slot := range layout {
		env[name] = row[slot]
	}
	return env
}

// stdLayout is the differential tests' column universe: qualified and bare
// names over the first slots of a row.
var stdLayout = MapLayout{
	"O.type":   0,
	"O.i_flux": 1,
	"T.i_flux": 2,
	"O.dec":    3,
	"name":     4,
	"n":        5,
	"x":        6,
}

func stdRows() [][]value.Value {
	rows := [][]value.Value{
		{value.String("GALAXY"), value.Float(12.5), value.Float(9), value.Float(-12.25), value.String("NGC 1275"), value.Int(7), value.Int(-3)},
		{value.String("STAR"), value.Float(1.5), value.Float(1.25), value.Float(89.9), value.String("M31"), value.Int(0), value.Int(math.MinInt64)},
		{value.Null, value.Null, value.Float(2), value.Null, value.Null, value.Int(-1), value.Float(math.NaN())},
		{value.String(""), value.Int(3), value.Int(3), value.Float(0), value.String("NGC%"), value.Null, value.Bool(true)},
	}
	return rows
}

// decidedRows are rows on which an IN list is decided by an early item
// while a later item would fail to compare on the decided row (and another
// row of the batch is still undecided, so the later item does run), and on
// which a BETWEEN with a NULL bound still fails on its other bound: the
// rows that tell a short-circuiting implementation from the interpreter.
func decidedRows() [][]value.Value {
	return [][]value.Value{
		{value.String("QSO"), value.Float(1), value.Float(2), value.Float(0), value.String("M31"), value.Int(5), value.Int(5)},
		{value.String("GALAXY"), value.Float(2), value.Float(1), value.Float(9), value.Null, value.Int(2), value.Int(3)},
		{value.String("STAR"), value.Float(3), value.Null, value.Float(-1), value.Null, value.Int(1), value.String("a")},
	}
}

// columnTypeOf derives a declared type for a test column: the uniform type
// of its non-NULL cells, or NullType (→ boxed vector) when cells mix.
func columnTypeOf(rows [][]value.Value, s int) value.Type {
	t := value.NullType
	for _, row := range rows {
		c := row[s]
		if c.IsNull() {
			continue
		}
		if t == value.NullType {
			t = c.Type()
		} else if t != c.Type() {
			return value.NullType
		}
	}
	return t
}

// tbatchFromRows transposes row-major test rows into a typed batch:
// uniform columns become native vectors (NULLs in the mask), mixed ones
// fall back to boxed — exactly what FillFromCells guarantees.
func tbatchFromRows(width, capacity int, rows [][]value.Value) *TBatch {
	b := NewTBatch(width, capacity)
	for s := 0; s < width; s++ {
		b.Col(s).FillFromCells(len(rows), columnTypeOf(rows, s), func(i int) value.Value { return rows[i][s] })
	}
	b.SetLen(len(rows))
	return b
}

// layoutWidth is the batch width a layout needs.
func layoutWidth(layout MapLayout) int {
	width := 0
	for _, s := range layout {
		width = max(width, s+1)
	}
	return width
}

// interpRowResults evaluates e with the interpreter row by row, returning
// the per-row values and the first erroring row (-1 if none) — the
// reference the typed batch engine must reproduce exactly.
func interpRowResults(e sqlparse.Expr, layout MapLayout, rows [][]value.Value) (vals []value.Value, firstErr int, err error) {
	vals = make([]value.Value, len(rows))
	for i, row := range rows {
		v, verr := Eval(e, envFromLayout(layout, row))
		if verr != nil {
			return vals, i, verr
		}
		vals[i] = v
	}
	return vals, -1, nil
}

// typedCompare holds the typed engine to the interpreter: identical values
// (and types) per row, the identical first erroring row, and Filter
// agreement — over the full batch and split into chunks of every size from
// 1 up, to shake out batch-boundary bugs. The expression must compile.
func typedCompare(t *testing.T, src string, layout MapLayout, rows [][]value.Value) {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	width := layoutWidth(layout)
	tprog, err := CompileTyped(e, layout)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	want, wantErrRow, wantErr := interpRowResults(e, layout, rows)

	for chunk := 1; chunk <= len(rows); chunk++ {
		ev := tprog.NewEval(chunk)
		for off := 0; off < len(rows); off += chunk {
			end := off + chunk
			if end > len(rows) {
				end = len(rows)
			}
			b := tbatchFromRows(width, chunk, rows[off:end])
			got, errRow, err := tprog.EvalVec(ev, b, ev.Seq(b.Len()))
			expErrRow := -1
			if wantErrRow >= off && wantErrRow < end {
				expErrRow = wantErrRow - off
			}
			if (err != nil) != (expErrRow >= 0) || errRow != expErrRow {
				t.Fatalf("%q chunk=%d off=%d: typed errRow=%d err=%v, interpreter first error row %d (%v)",
					src, chunk, off, errRow, err, wantErrRow, wantErr)
			}
			limit := end - off
			if expErrRow >= 0 {
				limit = expErrRow
			}
			for i := 0; i < limit; i++ {
				w := want[off+i]
				g := got.ValueAt(i)
				if !value.Equal(w, g) || w.Type() != g.Type() {
					t.Fatalf("%q chunk=%d row %d: interpreter=%v (%v), typed=%v (%v)",
						src, chunk, off+i, w, w.Type(), g, g.Type())
				}
			}
			b.Release()
			if wantErrRow >= 0 && wantErrRow < end {
				break
			}
		}
		ev.Release()
	}

	ev := tprog.NewEval(len(rows))
	b := tbatchFromRows(width, len(rows), rows)
	sel, errRow, err := tprog.Filter(ev, b, ev.Seq(len(rows)))
	if (err != nil) != (wantErrRow >= 0) || errRow != wantErrRow {
		t.Fatalf("%q: typed Filter errRow=%d err=%v, want row %d (%v)", src, errRow, err, wantErrRow, wantErr)
	}
	var wantSel []int
	for i := range rows {
		if wantErrRow >= 0 && i >= wantErrRow {
			break
		}
		if want[i].IsTrue() {
			wantSel = append(wantSel, i)
		}
	}
	if !reflect.DeepEqual(append([]int{}, sel...), append([]int{}, wantSel...)) {
		t.Errorf("%q: typed Filter sel=%v, want %v", src, sel, wantSel)
	}
	b.Release()
	ev.Release()
}

// typedRowwise evaluates every row alone, in a batch of one, and holds the
// typed engine to the interpreter on each: values and error presence,
// including the rows after an erroring one that typedCompare never
// reaches. The expression must compile.
func typedRowwise(t *testing.T, src string, layout MapLayout, rows [][]value.Value) {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	tprog, err := CompileTyped(e, layout)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	ev := tprog.NewEval(1)
	defer ev.Release()
	for ri, row := range rows {
		iv, ierr := Eval(e, envFromLayout(layout, row))
		b := tbatchFromRows(layoutWidth(layout), 1, [][]value.Value{row})
		got, _, terr := tprog.EvalVec(ev, b, ev.Seq(1))
		if (ierr != nil) != (terr != nil) {
			t.Fatalf("%q row %d: interpreter err=%v, typed err=%v (row %v)", src, ri, ierr, terr, row)
		}
		if ierr == nil {
			if g := got.ValueAt(0); !value.Equal(iv, g) || iv.Type() != g.Type() {
				t.Fatalf("%q row %d: interpreter=%v (%v), typed=%v (%v) (row %v)", src, ri, iv, iv.Type(), g, g.Type(), row)
			}
		}
		b.Release()
	}
}

// typedRows is a homogeneous-column row set that drives every native
// kernel: int, float (with NaN and infinities), string and bool columns,
// NULL-heavy, plus int64 magnitudes beyond 2^53 where the engines' float
// widening makes distinct integers compare equal.
func typedRows() [][]value.Value {
	const big = int64(1) << 53
	return [][]value.Value{
		{value.String("GALAXY"), value.Float(12.5), value.Float(9), value.Float(-12.25), value.String("NGC 1275"), value.Int(7), value.Int(big)},
		{value.String("STAR"), value.Float(1.5), value.Float(1.25), value.Float(89.9), value.String("M31"), value.Int(0), value.Int(big + 1)},
		{value.Null, value.Null, value.Float(math.NaN()), value.Null, value.Null, value.Int(-1), value.Int(math.MinInt64)},
		{value.String(""), value.Null, value.Float(math.Inf(1)), value.Float(0), value.String("NGC%"), value.Null, value.Null},
		{value.String("QSO"), value.Float(-3), value.Null, value.Float(30), value.String("NGC 42"), value.Int(3), value.Int(4)},
	}
}

var typedExprs = []string{
	"O.type = 'GALAXY'",
	"O.type <> 'STAR' AND O.type < 'Z'",
	"(O.i_flux - T.i_flux) > 2",
	"O.i_flux + T.i_flux >= 10",
	"O.i_flux * 2 / 4 < T.i_flux",
	"x + n", "x - n", "x * n", "x % n", "x / n", "-x", "-O.dec",
	"x = n", "x <> n", "x < n", "x <= n", "x > n", "x >= n",
	// Widening: both sides int64 beyond 2^53 — equal as floats.
	"x = 9007199254740993", "x > 9007199254740992",
	// NaN compares equal to everything in this engine.
	"T.i_flux = 0", "T.i_flux < O.i_flux", "T.i_flux >= 1e308",
	"O.dec BETWEEN -30 AND 30",
	"O.type IN ('GALAXY', 'QSO')",
	"O.type IS NULL", "x IS NOT NULL",
	"NOT (O.i_flux > 2)", "NOT x", "NOT O.type",
	"O.type LIKE 'GAL%'", "name LIKE '%27%'", "name LIKE name", "x LIKE 'x'",
	"ABS(O.dec) < 30.0", "SQRT(O.i_flux) > 1", "FLOOR(O.dec) = -13", "ABS(x) > 0", "ABS(n)",
	"UPPER(name) = 'M31'", "LEN(name) > 3", "POWER(2, n) > 4",
	"COALESCE(O.i_flux, T.i_flux, 0) > 1",
	"O.type = 'GALAXY' AND O.i_flux > 2 AND ABS(O.dec) < 30 AND name LIKE 'NGC%'",
	"O.type = 'GALAXY' OR n > 3 OR x IS NULL",
	"x AND n", "x AND (n AND x)", "x OR (n OR NULL)",
	"n AND (x IS NULL AND NULL)",
	"x > 0 AND 1 / 0 = 1", "FALSE AND 1 / 0 = 1", "TRUE OR 1 / 0 = 1",
	"x % (n - n)", "n / (n - n)",
	"name > 2", "x = name", "-name",
}

func TestTypedMatchesScalarEngines(t *testing.T) {
	for _, rows := range [][][]value.Value{typedRows(), stdRows()} {
		for _, src := range typedExprs {
			typedCompare(t, src, stdLayout, rows)
		}
	}
}

func TestBatchMatchesScalarAndInterpreter(t *testing.T) {
	exprs := []string{
		// Literals, arithmetic, typing.
		"1 + 2", "7 / 2", "7 % 3", "2 * 3 + 1", "-5", "- (2.5)", "1.5e2",
		"'a' + 'b'", "TRUE", "NULL", "NULL + 1",
		// Comparisons and three-valued logic.
		"2 = 2", "2 <> 3", "2 < 3", "3 <= 3", "2 > 3", "2 >= 3", "2 = NULL",
		"TRUE AND FALSE", "TRUE OR FALSE", "FALSE AND NULL", "TRUE OR NULL",
		"TRUE AND NULL", "FALSE OR NULL", "NOT TRUE", "NOT NULL",
		// Column-driven vectorized forms.
		"O.type = 'GALAXY'",
		"(O.i_flux - T.i_flux) > 2",
		"O.type = 'GALAXY' AND (O.i_flux - T.i_flux) > 2",
		"O.type = 'GALAXY' OR n > 3",
		"x + n", "x * n", "x % n", "x / n", "-x", "x - n",
		"ABS(O.dec) < 30.0", "ABS(x)",
		"O.dec BETWEEN -30 AND 30",
		"n BETWEEN x AND 10",
		"O.type IN ('GALAXY', 'QSO')",
		"n IN (1, 7, NULL)", "n IN (x, 0)",
		"O.type IS NULL", "O.type IS NOT NULL", "x IS NULL",
		"O.type LIKE 'GAL%'", "name LIKE 'NGC%'", "name LIKE name", "n LIKE 'x'",
		"COALESCE(O.type, name, 'none')",
		"UPPER(name)", "LOWER(O.type)", "LEN(name)", "POWER(2, n)",
		"NOT (O.type = 'GALAXY' OR n > 3)",
		"x = 1 OR x = 2 OR n IS NULL",
		"(O.i_flux + T.i_flux) / 2 >= T.i_flux",
		// Error-bearing rows: mixed-type comparisons and arithmetic, bad
		// operands partway down the batch.
		"x > 0", "x + 1 > n", "name > 2", "x = name",
		"n / (n - n)", "x % (n - n)",
		"-name", "ABS(name) > 0",
		// Constant folding interplay, including constant errors that must
		// fire at evaluation time on the first selected row.
		"1 / 0", "1 % 0", "x > 0 AND 1 / 0 = 1", "FALSE AND 1 / 0 = 1",
		"TRUE OR 1 / 0 = 1", "1 = 1 AND O.type = 'GALAXY'",
		// Right-nested AND/OR with non-bool and NULL operands: value.And
		// is not associative there, so flattening the right side would
		// re-associate and diverge (regression: the batch compiler must
		// keep a nested right AND as a single member).
		"x AND (n AND x)", "x AND ((n > 0) AND NULL)",
		"n AND (x IS NULL AND NULL)", "(x AND n) AND x",
		"x AND (x > 0 AND n / (n - n) > 0)",
		"x OR (n OR NULL)", "x OR ((n > 0) OR NULL)", "(x OR n) OR NULL",
		"x OR (x > 0 OR n / (n - n) > 0)",
		// Native IN, BETWEEN and COALESCE. An IN item runs only at rows no
		// earlier item decided (n = 7 must not reach 1 / 0, nor a decided
		// row compare n with name); BETWEEN and COALESCE never
		// short-circuit (a NULL bound still compares the other one, and a
		// later COALESCE argument's error still fires).
		"n IN (7, 1 / 0)", "n IN (x, name)", "n NOT IN (1, NULL)",
		"n IN (NULL, 7, 1 / 0)",
		"x BETWEEN name AND 1", "NOT (n BETWEEN NULL AND 5)",
		"COALESCE(n, 1 / (n - n))",
	}
	for _, rows := range [][][]value.Value{stdRows(), decidedRows()} {
		for _, src := range exprs {
			typedCompare(t, src, stdLayout, rows)
			typedRowwise(t, src, stdLayout, rows)
		}
	}
}

func TestBatchSizeKnob(t *testing.T) {
	old := BatchSize()
	defer SetBatchSize(old)
	SetBatchSize(3)
	if BatchSize() != 3 {
		t.Errorf("BatchSize = %d", BatchSize())
	}
	SetBatchSize(0) // invalid selects the default
	if BatchSize() != DefaultBatchSize {
		t.Errorf("BatchSize after reset = %d", BatchSize())
	}
}

func TestTypedCompileReportsBindingErrors(t *testing.T) {
	cases := []string{
		"nosuch = 1",
		"Q.nosuch = 1",
		"NOSUCHFN(1)",
		"ABS(1, 2)",
		"POWER(1)",
		"FALSE AND nosuch = 1", // dead side still binding-checked
		"TRUE OR nosuch = 1",
	}
	for _, src := range cases {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := CompileTyped(e, stdLayout); err == nil {
			t.Errorf("CompileTyped(%q) succeeded, want error", src)
		}
	}
}

func TestTypedConstantFolding(t *testing.T) {
	e, err := sqlparse.ParseExpr("1 + 2 * 3 = 7 AND 2 < 3")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTyped(e, stdLayout)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Refs()) != 0 {
		t.Errorf("constant program references slots %v", p.Refs())
	}
	ev := p.NewEval(4)
	b := NewTBatch(7, 4)
	b.SetLen(3)
	sel, errRow, ferr := p.Filter(ev, b, ev.Seq(3))
	if ferr != nil || errRow != -1 || len(sel) != 3 {
		t.Errorf("constant TRUE filter = %v, %d, %v", sel, errRow, ferr)
	}

	e, err = sqlparse.ParseExpr("1 / 0 = 1")
	if err != nil {
		t.Fatal(err)
	}
	p, err = CompileTyped(e, stdLayout)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := p.NewEval(4)
	if _, errRow, ferr := p.Filter(ev2, b, ev2.Seq(3)); ferr == nil || errRow != 0 {
		t.Errorf("constant error filter: errRow=%d err=%v", errRow, ferr)
	}
	if _, errRow, ferr := p.Filter(ev2, b, ev2.Seq(0)); ferr != nil || errRow != -1 {
		t.Errorf("constant error over empty selection: errRow=%d err=%v", errRow, ferr)
	}
	ev.Release()
	ev2.Release()
}

func TestAbsMinInt64(t *testing.T) {
	// -math.MinInt64 overflows int64; ABS must fall back to the float
	// magnitude instead of returning a negative "absolute value".
	want := value.Float(9.223372036854775808e18)
	env := MapEnv{"x": value.Int(math.MinInt64)}
	got := evalStr(t, "ABS(x)", env)
	if got.Type() != value.FloatType || !value.Equal(got, want) {
		t.Errorf("interpreted ABS(MinInt64) = %v (%v), want %v", got, got.Type(), want)
	}
	e, err := sqlparse.ParseExpr("ABS(x)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTyped(e, MapLayout{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	b := NewTBatch(1, 2)
	b.Col(0).SetIntView([]int64{math.MinInt64, -3}, nil)
	b.SetLen(2)
	ev := p.NewEval(2)
	out, _, err := p.EvalVec(ev, b, ev.Seq(2))
	if cv := out.ValueAt(0); err != nil || cv.Type() != value.FloatType || !value.Equal(cv, want) {
		t.Errorf("typed ABS(MinInt64) = %v (%v), %v; want %v", cv, cv.Type(), err, want)
	}
	// Ordinary negatives still stay integral.
	if cv := out.ValueAt(1); !value.Equal(cv, value.Int(3)) || cv.Type() != value.IntType {
		t.Errorf("typed ABS(-3) = %v (%v)", cv, cv.Type())
	}
	if got := evalStr(t, "ABS(-3)", MapEnv{}); !value.Equal(got, value.Int(3)) || got.Type() != value.IntType {
		t.Errorf("ABS(-3) = %v (%v)", got, got.Type())
	}
	ev.Release()
	b.Release()
}

func TestNilTypedProgram(t *testing.T) {
	p, err := CompileTyped(nil, stdLayout)
	if err != nil {
		t.Fatalf("CompileTyped(nil) = %v", err)
	}
	if p != nil {
		t.Fatal("CompileTyped(nil) returned a program")
	}
	if p.Refs() != nil {
		t.Error("nil program has refs")
	}
	ev := p.NewEval(8)
	b := NewTBatch(2, 8)
	b.SetLen(5)
	sel, errRow, ferr := p.Filter(ev, b, ev.Seq(5))
	if ferr != nil || errRow != -1 || len(sel) != 5 {
		t.Errorf("nil program Filter = %v, %d, %v; want identity", sel, errRow, ferr)
	}
	if _, _, err := p.EvalVec(ev, b, ev.Seq(5)); err == nil {
		t.Error("nil program EvalVec should error")
	}
	ev.Release()
}

func TestTypedUnfilledSlot(t *testing.T) {
	e, err := sqlparse.ParseExpr("x = 1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTyped(e, stdLayout)
	if err != nil {
		t.Fatal(err)
	}
	ev := p.NewEval(4)
	b := NewTBatch(7, 4) // slot 6 ("x") never filled
	b.SetLen(2)
	if _, errRow, ferr := p.Filter(ev, b, ev.Seq(2)); ferr == nil || errRow != -1 {
		t.Errorf("unfilled slot: errRow=%d err=%v; want structural error with errRow -1", errRow, ferr)
	}
	narrow := NewTBatch(3, 4)
	narrow.SetLen(2)
	if _, _, ferr := p.Filter(ev, narrow, ev.Seq(2)); ferr == nil {
		t.Error("narrow typed batch accepted")
	}
	ev.Release()
}

// TestVectorViewsAndBuffers covers the Vector fill modes directly: views,
// owned buffers, broadcast and the boxed fallback of FillFromCells.
func TestVectorViewsAndBuffers(t *testing.T) {
	var v Vector
	v.SetIntView([]int64{1, 2, 3}, []bool{false, true, false})
	if v.Kind != VecInt || !v.NullAt(1) || v.ValueAt(2).AsInt() != 3 {
		t.Fatalf("int view: %+v", v)
	}
	v.Broadcast(value.String("x"), 4)
	if v.Kind != VecStr || v.ValueAt(3).AsString() != "x" {
		t.Fatalf("broadcast: %+v", v)
	}
	v.Broadcast(value.Null, 2)
	if !v.NullAt(0) || !v.NullAt(1) {
		t.Fatalf("null broadcast: %+v", v)
	}
	// Declared INT but a FLOAT cell arrives: exact boxed fallback.
	cells := []value.Value{value.Int(1), value.Float(2.5), value.Null}
	v.FillFromCells(3, value.IntType, func(i int) value.Value { return cells[i] })
	if v.Kind != VecBoxed {
		t.Fatalf("mixed cells should fall back to boxed, got kind %d", v.Kind)
	}
	for i, c := range cells {
		if g := v.ValueAt(i); !value.Equal(g, c) || g.Type() != c.Type() {
			t.Fatalf("boxed fallback cell %d: %v != %v", i, g, c)
		}
	}
	v.Release()
	if v.Kind != VecBoxed || v.Boxed != nil {
		t.Fatalf("release left payload: %+v", v)
	}
}

func TestAnalyzePrune(t *testing.T) {
	types := []value.Type{value.IntType, value.FloatType, value.StringType}
	layout := MapLayout{"id": 0, "flux": 1, "name": 2}
	slotType := func(s int) value.Type { return types[s] }
	parse := func(src string) sqlparse.Expr {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return e
	}

	ps := AnalyzePrune(parse("id > 100 AND flux <= 2.5 AND name = 'x'"), layout, slotType)
	if !ps.Safe || len(ps.Pruners) != 3 {
		t.Fatalf("pruners = %+v", ps)
	}
	if p := ps.Pruners[0]; p.Slot != 0 || p.Op != ">" || p.Const != 100 || !p.PrefixSafe {
		t.Errorf("pruner 0 = %+v", p)
	}
	if p := ps.Pruners[1]; p.Slot != 1 || p.Op != "<=" || p.Const != 2.5 || !p.PrefixSafe {
		t.Errorf("pruner 1 = %+v", p)
	}
	if p := ps.Pruners[2]; p.Slot != 2 || p.Op != "=" || p.Str != "x" || !p.IsStr || !p.PrefixSafe {
		t.Errorf("pruner 2 = %+v", p)
	}

	// Reversed operand order flips the comparison.
	ps = AnalyzePrune(parse("100 >= id"), layout, slotType)
	if len(ps.Pruners) != 1 || ps.Pruners[0].Op != "<=" || ps.Pruners[0].Const != 100 {
		t.Fatalf("flipped pruner = %+v", ps.Pruners)
	}

	// An erroring conjunct before the pruner clears PrefixSafe and Safe; a
	// pruner before it stays prefix-safe.
	ps = AnalyzePrune(parse("id > 5 AND flux / 0 > 1 AND id < 3"), layout, slotType)
	if ps.Safe || len(ps.Pruners) != 2 {
		t.Fatalf("pruners = %+v", ps)
	}
	if !ps.Pruners[0].PrefixSafe || ps.Pruners[1].PrefixSafe {
		t.Errorf("prefix safety = %+v", ps.Pruners)
	}

	// String comparisons prune; non-constant comparisons don't; OR spines
	// have no top-level conjuncts to mine.
	ps = AnalyzePrune(parse("name > 'a' AND id < flux"), layout, slotType)
	if len(ps.Pruners) != 1 || !ps.Pruners[0].IsStr || ps.Pruners[0].Op != ">" || ps.Pruners[0].Str != "a" {
		t.Errorf("unexpected pruners %+v", ps.Pruners)
	}
	// LIKE with a literal prefix prunes to the [prefix, successor) range.
	ps = AnalyzePrune(parse("name LIKE 'NGC%'"), layout, slotType)
	if len(ps.Pruners) != 1 || ps.Pruners[0].Op != OpLikePrefix || ps.Pruners[0].Str != "NGC" || ps.Pruners[0].Hi != "NGD" {
		t.Errorf("LIKE pruners %+v", ps.Pruners)
	}
	if ps := AnalyzePrune(parse("id > 5 OR flux < 1"), layout, slotType); len(ps.Pruners) != 0 || !ps.Safe {
		t.Errorf("OR pruners %+v safe=%v", ps.Pruners, ps.Safe)
	}
	if ps := AnalyzePrune(nil, layout, slotType); len(ps.Pruners) != 0 || ps.Safe {
		t.Errorf("nil expr prune set %+v", ps)
	}

	// NeverTrue block tests.
	checks := []struct {
		op       string
		c        float64
		min, max float64
		want     bool
	}{
		{"=", 5, 6, 10, true}, {"=", 7, 6, 10, false},
		{"<", 5, 5, 10, true}, {"<", 6, 5, 10, false},
		{"<=", 5, 6, 10, true}, {"<=", 6, 6, 10, false},
		{">", 10, 5, 10, true}, {">", 9, 5, 10, false},
		{">=", 11, 5, 10, true}, {">=", 10, 5, 10, false},
		{"<>", 5, 5, 5, true}, {"<>", 5, 5, 6, false},
	}
	for _, c := range checks {
		p := Pruner{Op: c.op, Const: c.c}
		if got := p.NeverTrue(c.min, c.max); got != c.want {
			t.Errorf("NeverTrue(%s %g over [%g,%g]) = %v, want %v", c.op, c.c, c.min, c.max, got, c.want)
		}
	}
}

func TestTypedFilterSteadyStateAllocs(t *testing.T) {
	e, err := sqlparse.ParseExpr(benchExpr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTyped(e, stdLayout)
	if err != nil {
		t.Fatal(err)
	}
	rows := benchScanRows(1024)
	b := tbatchFromRows(7, 1024, rows)
	ev := p.NewEval(1024)
	defer ev.Release()
	defer b.Release()
	if _, _, err := p.Filter(ev, b, ev.Seq(b.Len())); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := p.Filter(ev, b, ev.Seq(b.Len())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("typed Filter allocates %.1f per batch in steady state, want 0", allocs)
	}
}

// fuzzTypedRows generates NULL-heavy rows with one stable type per column
// (so the typed engine's native kernels, not just the boxed fallback, see
// the fuzz traffic), including int magnitudes around 2^53 that exercise
// the float-widening comparisons.
func fuzzTypedRows(nCols, nRows int, seed int64) [][]value.Value {
	rng := rand.New(rand.NewSource(seed))
	colKind := make([]int, nCols)
	for i := range colKind {
		colKind[i] = rng.Intn(4)
	}
	strs := []string{"", "GALAXY", "NGC 1275", "a%b_c", "%"}
	rows := make([][]value.Value, nRows)
	for r := range rows {
		row := make([]value.Value, nCols)
		for i := range row {
			if rng.Intn(3) == 0 { // NULL-heavy
				row[i] = value.Null
				continue
			}
			switch colKind[i] {
			case 0:
				row[i] = value.Int([]int64{0, 1, -7, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}[rng.Intn(7)])
			case 1:
				row[i] = value.Float([]float64{0, -0.5, 2.5, math.NaN(), math.Inf(-1), 1e308}[rng.Intn(6)])
			case 2:
				row[i] = value.String(strs[rng.Intn(len(strs))])
			default:
				row[i] = value.Bool(rng.Intn(2) == 0)
			}
		}
		rows[r] = row
	}
	return rows
}

// fuzzLayout binds every column an expression references to its own slot,
// reporting false for unparseable or oversized inputs and for expressions
// that fail to compile (with every column bound, a compile error is a
// row-independent one — unknown function, arity, * — that the interpreter
// may only dodge via short-circuiting: nothing to cross-check).
func fuzzLayout(src string) (MapLayout, bool) {
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		return nil, false
	}
	cols := sqlparse.Columns(e)
	if len(cols) > 64 {
		return nil, false
	}
	layout := MapLayout{}
	for i, c := range cols {
		key := c.Column
		if c.Table != "" {
			key = c.Table + "." + c.Column
		}
		layout[key] = i
	}
	if _, err := CompileTyped(e, layout); err != nil {
		return nil, false
	}
	return layout, true
}

// addFuzzSeeds seeds a differential fuzzer with the hand-written inputs and
// then the FuzzParseExpr corpus (the predicate strings the chain re-parses
// off the wire).
func addFuzzSeeds(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, int64(1))
	}
	for _, s := range parseExprCorpus(f) {
		f.Add(s, int64(2))
	}
}

var fuzzSeeds = []string{
	`(O.i_flux - T.i_flux) > 2`,
	`1 + 2 * 3 = 7 AND 2 < 3 OR FALSE`,
	`a.name = 'O''Neill'`,
	`ABS(O.a + T.b) > 1 AND O.c IS NULL AND T.d IN (1, O.e) AND O.f BETWEEN 1 AND 2`,
	`x LIKE '%''%'`,
	`COALESCE(a, b, 1) % 2 = 0`,
	`NOT NOT NOT x`,
	`a / b > c OR d % e = 0`,
	// Typed fast paths and their fallbacks: NULL-heavy mixed int/float
	// comparisons, widening equality, native AND/OR spines.
	`a = b AND a <= 9007199254740993 AND b >= -5`,
	`a IS NULL OR a > 0.5 AND b <> 2`,
	`a + 0.5 > b AND a % 3 = 0`,
	`a < b OR b IS NULL AND a * 2 >= b`,
}

// FuzzBatchDifferential is the batch differential fuzzer: on every
// parseable expression and random row set, the typed batch program must
// agree with the interpreter on values and fail on the identical first
// row, at every chunking and through Filter. Rows come from two
// generators: the historical per-cell-random one (mixed-type columns,
// driving the typed engine's boxed fallbacks) and a NULL-heavy one with a
// stable type per column (driving the native int64/float64/string/bool
// kernels, including the 2^53 float-widening edge).
func FuzzBatchDifferential(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		layout, ok := fuzzLayout(src)
		if !ok {
			return
		}
		const nRows = 5
		rows := make([][]value.Value, nRows)
		for r := range rows {
			rows[r] = fuzzRow(layoutWidth(layout), seed+int64(r))
		}
		typedCompare(t, src, layout, rows)
		typedCompare(t, src, layout, fuzzTypedRows(layoutWidth(layout), nRows, seed))
	})
}

// FuzzCompileDifferential is the row-at-a-time differential fuzzer: each
// random row is evaluated alone, in a batch of one, and the typed program
// must agree with the interpreter on its value and on error presence —
// every row, including those a batch scan would never reach past an
// earlier failure. It shares FuzzBatchDifferential's seeds.
func FuzzCompileDifferential(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		layout, ok := fuzzLayout(src)
		if !ok {
			return
		}
		rows := make([][]value.Value, 4)
		for r := range rows {
			rows[r] = fuzzRow(layoutWidth(layout), seed+int64(r))
		}
		typedRowwise(t, src, layout, rows)
	})
}

// fuzzRow derives a deterministic row of mixed-type values for the given
// slot count from a seed.
func fuzzRow(n int, seed int64) []value.Value {
	rng := rand.New(rand.NewSource(seed))
	row := make([]value.Value, n)
	strs := []string{"", "GALAXY", "NGC 1275", "a%b_c", "O'Neill", "%", "_"}
	for i := range row {
		switch rng.Intn(7) {
		case 0:
			row[i] = value.Null
		case 1:
			row[i] = value.Int(rng.Int63n(2001) - 1000)
		case 2:
			row[i] = value.Int([]int64{0, 1, -1, math.MaxInt64, math.MinInt64}[rng.Intn(5)])
		case 3:
			row[i] = value.Float(rng.NormFloat64() * 100)
		case 4:
			row[i] = value.Float([]float64{0, -0.5, math.Inf(1), math.NaN(), 1e308}[rng.Intn(5)])
		case 5:
			row[i] = value.String(strs[rng.Intn(len(strs))])
		default:
			row[i] = value.Bool(rng.Intn(2) == 0)
		}
	}
	return row
}

// parseExprCorpus loads the checked-in FuzzParseExpr corpus inputs so the
// differential fuzzer starts from every expression shape the parser
// fuzzing has already found interesting.
func parseExprCorpus(f *testing.F) []string {
	dir := filepath.Join("..", "sqlparse", "testdata", "fuzz", "FuzzParseExpr")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			if s, err := strconv.Unquote(line[len("string(") : len(line)-1]); err == nil {
				out = append(out, s)
			}
		}
	}
	return out
}

// benchScanRows builds the 10k-row-style selective scan input: roughly 5%
// of rows pass benchExpr, with every conjunct selective enough that the
// batch engine's shrinking selection vectors matter.
func benchScanRows(n int) [][]value.Value {
	rng := rand.New(rand.NewSource(42))
	rows := make([][]value.Value, n)
	types := []string{"GALAXY", "STAR", "QSO"}
	for i := range rows {
		name := "UGC 100"
		if rng.Intn(2) == 0 {
			name = fmt.Sprintf("NGC %d", rng.Intn(8000))
		}
		rows[i] = []value.Value{
			value.String(types[rng.Intn(len(types))]), // O.type
			value.Float(rng.Float64() * 20),           // O.i_flux
			value.Float(rng.Float64() * 20),           // T.i_flux
			value.Float(rng.Float64()*180 - 90),       // O.dec
			value.String(name),                        // name
			value.Int(int64(rng.Intn(20))),            // n
			value.Int(int64(rng.Intn(200)) - 100),     // x
		}
	}
	return rows
}

// scanBatches splits scan rows into typed batches of DefaultBatchSize.
func scanBatches(rows [][]value.Value) []*TBatch {
	var batches []*TBatch
	for off := 0; off < len(rows); off += DefaultBatchSize {
		end := min(off+DefaultBatchSize, len(rows))
		batches = append(batches, tbatchFromRows(7, DefaultBatchSize, rows[off:end]))
	}
	return batches
}

// BenchmarkTypedBatchExpr is the typed engine over the 10k-row selective
// scan, in batches of 1024 with a reused evaluator: native column vectors,
// shrinking selection vectors through the conjunction, 0 allocs per batch
// in steady state. This is the headline number the BENCH_scan.json
// trajectory tracks.
func BenchmarkTypedBatchExpr(b *testing.B) {
	e, err := sqlparse.ParseExpr(benchExpr)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := CompileTyped(e, stdLayout)
	if err != nil {
		b.Fatal(err)
	}
	rows := benchScanRows(10000)
	batches := scanBatches(rows)
	ev := prog.NewEval(DefaultBatchSize)
	defer ev.Release()
	want := 0
	for _, bt := range batches {
		sel, _, err := prog.Filter(ev, bt, ev.Seq(bt.Len()))
		if err != nil {
			b.Fatal(err)
		}
		want += len(sel)
	}
	if want == 0 || want > len(rows)/5 {
		b.Fatalf("scan not selective: %d of %d rows pass", want, len(rows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		for _, bt := range batches {
			sel, _, err := prog.Filter(ev, bt, ev.Seq(bt.Len()))
			if err != nil {
				b.Fatal(err)
			}
			got += len(sel)
		}
		if got != want {
			b.Fatalf("got %d, want %d", got, want)
		}
	}
}

// BenchmarkTypedInBetween runs a typed Filter over the same 10k-row scan
// for each of the IN, BETWEEN and COALESCE forms.
func BenchmarkTypedInBetween(b *testing.B) {
	batches := scanBatches(benchScanRows(10000))
	for _, bc := range []struct{ name, src string }{
		{"between", "O.dec BETWEEN -30 AND 30"},
		{"str_in", "O.type IN ('GALAXY', 'QSO')"},
		{"int_in", "n IN (1, 7, 11)"},
		{"coalesce", "COALESCE(x, n) > 0"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := sqlparse.ParseExpr(bc.src)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := CompileTyped(e, stdLayout)
			if err != nil {
				b.Fatal(err)
			}
			ev := prog.NewEval(DefaultBatchSize)
			defer ev.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, bt := range batches {
					if _, _, err := prog.Filter(ev, bt, ev.Seq(bt.Len())); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
